"""Clifford algebras of a split quadratic form, over a polynomial base.

Generators are tracked as bitmasks (bit k = generator k present), with
monomials kept in the standard ascending order.  The defining relations are

    v_i v_j + v_j v_i = -2 q(v_i, v_j)     for same-block generators,
    v_i^+ v_j^- = -+ v_j^- v_i^+           (- in the super variant,
                                            + in the ordinary one),

so v_i^2 = -q(v_i, v_i).  The two 3×3 blocks never pair across, which is
why the cross relations carry no quadratic term.  Multiplication reduces
every word to normal form through a memoized right-multiplication-by-
generator table; coefficients live in an arbitrary polynomial ring, so the
same engine serves rational pencils, prime-field specializations, and
fully symbolic block entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .exactalg import QQ, MultiPoly, PolyRing, as_int, kernel_int_sparse

U_VARS = ("u1", "u2", "u3")

VARIANTS = ("super", "ordinary", "plus", "minus")


class CentralElementError(Exception):
    """A block's odd central element failed its verification."""


def _popcount(m):
    return bin(m).count("1")


class CliffordAlgebra:
    def __init__(self, ring, variant, q_plus=None, q_minus=None):
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}")
        self.ring = ring
        self.variant = variant
        if variant in ("super", "ordinary"):
            if q_plus is None or q_minus is None:
                raise ValueError("six-generator variants need both blocks")
            self.ngens = 6
            self.minus_mask = 0b111000
        elif variant == "plus":
            if q_plus is None:
                raise ValueError("plus variant needs q_plus")
            self.ngens = 3
            self.minus_mask = 0
        else:
            if q_minus is None:
                raise ValueError("minus variant needs q_minus")
            self.ngens = 3
            self.minus_mask = 0b111
        for q in (q_plus, q_minus):
            if q is not None and (q.n != 3 or q.ring != ring):
                raise ValueError("blocks must be 3×3 over the algebra's ring")
        self.q_plus = q_plus
        self.q_minus = q_minus
        self.cross_sign = -1 if variant == "super" else 1
        self._gen_cache = {}
        self._mul_cache = {}
        self._terms = None

    @classmethod
    def from_pencil(cls, P, variant, field=QQ):
        ring = PolyRing(field, U_VARS)
        qp = P.linear_form_matrix("plus", ring) if variant != "minus" else None
        qm = P.linear_form_matrix("minus", ring) if variant != "plus" else None
        return cls(ring, variant, q_plus=qp, q_minus=qm)

    # -- generator bookkeeping ---------------------------------------------------

    def gen_parity(self, j):
        """1 for the generators negated by the involution, else 0."""
        return 1 if (1 << j) & self.minus_mask else 0

    def _same_block(self, i, j):
        return self.gen_parity(i) == self.gen_parity(j)

    def q_of(self, i, j):
        """q(v_i, v_j) as a ring element; zero across blocks."""
        if not self._same_block(i, j):
            return self.ring.zero()
        if self.variant == "minus" or (self.variant in ("super", "ordinary") and i >= 3):
            return self.q_minus[i % 3, j % 3]
        return self.q_plus[i % 3, j % 3]

    def compatible(self, other):
        return (
            self is other
            or (
                isinstance(other, CliffordAlgebra)
                and self.variant == other.variant
                and self.ring == other.ring
                and self.q_plus == other.q_plus
                and self.q_minus == other.q_minus
            )
        )

    # -- normal form engine ----------------------------------------------------

    def _mask_times_gen(self, mask, j):
        """Normal form of e_mask · v_j as a tuple of (mask, coefficient)."""
        key = (mask, j)
        cached = self._gen_cache.get(key)
        if cached is not None:
            return cached
        bit = 1 << j
        if mask == 0 or mask < bit:
            # j is larger than anything present: append
            result = ((mask | bit, self.ring.one()),)
        else:
            top = mask.bit_length() - 1
            if top == j:
                result = ((mask ^ bit, -self.q_of(j, j)),)
            else:
                # peel the top generator: e_mask = e_rest · v_top with top > j
                rest = mask ^ (1 << top)
                swapped = self._mask_times_gen(rest, j)
                if self._same_block(top, j):
                    # v_top v_j = -v_j v_top - 2 q(top, j)
                    result = tuple((m | (1 << top), -c) for m, c in swapped)
                    contraction = self.q_of(top, j) * (-2)
                    if not contraction.is_zero():
                        result = result + ((rest, contraction),)
                else:
                    s = self.cross_sign
                    result = tuple(
                        (m | (1 << top), c if s > 0 else -c) for m, c in swapped
                    )
        self._gen_cache[key] = result
        return result

    def mask_mul(self, ma, mb):
        """Normal form of e_ma · e_mb as a tuple of (mask, coefficient)."""
        key = (ma, mb)
        cached = self._mul_cache.get(key)
        if cached is not None:
            return cached
        acc = {ma: self.ring.one()}
        rem = mb
        while rem:
            j = (rem & -rem).bit_length() - 1
            rem &= rem - 1
            nxt = {}
            for mask, poly in acc.items():
                for mask2, c in self._mask_times_gen(mask, j):
                    term = poly * c
                    cur = nxt.get(mask2)
                    term = term if cur is None else cur + term
                    if term.is_zero():
                        nxt.pop(mask2, None)
                    else:
                        nxt[mask2] = term
            acc = nxt
        result = tuple(sorted(acc.items()))
        self._mul_cache[key] = result
        return result

    # -- element constructors ------------------------------------------------------

    def zero(self):
        return CliffordElement(self, {})

    def one(self):
        return CliffordElement(self, {0: self.ring.one()})

    def gen(self, j):
        if not 0 <= j < self.ngens:
            raise ValueError("generator index out of range")
        return CliffordElement(self, {1 << j: self.ring.one()})

    def from_mask(self, mask, coeff=None):
        if mask >> self.ngens:
            raise ValueError("mask uses generators outside the algebra")
        coeff = self.ring.one() if coeff is None else coeff
        if coeff.is_zero():
            return self.zero()
        return CliffordElement(self, {mask: coeff})

    def basis_product(self, ma, mb):
        return CliffordElement(self, dict(self.mask_mul(ma, mb)))

    # -- structure-constant certificates -----------------------------------------

    def verify_associativity(self):
        """Prove the normal-form product associative over the coefficient
        ring, or raise ValueError.  Two finite families are checked:

        (i)  e_b·e_0 = e_0·e_b = e_b, and e_b·e_c = (e_b·e_c')·v_k for every
             mask b and nonzero mask c, with v_k the top generator of c and
             c' = c without it;
        (ii) (e_a·e_b)·v_k = e_a·(e_b·v_k) for all masks a, b and generators k.

        They give (xy)z = x(yz) for all x, y, z by induction on the length
        of the monomial z = e_c:  (xy)e_c = ((xy)e_c')v_k = (x(y e_c'))v_k
        = x((y e_c')v_k) = x(y e_c), by (i), the induction hypothesis, (ii)
        extended bilinearly, and (i) again.  For three generators that is
        64 + 192 identities over Q[u] instead of 512 triples at every base
        point.  Associativity then holds in every specialization, because
        evaluating u, embedding into a quadratic tower and reducing integer
        structure constants mod p are ring homomorphisms.
        """
        n = 1 << self.ngens
        one = self.one()
        for b in range(n):
            eb = self.from_mask(b)
            if eb * one != eb or one * eb != eb:
                raise ValueError(f"e_0 is not a unit on mask {b}")
            for c in range(1, n):
                top = c.bit_length() - 1
                if (self.basis_product(b, c)
                        != self.basis_product(b, c ^ (1 << top)) * self.gen(top)):
                    raise ValueError(
                        f"e_{b}·e_{c} is not built from generator steps")
        for a in range(n):
            ea = self.from_mask(a)
            for b in range(n):
                ab = self.basis_product(a, b)
                for k in range(self.ngens):
                    if ab * self.gen(k) != ea * self.basis_product(b, 1 << k):
                        raise ValueError(
                            f"associativity fails on (e_{a} e_{b}) v_{k}")
        return True

    def structure_terms(self):
        """mask_mul(a, b) for every pair of masks, indexed [a][b], with
        each coefficient polynomial as a tuple of (exponents, coefficient)
        terms and the integral coefficients as ints; built once."""
        if self._terms is None:
            n = 1 << self.ngens
            self._terms = [[tuple((mask, tuple((e, as_int(c))
                                               for e, c in poly.terms.items()))
                                  for mask, poly in self.mask_mul(a, b))
                            for b in range(n)] for a in range(n)]
        return self._terms

    def integral_structure(self):
        """True when every structure constant lies in Z[u], so that
        reducing them mod p is a ring homomorphism Z[u] → F_p."""
        return all(isinstance(c, int) for row in self.structure_terms()
                   for entry in row for _, terms in entry for _, c in terms)


class CliffordElement:
    __slots__ = ("alg", "coeffs")

    def __init__(self, alg, coeffs):
        self.alg = alg
        self.coeffs = coeffs

    def _check(self, other):
        if isinstance(other, CliffordElement):
            if not self.alg.compatible(other.alg):
                raise ValueError("elements live in different algebras")
            return other
        # scalars and base-ring polynomials embed on the empty mask
        if isinstance(other, MultiPoly):
            if other.ring != self.alg.ring:
                raise ValueError("coefficient from a different ring")
            return CliffordElement(self.alg, {} if other.is_zero() else {0: other})
        poly = self.alg.ring.const(other)
        return CliffordElement(self.alg, {} if poly.is_zero() else {0: poly})

    def __add__(self, other):
        other = self._check(other)
        out = dict(self.coeffs)
        for m, p in other.coeffs.items():
            s = out.get(m)
            s = p if s is None else s + p
            if s.is_zero():
                out.pop(m, None)
            else:
                out[m] = s
        return CliffordElement(self.alg, out)

    __radd__ = __add__

    def __neg__(self):
        return CliffordElement(self.alg, {m: -p for m, p in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-self._check(other))

    def __rsub__(self, other):
        return self._check(other) - self

    def __mul__(self, other):
        other = self._check(other)
        alg = self.alg
        out = {}
        for ma, pa in self.coeffs.items():
            for mb, pb in other.coeffs.items():
                pab = pa * pb
                if pab.is_zero():
                    continue
                for m, c in alg.mask_mul(ma, mb):
                    term = pab * c
                    s = out.get(m)
                    s = term if s is None else s + term
                    if s.is_zero():
                        out.pop(m, None)
                    else:
                        out[m] = s
        return CliffordElement(alg, out)

    def __rmul__(self, other):
        return self._check(other) * self

    def __eq__(self, other):
        if isinstance(other, CliffordElement):
            return self.alg.compatible(other.alg) and self.coeffs == other.coeffs
        try:
            return self == self._check(other)
        except (ValueError, TypeError):
            return NotImplemented

    def __hash__(self):
        return hash((id(self.alg), tuple(sorted(
            (m, tuple(sorted(p.terms.items()))) for m, p in self.coeffs.items()
        ))))

    def is_zero(self):
        return not self.coeffs

    def commutator(self, other):
        return self * other - other * self

    def scalar_part(self):
        return self.coeffs.get(0, self.alg.ring.zero())

    def is_scalar(self):
        return all(m == 0 for m in self.coeffs)

    def __repr__(self):
        if not self.coeffs:
            return "0"
        names = []
        for j in range(self.alg.ngens):
            if self.alg.ngens == 6:
                names.append(f"v{j % 3 + 1}{'+' if j < 3 else '-'}")
            else:
                names.append(f"v{j + 1}")
        bits = []
        for mask in sorted(self.coeffs):
            word = "".join(names[j] for j in range(self.alg.ngens) if mask >> j & 1)
            p = self.coeffs[mask]
            bits.append(f"({p})" + ("*" + word if word else ""))
        return " + ".join(bits)


# ---------------------------------------------------------------------------
# the even-part isomorphism between the super and ordinary variants
# ---------------------------------------------------------------------------

def phi_exponent(mask):
    """ε(m): phi scales the basis monomial e_m by i^ε(m), where ε(m) is
    the number of plus-block generators in m, mod 2.  `phi`,
    `phi_failing_pairs` and `phi_sign_rule_failures` read it from here."""
    return _popcount(mask & 0b111) % 2


def phi(e, target):
    """Map an even-weight element of the super algebra onto the ordinary
    one.  Basis masks are preserved; each is scaled by i^ε(m) (see
    `phi_exponent`), ε(m) = m mod 2 where m counts its plus-block
    generators.

    The naive all-real scaling by (-1)^(m(m-1)/2) is NOT multiplicative:
    squaring the mask v1+v1- forces the weight-2 scalar eps to satisfy
    eps^2 = -1, and contracting pairs like (v1+v2+)(v2+v3+) force the
    same-parity masks to share one scalar.  Those two constraints pin the
    map to eps(m) = i^(m mod 2) up to conjugation, so the coefficient
    field must carry a square root of -1, as `field.i`.
    """
    if e.alg.variant != "super" or target.variant != "ordinary":
        raise ValueError("phi maps the super variant onto the ordinary one")
    if target.ring != e.alg.ring:
        raise ValueError("source and target must share the coefficient ring")
    field = e.alg.ring.field
    if getattr(field, "i", None) is None:
        raise ValueError("phi needs coefficients containing i")
    out = {}
    for mask, poly in e.coeffs.items():
        if _popcount(mask) % 2:
            raise ValueError("phi is defined on even-weight elements only")
        scale = field.i if phi_exponent(mask) else field.one
        out[mask] = poly * scale
    return CliffordElement(target, out)


def phi_failing_pairs(sup, target, exponent=phi_exponent):
    """Even mask pairs [a, b] on which e_m ↦ i^exponent(m)·e_m fails to be
    multiplicative, read off the structure constants over Q[u].

    phi(e_a e_b) = Σ c^sup_m i^ε(m) e_m and phi(e_a) phi(e_b) =
    i^(ε(a)+ε(b)) Σ c^ord_m e_m, so the pair is good iff
    c^sup_m = i^δ c^ord_m for every mask m, with δ = ε(a)+ε(b)-ε(m) mod 4.
    The coefficients are rational polynomials, so δ = 0 asks for equality,
    δ = 2 for opposite signs, and odd δ for both to vanish (a real
    polynomial equals an imaginary one only when both are zero).  This is
    the same test as comparing phi(a·b) with phi(a)·phi(b) over Q(i)[u],
    without any Gaussian arithmetic.  `exponent` may return any integer;
    it is read mod 4.
    """
    if sup.variant != "super" or target.variant != "ordinary":
        raise ValueError("phi maps the super variant onto the ordinary one")
    if target.ring != sup.ring or sup.ring.field is not QQ:
        raise ValueError("structure constants must share a rational ring")
    zero = sup.ring.zero()
    even = [m for m in range(1 << sup.ngens) if _popcount(m) % 2 == 0]
    bad = []
    for ma in even:
        for mb in even:
            lhs = dict(sup.mask_mul(ma, mb))
            rhs = dict(target.mask_mul(ma, mb))
            shift = exponent(ma) + exponent(mb)
            for m in lhs.keys() | rhs.keys():
                cs, co = lhs.get(m, zero), rhs.get(m, zero)
                delta = (shift - exponent(m)) % 4
                if delta == 0:
                    good = cs == co
                elif delta == 2:
                    good = cs == -co
                else:
                    good = cs.is_zero() and co.is_zero()
                if not good:
                    bad.append([ma, mb])
                    break
    return bad


def _block_parities(mask):
    """(|m₊| mod 2, |m₋| mod 2) for a six-generator mask."""
    return _popcount(mask & 0b000111) % 2, _popcount(mask & 0b111000) % 2


def phi_twist_failures(sup, target):
    """Generator steps (m, j) on which the super engine is not the ordinary
    one up to its cross-block swap signs.  With m₊, m₋ the generators of m
    in each block, every mask m < 64 and generator j < 6 must satisfy

    (T) sup._mask_times_gen(m, j) is target._mask_times_gen(m, j) with
        every coefficient multiplied by (-1)^(|m₋|·[j ∈ plus]);
    (P) every output mask m' has |m'₊| ≡ |m₊| + [j ∈ plus] and
        |m'₋| ≡ |m₋| + [j ∈ minus] (mod 2).

    An empty list proves sup.mask_mul(a, b) = (-1)^(|a₋|·|b₊|) ·
    target.mask_mul(a, b) term by term for all masks a, b, every mask of
    the product lying in the block-parity class of a ⊕ b.  mask_mul
    multiplies e_a on the right by the generators of b in ascending order,
    so b's plus generators come first.  By induction on the steps taken:
    while plus generators are applied, (P) keeps |m₋| ≡ |a₋| on every mask
    of the accumulator, so by (T) each such step scales the whole super
    accumulator by the same sign (-1)^|a₋| against the ordinary one; minus
    steps scale it by 1.  One sign for the whole accumulator means sums and
    cancellations agree on both sides.  That is 384 step comparisons
    instead of 1,024 products per variant, the way `verify_associativity`
    lifts generator identities to all products.  A named step proves
    nothing about phi; `phi_failing_pairs` then decides.
    """
    if sup.variant != "super" or target.variant != "ordinary":
        raise ValueError("phi maps the super variant onto the ordinary one")
    if target.ring != sup.ring:
        raise ValueError("the two engines must share the coefficient ring")
    bad = []
    for m in range(1 << sup.ngens):
        for j in range(sup.ngens):
            flip = _popcount(m & sup.minus_mask) % 2 and not sup.gen_parity(j)
            want = tuple((m2, -c if flip else c)
                         for m2, c in target._mask_times_gen(m, j))
            parity = _block_parities(m ^ (1 << j))
            if (sup._mask_times_gen(m, j) != want
                    or any(_block_parities(m2) != parity for m2, _ in want)):
                bad.append((m, j))
    return bad


def phi_sign_rule_failures(exponent=phi_exponent):
    """Even mask pairs [a, b] on which the sign twist of
    `phi_twist_failures` does not by itself make e_m ↦ i^exponent(m)·e_m
    multiplicative.

    By `phi_failing_pairs` the pair is good iff c^sup_m = i^δ c^ord_m for
    every mask m of the product, δ = ε(a)+ε(b)-ε(m) mod 4.  Under the twist
    c^sup_m = (-1)^(|a₋|·|b₊|) c^ord_m with m in the parity class of a ⊕ b,
    so it suffices that i^δ = (-1)^(|a₋|·|b₊|) for every m in that class.
    For `phi_exponent` this always holds: for even a, |a₋| ≡ |a₊| = ε(a),
    and ε(m) ≡ ε(a)+ε(b), so δ = 2 exactly when ε(a) = ε(b) = 1, which is
    when the sign is -1.  The rule reads whole parity classes rather than
    the masks that occur, so a listed pair proves nothing; then
    `phi_failing_pairs` decides.
    """
    eps = [exponent(m) % 4 for m in range(64)]
    classes = {}
    for m in range(64):
        classes.setdefault(_block_parities(m), []).append(m)
    even = [m for m in range(64) if _popcount(m) % 2 == 0]
    bad = []
    for a in even:
        for b in even:
            sign = 2 * (_popcount(a & 0b111000) * _popcount(b & 0b000111) % 2)
            if any((eps[a] + eps[b] - eps[m] - sign) % 4
                   for m in classes[_block_parities(a ^ b)]):
                bad.append([a, b])
    return bad


# ---------------------------------------------------------------------------
# the odd central element of a 3-generator block
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CentralOddResult:
    element: CliffordElement
    sign: int
    square: MultiPoly
    det: MultiPoly
    r_coeffs: tuple  # the coefficients (r1, r2, r3) of v1, v2, v3 in d


def central_odd(alg):
    """The odd central element of a 3-generator block, in closed form:

        d = v1 v2 v3 + q23·v1 − q13·v2 + q12·v3,

    that is r = (q[1,2], −q[0,2], q[0,1]).  This is the antisymmetrisation
    (1/6)·Σ_σ sgn(σ)·v_σ1 v_σ2 v_σ3, the image of the volume element
    v1∧v2∧v3 under the Chevalley map Λ(V) → C(q) (Chevalley, The
    Algebraic Theory of Spinors, 1954).

    It is the unique odd central element with coefficient 1 on e_7.  If d′
    is another, then d′ − d = Σ aᵢvᵢ is central.  For i ≠ j the normal form
    of vᵢvⱼ − vⱼvᵢ has coefficient ±2 on the mask {i, j}, and distinct i
    give distinct masks, so [d′ − d, vⱼ] = 0 forces every aᵢ = 0 over Q[u]:
    uniqueness holds among all odd elements.

    The closed form is verified over the coefficient ring, not assumed:
    [d, vⱼ] = 0 for each generator, and d² is the scalar s·det(q), with the
    sign s recorded; a failure raises CentralElementError.  The ansatz
    solve this replaces is the oracle in tests/conftest.py."""
    if alg.ngens != 3:
        raise ValueError("central_odd works on a 3-generator block")
    q = alg.q_plus if alg.variant == "plus" else alg.q_minus
    if all(q[i, j].is_zero() for i in range(3) for j in range(3)):
        raise CentralElementError("zero block has no central element")
    r = (q[1, 2], -q[0, 2], q[0, 1])
    gens = [alg.gen(j) for j in range(3)]
    d = alg.from_mask(0b111) + sum((rj * g for rj, g in zip(r, gens)), alg.zero())
    for j, g in enumerate(gens):
        if not d.commutator(g).is_zero():
            raise CentralElementError(f"d does not commute with v{j + 1}")
    sq = d * d
    if not sq.is_scalar():
        raise CentralElementError("d² is not scalar")
    square = sq.scalar_part()
    det = q.det()
    if square == det:
        sign = 1
    elif square == -det:
        sign = -1
    else:
        raise CentralElementError("d² is not ±det(q)")
    return CentralOddResult(element=d, sign=sign, square=square, det=det,
                            r_coeffs=r)


@dataclass(frozen=True)
class CentralPair:
    d_plus: CliffordElement
    d_minus: CliffordElement
    squares: tuple
    sign: int


def central_pair(rp, rm):
    """The odd central elements of the plus and minus blocks, from their
    CentralOddResults."""
    if rp.sign != rm.sign:
        raise CentralElementError("the two blocks realize different signs")
    return CentralPair(d_plus=rp.element, d_minus=rm.element,
                       squares=(rp.square, rm.square), sign=rp.sign)


def lift(e, target, side):
    """Embed a 3-generator element into a 6-generator algebra over the same
    ring (the minus block shifts its generators up by three)."""
    if target.ngens != 6:
        raise ValueError("lift target must have six generators")
    if e.alg.ring != target.ring:
        raise ValueError("lift target must share the coefficient ring")
    shift = 0 if side == "plus" else 3
    return CliffordElement(target, {mask << shift: poly
                                    for mask, poly in e.coeffs.items()})


# ---------------------------------------------------------------------------
# degree-bounded commutant
# ---------------------------------------------------------------------------

def _monomials_of_degree(d):
    out = []
    for a in range(d + 1):
        for b in range(d - a + 1):
            out.append((a, b, d - a - b))
    return sorted(out)


def commutant_basis(alg, D):
    """Per-weight bases of { z : [z, v_j] = 0 for every generator },
    weights 0..D, via an exact integer kernel on (mask, monomial)
    coordinates.  Returns a list indexed by weight."""
    if D > 8:
        raise ValueError("degree bound capped at 8")
    out = []
    for n in range(D + 1):
        unknowns = []
        for mask in range(1 << alg.ngens):
            k = _popcount(mask)
            if k > n or (n - k) % 2:
                continue
            for mexp in _monomials_of_degree((n - k) // 2):
                unknowns.append((mask, mexp))
        rows = {}
        for col, (mask, mexp) in enumerate(unknowns):
            for g in range(alg.ngens):
                gbit = 1 << g
                for m2, poly, sgn in (
                    [(m, p, 1) for m, p in alg.mask_mul(mask, gbit)]
                    + [(m, p, -1) for m, p in alg.mask_mul(gbit, mask)]
                ):
                    for pexp, c in poly.terms.items():
                        if c.denominator != 1:
                            raise ValueError("non-integer structure constant")
                        key = (g, m2, tuple(a + b for a, b in zip(pexp, mexp)))
                        row = rows.setdefault(key, {})
                        v = row.get(col, 0) + sgn * c.numerator
                        if v:
                            row[col] = v
                        else:
                            row.pop(col, None)
        basis = kernel_int_sparse(list(rows.values()), len(unknowns))
        elems = []
        for vec in basis:
            acc = alg.zero()
            for col, v in enumerate(vec):
                if v:
                    mask, mexp = unknowns[col]
                    acc = acc + alg.from_mask(mask, alg.ring.monomial(mexp, v))
            elems.append(acc)
        out.append(elems)
    return out


def commutant_dims(alg, D):
    return [len(b) for b in commutant_basis(alg, D)]


def hilbert_dims_center(D):
    """Weight dimensions of Q[u, y+, y-]/(y±² - f±) with deg u = 2 and
    deg y± = 3: a free Q[u]-module on 1, y+, y-, y+y- of weights 0,3,3,6.
    The independent oracle for the ordinary-variant commutant."""
    def u_count(w):
        if w < 0 or w % 2:
            return 0
        return comb(w // 2 + 2, 2)

    return [u_count(n) + 2 * u_count(n - 3) + u_count(n - 6)
            for n in range(D + 1)]


# ---------------------------------------------------------------------------
# defining relations: homogeneity and the scaling action
# ---------------------------------------------------------------------------

def defining_relations(alg):
    """Each relation is a list of (word, coefficient) terms summing to
    zero; words are tuples of generator indices."""
    rels = []
    one = alg.ring.one()
    for i in range(alg.ngens):
        for j in range(i, alg.ngens):
            if i == j:
                rels.append([((i, i), one), ((), alg.q_of(i, i))])
            elif alg._same_block(i, j):
                rels.append([((i, j), one), ((j, i), one),
                             ((), alg.q_of(i, j) * 2)])
            else:
                rels.append([((i, j), one),
                             ((j, i), one * (-alg.cross_sign))])
    return rels


def term_bidegrees(alg, word, poly):
    par = sum(alg.gen_parity(g) for g in word) % 2
    base = len(word)
    return {((par, base + 2 * sum(e))) for e in poly.terms}


def terms_homogeneous(alg, terms):
    degs = set()
    for word, poly in terms:
        if poly.is_zero():
            continue
        degs |= term_bidegrees(alg, word, poly)
    return len(degs) <= 1


def action_scales_relation(alg, terms, s, lam):
    """Apply the scaling action (generators pick up λ, the negated block
    also picks up s, base variables pick up λ²) and test that the relation
    transforms by one overall scalar."""
    lam = Fraction(lam)
    transformed = []
    for word, poly in terms:
        scale = Fraction(1)
        for g in word:
            scale *= lam * (s if alg.gen_parity(g) else 1)
        newpoly = poly.ring.from_terms(
            [(e, c * scale * lam ** (2 * sum(e))) for e, c in poly.terms.items()]
        )
        transformed.append((word, newpoly))
    mu = None
    for (word, poly), (_, newpoly) in zip(terms, transformed):
        if poly.is_zero():
            if not newpoly.is_zero():
                return False
            continue
        e, c = poly.leading_term()
        ratio = newpoly.terms.get(e)
        if ratio is None:
            return False
        cand = ratio / c
        if mu is None:
            mu = cand
        if newpoly != poly * mu:
            return False
    return True


def equivariance_check(P, variant="ordinary"):
    """True iff every defining relation transforms by a single scalar under
    both components of the scaling action (tested at λ = 2 to separate
    weights)."""
    alg = CliffordAlgebra.from_pencil(P, variant)
    for terms in defining_relations(alg):
        for s in (1, -1):
            if not action_scales_relation(alg, terms, s, 2):
                return False
    return True
