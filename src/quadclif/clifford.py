"""Clifford algebras of a split quadratic form, over a polynomial base.

Generators are tracked as bitmasks (bit k = generator k present), with
monomials kept in the standard ascending order.  The defining relations are

    v_i v_j + v_j v_i = -2 q(v_i, v_j)     for same-block generators,
    v_i^+ v_j^- = -+ v_j^- v_i^+           (- in the super variant,
                                            + in the ordinary one),

so v_i^2 = -q(v_i, v_i).  The two 3×3 blocks never pair across, which is
why the cross relations carry no quadratic term.  Multiplication reduces
every word to normal form through a memoized right-multiplication-by-
generator table; coefficients live in an arbitrary polynomial ring.

The checks run it on the generic blocks M₊ = (a_ij), M₋ = (b_ij) over
Z[a, b] (`CliffordAlgebra.generic`).  The normal form uses only ring
operations on the block entries, so every structure constant is an integer
polynomial in a and b, and the engine of any blocks q₊, q₋ is the generic
one under the ring map a ↦ q₊, b ↦ q₋ (`block_point`, evaluated by
`exactalg.evaluator`), which carries every identity proven over Z[a, b]
to an instance over Z[u] and to its fibers.  The minus block needs no engine of
its own: it is the plus side under the automorphism a ↔ b (`swap_blocks`).
"""

from __future__ import annotations

from collections import namedtuple

from .exactalg import (ZZ, MultiPoly, PolyRing, SymMatrix, as_int, evaluator,
                       kernel_int_sparse)

# The variants, each with its generator count and minus-block mask; the
# three-generator "plus" engine serves any single block.
VARIANTS = {"super": (6, 0b111000), "ordinary": (6, 0b111000), "plus": (3, 0)}

# The upper-triangle entries of a symmetric 3×3 block, in variable order:
# a11..a33 for the plus block, then b11..b33 for the minus block.
_ENTRIES = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))
GENERIC = PolyRing(ZZ, [f"{x}{i + 1}{j + 1}" for x in "ab" for i, j in _ENTRIES])


def block_point(first, second=None):
    """GENERIC's variables at the 3×3 block `first` (a) and `second` (b, zero
    when None): evaluation there is the ring map a ↦ first, b ↦ second."""
    return tuple(0 if m is None else m[i][j]
                 for m in (first, second) for i, j in _ENTRIES)


def swap_blocks(poly):
    """poly under the automorphism of Z[a, b] exchanging a_ij and b_ij."""
    return GENERIC.from_terms((e[6:] + e[:6], c) for e, c in poly.terms.items())


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
        self.ngens, self.minus_mask = VARIANTS[variant]
        if q_plus is None or (q_minus is None and variant != "plus"):
            raise ValueError(f"the {variant} variant needs its blocks")
        for q in (q_plus, q_minus):
            if q is not None and (q.n != 3 or q.ring != ring):
                raise ValueError("blocks must be 3×3 over the algebra's ring")
        self.q_plus = q_plus
        self.q_minus = q_minus
        self.cross_sign = -1 if variant == "super" else 1
        self._gen_cache = {}
        self._mul_cache = {}

    @classmethod
    def generic(cls, variant):
        """The engine of `variant` on the generic blocks over GENERIC, which
        every instance's engine specializes (the module docstring)."""
        def block(k):  # the symmetric matrix of variables k..k+5
            e = dict(zip(_ENTRIES, map(GENERIC.var, GENERIC.vars[k:k + 6])))
            return SymMatrix(GENERIC, [[e[min(i, j), max(i, j)] for j in range(3)]
                                       for i in range(3)])

        return cls(GENERIC, variant, q_plus=block(0),
                   q_minus=block(6) if variant != "plus" else None)

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
        return (self.q_minus if self.gen_parity(i) else self.q_plus)[i % 3, j % 3]

    def compatible(self, other):
        return self is other or (
            isinstance(other, CliffordAlgebra)
            and (self.variant, self.ring, self.q_plus, self.q_minus)
            == (other.variant, other.ring, other.q_plus, other.q_minus))

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
        64 + 192 identities over the coefficient ring instead of 512
        triples at every base point.  Associativity then holds in every
        specialization, because the ring map a ↦ q(u), evaluation at a
        point, embedding into a quadratic tower and reducing integer
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

    def verify_tensor_product(self, plus):
        """Prove this generic six-generator engine the tensor product of the
        generic plus side and its image under σ = swap_blocks, or raise
        ValueError naming the first step that fails.  With
        m = m₊ | (m₋ << 3) and s = cross_sign:

        (P) every step e_m·v_j of the plus side (m < 8, j < 3) changes the
            mask parity by exactly one, to masks below 8;
        (T₊) for j < 3, e_m·v_j is s^|m₋| times the plus step (m₊, j), each
             output mask m′ becoming m′ | (m₋ << 3);
        (T₋) for j ≥ 3, e_m·v_j is σ of the plus step (m₋, j − 3), each
             output mask m′ becoming m₊ | (m′ << 3).

        σ carries the proven plus side to the minus side: σ is a ring
        automorphism of Z[a, b] with σ(M₊) = M₋, and the normal form uses
        only ring operations and zero tests on the block entries, so the
        minus side's steps are σ of the plus side's, and σ carries its
        associativity, integrality and grading (P) along.
        mask_mul(a, b) right-multiplies e_a by the generators of b in
        ascending order, plus generators first.  By induction over those
        steps, (T₊) multiplies the accumulator by s^|a₋| at each plus step
        and leaves the minus part a₋ of every mask alone, and (T₋) then
        runs the minus side with the plus part fixed, so
        mask_mul(a, b) = s^(|a₋|·|b₊|)·(e_a₊·e_b₊) ⊗ (e_a₋·e_b₋) term by
        term.  For s = 1 that is the product of C(q₊) ⊗ C(q₋); for s = −1
        the product of the graded tensor product C(q₊) ⊗̂ C(q₋), whose
        sign reads mask parities as degrees, a Z/2-grading of each side by
        (P).  Both are associative with integral structure constants when
        the plus side is (CheckContext.algebra), and
        C(q₊ ⊥ q₋) ≅ C(q₊) ⊗̂ C(q₋) (Lam, Introduction to Quadratic Forms
        over Fields, GSM 67, Ch. V).
        That is 24 + 384 step comparisons in place of verify_associativity
        on 64 masks."""
        if (self.ngens != 6 or self.ring != GENERIC or plus.variant != "plus"
                or plus.q_plus != self.q_plus):
            raise ValueError("the plus side must be the first block of a "
                             "generic six-generator engine")
        for m in range(8):
            for j in range(3):
                if any(m2 >> 3 or _popcount(m2 ^ m) % 2 != 1
                       for m2, _ in plus._mask_times_gen(m, j)):
                    raise ValueError(f"the plus step e_{m}·v_{j} "
                                     "does not change parity by one")
        for m in range(64):
            mp, mm = m & 0b111, m >> 3
            sign = self.cross_sign ** _popcount(mm)
            for j in range(6):
                if j < 3:
                    want = tuple((m2 | mm << 3, c * sign)
                                 for m2, c in plus._mask_times_gen(mp, j))
                else:
                    want = tuple((mp | m2 << 3, swap_blocks(c))
                                 for m2, c in plus._mask_times_gen(mm, j - 3))
                if self._mask_times_gen(m, j) != want:
                    raise ValueError(
                        f"tensor product fails on the {self.variant} step e_{m}·v_{j}")
        return True

    def integral_structure(self):
        """True when every structure constant has integer coefficients, so
        that reducing them mod p is a ring homomorphism to F_p."""
        n = 1 << self.ngens
        return all(type(as_int(c)) is int for a in range(n) for b in range(n)
                   for _, poly in self.mask_mul(a, b) for c in poly.terms.values())


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
        poly = other if isinstance(other, MultiPoly) else self.alg.ring.const(other)
        if poly.ring != self.alg.ring:
            raise ValueError("coefficient from a different ring")
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
        # equal elements have compatible algebras, hence one variant
        return hash((self.alg.variant, tuple(sorted(
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
    the number of plus-block generators in m, mod 2.  `phi` reads it
    from here, and checks._check_phi states why it absorbs the sign
    between the super and ordinary engines."""
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


# ---------------------------------------------------------------------------
# the odd central element of a 3-generator block
# ---------------------------------------------------------------------------

# r_coeffs: the coefficients (r1, r2, r3) of v1, v2, v3 in d
CentralOddResult = namedtuple("CentralOddResult",
                              "element sign square det r_coeffs")


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
    give distinct masks, so [d′ − d, vⱼ] = 0 forces every aᵢ = 0 over Q[a]:
    uniqueness holds among all odd elements.

    The closed form is verified over the coefficient ring, not assumed:
    [d, vⱼ] = 0 for each generator, and d² is the scalar s·det(q), with the
    sign s recorded; a failure raises CentralElementError.  The ansatz
    solve this replaces is the oracle in tests/conftest.py."""
    if alg.ngens != 3:
        raise ValueError("central_odd works on a 3-generator block")
    q = alg.q_plus
    if all(q[i, j].is_zero() for i in range(3) for j in range(3)):
        raise CentralElementError("zero block has no central element")
    r = (q[1, 2], -q[0, 2], q[0, 1])
    gens = [alg.gen(j) for j in range(3)]
    d = alg.from_mask(0b111) + sum((g * rj for rj, g in zip(r, gens)), alg.zero())
    for j, g in enumerate(gens):
        if not d.commutator(g).is_zero():
            raise CentralElementError(f"d does not commute with v{j + 1}")
    sq = d * d
    if not sq.is_scalar():
        raise CentralElementError("d² is not scalar")
    square, det = sq.scalar_part(), q.det()
    if square not in (det, -det):
        raise CentralElementError("d² is not ±det(q)")
    sign = 1 if square == det else -1
    return CentralOddResult(element=d, sign=sign, square=square, det=det,
                            r_coeffs=r)


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


def lift_swapped(e, target):
    """σ(e) on the minus block of target, for e on the generic plus side:
    σ = swap_blocks carries the plus side to the minus side
    (verify_tensor_product), so d₋ is lift_swapped(d₊)."""
    return lift(CliffordElement(e.alg, {m: swap_blocks(p) for m, p in e.coeffs.items()}),
                target, "minus")


# ---------------------------------------------------------------------------
# the commutant at an integer point
# ---------------------------------------------------------------------------

def commutant_basis(alg, point):
    """Kernel of the commutator matrix of alg at an integer point of its
    ring, as primitive integer vectors x with [Σ x_m e_m, v_j] = 0 there
    for every generator (`kernel_int_sparse`).  Its rows are indexed by
    (generator, mask), its columns by mask, and its entries are the
    structure constants of e_m·v_j − v_j·e_m at the point: C specialized
    (prop3.13 passes the generic engine at a₀ = (q₊(u₀), q₋(u₀))).  e_m·v_j is
    the normal-form step `_mask_times_gen` already caches, so only v_j·e_m
    goes through `mask_mul`.  Each vector's top nonzero mask is a distinct
    free column of the elimination."""
    value = evaluator(point)
    rows = {}
    for mask in range(1 << alg.ngens):
        for g in range(alg.ngens):
            gbit = 1 << g
            for sign, terms in ((1, alg._mask_times_gen(mask, g)),
                                (-1, alg.mask_mul(gbit, mask))):
                for m2, poly in terms:
                    v = as_int(value(poly))
                    if type(v) is not int:
                        raise ValueError("non-integer structure constant")
                    row = rows.setdefault((g, m2), {})
                    row[mask] = row.get(mask, 0) + sign * v
    return kernel_int_sparse(list(rows.values()), 1 << alg.ngens)


# ---------------------------------------------------------------------------
# defining relations and their bigrading
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
