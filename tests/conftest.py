from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, prod
from types import SimpleNamespace

import pytest

from quadclif import geometry
from quadclif.checks import SCAN_PRIMES, noted
from quadclif.clifford import (
    CentralElementError,
    CentralOddResult,
    CliffordAlgebra,
    CliffordElement,
    central_odd,
    defining_relations,
    phi_exponent,
)
from quadclif import plucker
from quadclif.exactalg import (
    ZZ,
    MultiPoly,
    PolyRing,
    SymMatrix,
    adjugate3,
    as_int,
    bareiss_det,
    det_cofactor,
    evaluator,
    int_coeffs,
    is_prime,
    kernel_int_sparse,
    mat_kernel,
    mat_rank,
    mat_solve,
    rref,
    span_coords,
    span_residual,
)
from quadclif.fiber import (
    EVEN_MASKS,
    ODD_MASKS,
    FiberError,
    FinAlg,
    QuadraticTower,
    _char_ok,
    center_basis,
    corner_algebra,
    radical_dim,
    side_fiber,
)
from quadclif.geometry import ReducedCurve, _zero_set, compile_poly
from quadclif.pencil import (
    U_VARS,
    URING,
    InvariantPencil,
    _derived_rng,
    _random_sym3,
    binary_resultant,
    generate,
)
from quadclif.plucker import A_VARS, W_CANDIDATES


class RationalField:
    """The rationals, with Fraction elements: the oracle field of the
    tests, which read the identities over Q that `src/` proves over
    `exactalg.ZZ`; `src/` builds none."""

    name = "Q"
    zero = Fraction(0)
    one = Fraction(1)
    characteristic = 0

    @staticmethod
    def coerce(x):
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int) or isinstance(x, str):
            return Fraction(x)
        raise TypeError(f"cannot coerce {x!r} into Q")

    def __repr__(self):
        return "QQ"


QQ = RationalField()


class FpElem:
    """Residue in a prime field; the modulus travels with the element."""

    __slots__ = ("r", "p")

    def __init__(self, r, p):
        self.r = r % p
        self.p = p

    def _match(self, other):
        if isinstance(other, FpElem):
            if other.p != self.p:
                raise ValueError("mixed moduli %d and %d" % (self.p, other.p))
            return other.r
        if isinstance(other, int):
            return other % self.p
        if isinstance(other, Fraction):
            den = other.denominator % self.p
            if den == 0:
                raise ZeroDivisionError("denominator vanishes mod %d" % self.p)
            return other.numerator * pow(den, self.p - 2, self.p)
        raise TypeError(f"cannot combine {other!r} with F_{self.p}")

    def __add__(self, other):
        return FpElem(self.r + self._match(other), self.p)

    __radd__ = __add__

    def __sub__(self, other):
        return FpElem(self.r - self._match(other), self.p)

    def __rsub__(self, other):
        return FpElem(self._match(other) - self.r, self.p)

    def __neg__(self):
        return FpElem(-self.r, self.p)

    def __mul__(self, other):
        return FpElem(self.r * self._match(other), self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._match(other)
        if o % self.p == 0:
            raise ZeroDivisionError("division by zero in F_%d" % self.p)
        return FpElem(self.r * pow(o, self.p - 2, self.p), self.p)

    def __rtruediv__(self, other):
        return FpElem(self._match(other), self.p) / self

    def __eq__(self, other):
        if isinstance(other, (FpElem, int)):
            try:
                return (self.r - self._match(other)) % self.p == 0
            except ValueError:
                return False
        return NotImplemented

    def __hash__(self):
        return hash((self.r, self.p))

    def __bool__(self):
        return self.r % self.p != 0

    def __repr__(self):
        return f"{self.r}#{self.p}"


class PrimeField:
    """F_p, the test field of the modular oracles; `src/` builds none.
    Its characteristic is p, which `fiber._char_ok` reads."""

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = self.characteristic = p
        self.name = f"F{p}"
        self.zero = FpElem(0, p)
        self.one = FpElem(1, p)

    def coerce(self, x):
        if isinstance(x, FpElem):
            if x.p != self.p:
                raise ValueError("element of wrong prime field")
            return x
        if isinstance(x, int):
            return FpElem(x, self.p)
        if isinstance(x, Fraction):
            return FpElem(0, self.p) + x
        raise TypeError(f"cannot coerce {x!r} into F_{self.p}")

    def __repr__(self):
        return f"GF({self.p})"


class GaussianRational:
    """Element a + b*i of Q(i)."""

    __slots__ = ("re", "im")

    def __init__(self, re, im=QQ.zero):
        self.re = re if type(re) is Fraction else Fraction(re)
        self.im = im if type(im) is Fraction else Fraction(im)

    def __add__(self, other):
        other = QQI.coerce(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = QQI.coerce(other)
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return QQI.coerce(other) - self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other):
        other = QQI.coerce(other)
        if not (self.im or other.im):
            return GaussianRational(self.re * other.re)
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = QQI.coerce(other)
        n = other.re * other.re + other.im * other.im
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(i)")
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
        )

    def __eq__(self, other):
        try:
            other = QQI.coerce(other)
        except TypeError:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __repr__(self):
        if not self.im:
            return str(self.re)
        return f"({self.re}+{self.im}i)"


class GaussianField:
    """Q(i), used where an exact square root of -1 is required."""

    name = "Q(i)"
    characteristic = 0
    zero = GaussianRational(0)
    one = GaussianRational(1)
    i = GaussianRational(0, 1)

    @staticmethod
    def coerce(x):
        if isinstance(x, GaussianRational):
            return x
        if isinstance(x, (int, Fraction)):
            return GaussianRational(x)
        raise TypeError(f"cannot coerce {x!r} into Q(i)")

    def __repr__(self):
        return "QQI"


QQI = GaussianField()


def fp_sqrt(x):
    """A square root of the prime-field element x by scan, or None; the
    fields used here are small."""
    return next((FpElem(r, x.p) for r in range(x.p // 2 + 1)
                 if (r * r - x.r) % x.p == 0), None)


_CACHE = {}


def cached_pencil(seed, bound=5):
    key = (seed, bound)
    if key not in _CACHE:
        _CACHE[key] = generate(seed, bound)
    return _CACHE[key]


# Two q_plus for the seed-42 instance that F_p scans alone judge wrongly:
# f₊ = u1·(u1u2 − 29u2² − u3²) is singular at (0 : 1 : ±√−29), where the
# block has corank 2, and no scan at 101, 103 or 107 sees it, since −29 is
# a non-residue mod each; and a smooth f₊ with a singular point mod 101,
# which divides its discriminant.
SINGULAR_OFF_FP_Q_PLUS = (((1, 0, 0), (0, 0, 0), (0, 0, 1)),
                          ((0, 0, 0), (0, 1, 0), (0, 0, -29)),
                          ((0, 0, 0), (0, 0, 1), (0, 1, 0)))
BAD_REDUCTION_Q_PLUS = (((3, -2, 2), (-2, 1, 1), (2, 1, 2)),
                        ((3, 3, -3), (3, -1, -3), (-3, -3, 3)),
                        ((-3, -2, -2), (-2, -1, -1), (-2, -1, -2)))


def _times_101(m):
    return tuple(tuple(101 * x for x in r) for r in m)


# Two more q_plus for the seed-42 instance whose reduction mod 101 breaks
# the scans while Δ₊ ≠ 0: every matrix times 101, the same net, so f₊ is
# 101³ times the seed-42 cubic and vanishes mod 101; and only the first
# times 101, so f₊ mod 101 has no u1 and ∂f₊/∂u1 vanishes mod 101.
SCALED_Q_PLUS = tuple(_times_101(m) for m in cached_pencil(42).q_plus)
VANISHING_PARTIAL_Q_PLUS = ((_times_101(cached_pencil(42).q_plus[0]),)
                            + cached_pencil(42).q_plus[1:])


def with_q_plus(q_plus):
    """The seed-42 instance with its q_plus replaced."""
    bound = max(abs(x) for m in q_plus for r in m for x in r)
    return InvariantPencil(q_plus=q_plus, q_minus=cached_pencil(42).q_minus,
                           seed=42, coeff_bound=max(bound, 5))


def reduced_curve(P, side, p):
    """One side's determinant cubic of P reduced mod p, with its blocks."""
    return ReducedCurve(P.det_curves().side(side), P.side_mats(side), p)


def bare_curve(f, p):
    """A bare polynomial reduced mod p, with the attributes the
    compiled-gradient scans read (f, p, compiled, points), for curves that
    have no blocks."""
    compiled = compile_poly(f, p)
    return SimpleNamespace(f=f, p=p, compiled=compiled,
                           points=tuple(_zero_set(compiled, p)))


def seeded_pencil(i):
    """A random small pencil, generic or not, for the resultant oracles."""
    rng = _derived_rng("resultant-oracle", i)
    bound = 1 + i % 2
    return InvariantPencil(
        q_plus=tuple(_random_sym3(rng, bound) for _ in range(3)),
        q_minus=tuple(_random_sym3(rng, bound) for _ in range(3)),
        seed=i, coeff_bound=bound)


# -- MultiPoly elimination: the oracle for the integer resultant route ----------


def total_degree(f):
    return max((sum(e) for e in f.terms), default=-1)


def degree_in(f, name):
    i = f.ring.vars.index(name)
    return max((e[i] for e in f.terms), default=-1)


def poly_exact_div(f, g):
    """Exact division f/g; raises ValueError if g does not divide f."""
    if g.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    ring = f.ring
    q = ring.zero()
    r = f
    ge, gc = g.leading_term()
    while not r.is_zero():
        re, rc = r.leading_term()
        de = tuple(a - b for a, b in zip(re, ge))
        if any(d < 0 for d in de):
            raise ValueError("inexact polynomial division")
        if isinstance(rc, int):  # over Z, whose elements have no division
            qc, rem = divmod(rc, gc)
            if rem:
                raise ValueError("inexact polynomial division")
        else:
            qc = rc / gc
        t = ring.from_terms([(de, qc)])
        q = q + t
        r = r - t * g
    return q


def poly_bareiss_det(rows, ring):
    """Fraction-free determinant of a square matrix of MultiPoly."""
    n = len(rows)
    m = [list(r) for r in rows]
    sign = 1
    prev = ring.one()
    for k in range(n - 1):
        if m[k][k].is_zero():
            swap = next((i for i in range(k + 1, n) if not m[i][k].is_zero()), None)
            if swap is None:
                return ring.zero()
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = poly_exact_div(m[i][j] * m[k][k] - m[i][k] * m[k][j], prev)
            m[i][k] = ring.zero()
        prev = m[k][k]
    d = m[n - 1][n - 1]
    return d if sign > 0 else -d


def coeff_of_power(f, name, k):
    """Coefficient of name**k, kept in the same ring with exponent zeroed."""
    i = f.ring.vars.index(name)
    out = {}
    for e, c in f.terms.items():
        if e[i] == k:
            e2 = e[:i] + (0,) + e[i + 1:]
            out[e2] = out.get(e2, f.ring.field.zero) + c
    return MultiPoly(f.ring, {e: c for e, c in out.items() if c})


def poly_sylvester_resultant(f, g, name):
    """Resultant of f and g with respect to the variable `name`, via the
    Sylvester matrix in their actual degrees and Bareiss elimination over
    MultiPoly.  Errors on zero input."""
    if f.is_zero() or g.is_zero():
        raise ValueError("resultant of the zero polynomial")
    ring = f.ring
    dm, dn = degree_in(f, name), degree_in(g, name)
    if dm == 0 and dn == 0:
        return ring.one()
    if dm == 0:
        return f ** dn
    if dn == 0:
        return g ** dm
    fc = [coeff_of_power(f, name, k) for k in range(dm, -1, -1)]
    gc = [coeff_of_power(g, name, k) for k in range(dn, -1, -1)]
    size = dm + dn
    rows = []
    for coeffs, count in ((fc, dn), (gc, dm)):
        for s in range(count):
            row = [ring.zero()] * size
            for k, c in enumerate(coeffs):
                row[s + k] = c
            rows.append(row)
    return poly_bareiss_det(rows, ring)


def sylvester_resultant_by_bareiss(f, g):
    """Res(f, g) of integer coefficient lists [c0, ..., cd] (nonzero last
    entries) as the Bareiss determinant of their (m + n)-square Sylvester
    matrix: the oracle for exactalg.sylvester_resultant's Bézout route."""
    f, g = int_coeffs(f), int_coeffs(g)
    m, n = len(f) - 1, len(g) - 1
    rows = [[0] * s + f[::-1] + [0] * (n - 1 - s) for s in range(n)]
    rows += [[0] * s + g[::-1] + [0] * (m - 1 - s) for s in range(m)]
    return bareiss_det(rows)


def as_univariate(f, name):
    """Dense coefficient list [c0..cd] of a polynomial univariate in `name`;
    raises if any other variable occurs."""
    i = f.ring.vars.index(name)
    d = max((e[i] for e in f.terms), default=0)
    coeffs = [f.ring.field.zero] * (d + 1)
    for e, c in f.terms.items():
        if any(k != 0 for j, k in enumerate(e) if j != i):
            raise ValueError("polynomial is not univariate in " + name)
        coeffs[e[i]] = coeffs[e[i]] + c
    while len(coeffs) > 1 and not coeffs[-1]:
        coeffs.pop()
    return coeffs


# -- the two-path squarefree test and the seeded projection centers: the ----
# -- oracles for exactalg.squarefree_univariate and pencil.CENTERS -----------


def gcd_with_derivative(h, field):
    """Monic Euclidean gcd of h and h′ over a field, h a dense coefficient
    list [c0..cd]."""

    def strip(v):
        v = list(v)
        while v and not v[-1]:
            v.pop()
        return v

    def rem(u, v):
        u = list(u)
        dv = len(v) - 1
        inv_lead = field.one / v[-1]
        while len(u) - 1 >= dv and u:
            if not u[-1]:
                u.pop()
                continue
            q = u[-1] * inv_lead
            shift = len(u) - 1 - dv
            for k in range(dv + 1):
                u[shift + k] = u[shift + k] - q * v[k]
            u = strip(u)
        return u

    a, b = strip(h), strip([c * k for k, c in enumerate(h)][1:])
    while b:
        a, b = b, rem(a, b)
    if a:
        inv = field.one / a[-1]
        a = [c * inv for c in a]
    return a


# The mod-p certificate uses the first that does not divide lc(h).
SQUAREFREE_FIELDS = tuple(PrimeField(p) for p in (1000003, 1000033, 1000037))


def squarefree_by_gcd(coeffs):
    """(is_squarefree, gcd(h, h′)) for h = Σ coeffs[k]·tᵏ in Z[t], nonzero,
    the gcd monic over Q: the two-path test that squarefree_univariate
    replaced.  h is first reduced mod the first p in SQUAREFREE_FIELDS with
    p ∤ lc(h); a constant gcd(h̄, h̄′) there certifies h squarefree over Q,
    by Gauss's lemma (a square factor g² of h, g primitive in Z[t], keeps
    p ∤ lc(g) and survives mod p).  Otherwise the Euclidean gcd over Q
    decides."""
    h = int_coeffs(coeffs)
    while h and not h[-1]:
        h.pop()
    if not h:
        raise ValueError("squarefreeness of the zero polynomial")
    field = next((F for F in SQUAREFREE_FIELDS if h[-1] % F.p), None)
    if field is not None and len(gcd_with_derivative(
            [FpElem(c, field.p) for c in h], field)) == 1:
        return True, [QQ.one]
    g = gcd_with_derivative([Fraction(c) for c in h], QQ)
    return len(g) == 1, g


def coordinate_change(f, mat):
    """f(M·u) for an integer matrix M acting on the column of variables,
    by evaluation at the polynomial point M·u."""
    ring = f.ring
    u = [ring.var(v) for v in ring.vars]
    images = []
    for i in range(len(ring.vars)):
        acc = ring.zero()
        for j in range(3):
            if mat[i][j]:
                acc = acc + u[j] * mat[i][j]
        images.append(acc)
    return ring.zero() + evaluator(images)(f)


def random_gl3(rng):
    """A seeded invertible integer 3×3 matrix with entries in [−3, 3]."""
    while True:
        m = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
        if mat_rank([[Fraction(x) for x in r] for r in m]) == 3:
            return m


def center_matrix(center):
    """M = [[1, 0, c₁], [0, 1, c₂], [0, 0, c₃]], the coordinate change with
    which pencil.binary_resultant projects from the center c."""
    c1, c2, c3 = center
    return [[1, 0, c1], [0, 1, c2], [0, 0, c3]]


def seeded_resultant_nine_points(f_plus, f_minus, rng):
    """(nine_points, degree, notes) by the seeded route that fixed centers
    replaced: (0:0:1) first, then up to five seeded random GL₃ changes of
    coordinates, each the resultant at (0:0:1) of the moved cubics and the
    two-path squarefree test.  The moves and notes follow the same rules as
    pencil.resultant_nine_points."""
    notes = []
    fp, fm = f_plus, f_minus
    degree = -1
    for attempt in range(6):
        if attempt:
            M = random_gl3(rng)
            fp, fm = coordinate_change(f_plus, M), coordinate_change(f_minus, M)
            notes.append(f"coordinate change ({reason})")
        value = evaluator([0, 0, 1])
        if not (value(fp) and value(fm)):
            reason = "projection center on a curve"
            continue
        h = binary_resultant(fp, fm, (0, 0, 1))
        if not any(h):
            return False, -1, tuple(notes + ["resultant identically zero"])
        while not h[-1]:
            h.pop()
        if len(h) >= 9 and squarefree_by_gcd(h)[0]:
            return True, 9, tuple(notes)
        degree, reason = 9, "resultant not squarefree"
    if degree < 0:
        notes.append("no usable projection center")
    return False, degree, tuple(notes)


def flip_step(monkeypatch, variant, bad):
    """Negate the engine's normal form of e_mask·v_j on one (mask, j) of
    one variant, or of each variant in a tuple: the sign-broken engine."""
    orig = CliffordAlgebra._mask_times_gen
    variants = (variant,) if isinstance(variant, str) else variant

    def broken(self, mask, j):
        res = orig(self, mask, j)
        if self.variant in variants and (mask, j) == bad:
            res = tuple((m, -c) for m, c in res)
        return res

    monkeypatch.setattr(CliffordAlgebra, "_mask_times_gen", broken)


def flip_six_generator_step(monkeypatch, bad):
    """flip_step on both six-generator engines alike (ngens == 6), the
    side engines intact: the two tables still agree with each other up to
    the cross sign, so only the tensor-product certificate sees it."""
    flip_step(monkeypatch, ("ordinary", "super"), bad)


@dataclass(frozen=True)
class CentralPair:
    d_plus: CliffordElement
    d_minus: CliffordElement
    squares: tuple
    sign: int


def central_pair(rp, rm):
    """The odd central elements of the plus and minus blocks, from their
    CentralOddResults, which must realize one sign."""
    if rp.sign != rm.sign:
        raise CentralElementError("the two blocks realize different signs")
    return CentralPair(d_plus=rp.element, d_minus=rm.element,
                       squares=(rp.square, rm.square), sign=rp.sign)


def central_odd_pencil(P, side):
    """The CentralOddResult of one block of P over Z[u]."""
    return central_odd(from_pencil(P, side))


def central_odd_by_ansatz(alg):
    """The oracle for central_odd's closed form: solve [d, v_i] = 0 for
    d = v1 v2 v3 + r1 v1 + r2 v2 + r3 v3 with the r_i drawn from the span
    of the monomials present in the block, by exact linear algebra with
    uniqueness enforced, then verify d² = s·det(q) and record the sign s."""
    if alg.ngens != 3:
        raise ValueError("central_odd works on a 3-generator block")
    ring = alg.ring
    q = alg.q_plus if alg.variant == "plus" else alg.q_minus
    monos = sorted({e for i in range(3) for j in range(3)
                    for e in q[i, j].terms})
    if not monos:
        raise CentralElementError("zero block has no central element")
    unknowns = [(j, mexp) for j in range(3) for mexp in monos]

    top = alg.from_mask(0b111)
    gens = [alg.gen(j) for j in range(3)]
    base_comm = [top.commutator(g) for g in gens]
    gen_comm = [[alg.gen(j).commutator(g) for g in gens] for j in range(3)]

    rows_by_key = {}
    rhs_by_key = {}

    def add(key, col, c):
        row = rows_by_key.setdefault(key, {})
        row[col] = row.get(col, Fraction(0)) + c

    for gi in range(3):
        for mask, poly in base_comm[gi].coeffs.items():
            for pexp, c in poly.terms.items():
                key = (gi, mask, pexp)
                rhs_by_key[key] = rhs_by_key.get(key, Fraction(0)) + c
                rows_by_key.setdefault(key, {})
        for col, (j, mexp) in enumerate(unknowns):
            for mask, poly in gen_comm[j][gi].coeffs.items():
                for pexp, c in poly.terms.items():
                    key = (gi, mask, tuple(a + b for a, b in zip(pexp, mexp)))
                    add(key, col, c)
                    rhs_by_key.setdefault(key, Fraction(0))

    keys = sorted(rows_by_key)
    matrix = [[rows_by_key[k].get(col, Fraction(0)) for col in range(len(unknowns))]
              for k in keys]
    rhs = [-rhs_by_key.get(k, Fraction(0)) for k in keys]
    try:
        sol = mat_solve(matrix, rhs, QQ)
    except ValueError as exc:
        raise CentralElementError(f"central ansatz not unique: {exc}") from exc
    if sol is None:
        raise CentralElementError("central ansatz inconsistent")

    r = []
    for j in range(3):
        terms = []
        for col, (jj, mexp) in enumerate(unknowns):
            if jj == j and sol[col]:
                terms.append((mexp, sol[col]))
        r.append(ring.from_terms(terms))
    d = top + sum((r[j] * gens[j] for j in range(3)), alg.zero())
    for g in gens:
        if not d.commutator(g).is_zero():
            raise CentralElementError("solver output fails to commute")
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
                            r_coeffs=tuple(r))


def _monomials_of_degree(d):
    out = []
    for a in range(d + 1):
        for b in range(d - a + 1):
            out.append((a, b, d - a - b))
    return sorted(out)


def commutant_basis_by_weight(alg, D):
    """The oracle for the center check: per-weight bases of
    { z : [z, v_j] = 0 for every generator }, weights 0..D, via an exact
    integer kernel on (mask, monomial) coordinates.  Returns a list
    indexed by weight."""
    if D > 8:
        raise ValueError("degree bound capped at 8")
    out = []
    for n in range(D + 1):
        unknowns = []
        for mask in range(1 << alg.ngens):
            k = bin(mask).count("1")
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
                    acc = acc + alg.from_mask(mask, alg.ring.from_terms([(mexp, v)]))
            elems.append(acc)
        out.append(elems)
    return out


def commutant_dims(alg, D):
    return [len(b) for b in commutant_basis_by_weight(alg, D)]


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


# -- the per-instance engines over Z[u]: the oracle of the generic engine ------


def linear_form_matrix(P, side):
    """3×3 symmetric matrix of linear forms Σ uₖ q[k] over Z[u], built
    entry by entry from the integer blocks."""
    mats = P.side_mats(side)
    u = [URING.var(v) for v in URING.vars]
    rows = []
    for i in range(3):
        row = []
        for j in range(3):
            acc = URING.zero()
            for k in range(3):
                if mats[k][i][j]:
                    acc = acc + u[k] * mats[k][i][j]
            row.append(acc)
        rows.append(row)
    return SymMatrix(URING, rows)


def _engine(variant, block):
    """The engine of `variant` on the blocks block("plus"), block("minus");
    "plus" and "minus" name the three-generator engine ("plus" variant) on
    that one block."""
    if variant in ("plus", "minus"):
        return "plus", block(variant), None
    return variant, block("plus"), block("minus")


def from_pencil(P, variant):
    """The engine of P's own blocks over Z[u] (pencil.URING), the oracle
    of CliffordAlgebra.generic; "minus" is the three-generator engine on
    the minus block.  The normal form uses only ring operations on the
    block entries, so every structure constant of the generic engine is an
    integer polynomial in a and b, and this engine's are its images under
    the ring map a ↦ q₊(u), b ↦ q₋(u); the generic identities then hold
    here, over Q[u] and at every point.  test_clifford compares the two
    term for term."""
    variant, qp, qm = _engine(variant, lambda side: linear_form_matrix(P, side))
    return CliffordAlgebra(URING, variant, q_plus=qp, q_minus=qm)


def linear_form_matrix_over(P, side, ring):
    """linear_form_matrix(P, side), the integer linear forms Σ uₖ q[k],
    read over `ring`, a PolyRing in U_VARS, instead of Z[u]."""
    return SymMatrix(ring, [[ring.from_terms(e.terms.items()) for e in row]
                            for row in linear_form_matrix(P, side).rows])


def clifford_over(P, variant, field):
    """from_pencil(P, variant) read over field[u] instead of Z[u]: the
    same integer blocks, as linear forms over `field`."""
    ring = PolyRing(field, U_VARS)
    variant, qp, qm = _engine(
        variant, lambda side: linear_form_matrix_over(P, side, ring))
    return CliffordAlgebra(ring, variant, q_plus=qp, q_minus=qm)


def verify_tensor_product_of(alg, plus, minus):
    """The two-sided form of CliffordAlgebra.verify_tensor_product for
    engines over any ring: alg is proven the tensor product of the side
    engines plus and minus (each a three-generator engine, on alg's
    q_plus and q_minus), or ValueError names the first step that fails,
    with the messages of the generic certificate.  (P) is checked on both
    sides, and (T₋) compares with the minus engine's own steps where the
    generic certificate applies a ↔ b to the plus side's."""
    if (alg.ngens != 6 or (plus.variant, minus.variant) != ("plus", "plus")
            or (plus.q_plus, minus.q_plus) != (alg.q_plus, alg.q_minus)):
        raise ValueError("the sides must be the two blocks of a six-generator engine")
    for side in (plus, minus):
        for m in range(8):
            for j in range(3):
                if any(m2 >> 3 or popcount(m2 ^ m) % 2 != 1
                       for m2, _ in side._mask_times_gen(m, j)):
                    raise ValueError(f"the {'plus' if side is plus else 'minus'} "
                                     f"step e_{m}·v_{j} does not change parity by one")
    for m in range(64):
        mp, mm = m & 0b111, m >> 3
        sign = alg.cross_sign ** popcount(mm)
        for j in range(6):
            if j < 3:
                want = tuple((m2 | mm << 3, c * sign)
                             for m2, c in plus._mask_times_gen(mp, j))
            else:
                want = tuple((mp | m2 << 3, c)
                             for m2, c in minus._mask_times_gen(mm, j - 3))
            if alg._mask_times_gen(m, j) != want:
                raise ValueError(
                    f"tensor product fails on the {alg.variant} step e_{m}·v_{j}")
    return True


def structure_terms(alg):
    """mask_mul(a, b) for every pair of masks, indexed [a][b], with each
    coefficient polynomial as a tuple of (exponents, coefficient) terms and
    the integral coefficients as ints: the table clifford_fiber evaluates,
    comparable across coefficient rings."""
    n = 1 << alg.ngens
    return [[tuple((mask, tuple((e, as_int(c)) for e, c in poly.terms.items()))
                   for mask, poly in alg.mask_mul(a, b))
             for b in range(n)] for a in range(n)]


def element_vector(e, u, field):
    """The coordinates over field of the Clifford element e at the point u
    of its ring (exactalg.evaluator), as one fiber vector."""
    value = evaluator(u)
    return tuple(field.coerce(value(e.coeffs[m])) if m in e.coeffs else field.zero
                 for m in range(1 << e.alg.ngens))


def phi_pair(P):
    """(super, ordinary) algebras over Q(i)[u] for the same pencil."""
    return (clifford_over(P, "super", QQI), clifford_over(P, "ordinary", QQI))


def popcount(m):
    return bin(m).count("1")


def phi_failing_pairs(sup, target, exponent=phi_exponent):
    """Even mask pairs [a, b] on which e_m ↦ i^exponent(m)·e_m fails to be
    multiplicative, read off the structure constants over Z[u] or Q[u].

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
    if target.ring != sup.ring or sup.ring.field not in (ZZ, QQ):
        raise ValueError("structure constants must share a rational ring")
    zero = sup.ring.zero()
    even = [m for m in range(1 << sup.ngens) if popcount(m) % 2 == 0]
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
    return popcount(mask & 0b000111) % 2, popcount(mask & 0b111000) % 2


def phi_sign_rule_failures(exponent=phi_exponent):
    """Even mask pairs [a, b] on which the sign twist between the super
    and ordinary engines does not by itself make e_m ↦ i^exponent(m)·e_m
    multiplicative.

    By `phi_failing_pairs` the pair is good iff c^sup_m = i^δ c^ord_m for
    every mask m of the product, δ = ε(a)+ε(b)-ε(m) mod 4.  When both
    engines pass `CliffordAlgebra.verify_tensor_product` against the same
    sides, with cross signs −1 and +1, each product is
    ±(e_a₊·e_b₊) ⊗ (e_a₋·e_b₋), so c^sup_m = (-1)^(|a₋|·|b₊|) c^ord_m, and
    by (P) every m lies in the block-parity class of a ⊕ b.  So it
    suffices that i^δ = (-1)^(|a₋|·|b₊|) for every m in that class.  For
    `phi_exponent` this always holds: for even a, |a₋| ≡ |a₊| = ε(a),
    and ε(m) ≡ ε(a)+ε(b), so δ = 2 exactly when ε(a) = ε(b) = 1, which is
    when the sign is -1: the rule prop3.9-phi reads.  The rule reads
    whole parity classes rather than the masks that occur, so a listed
    pair proves nothing; then `phi_failing_pairs` decides.
    """
    eps = [exponent(m) % 4 for m in range(64)]
    classes = {}
    for m in range(64):
        classes.setdefault(_block_parities(m), []).append(m)
    even = [m for m in range(64) if popcount(m) % 2 == 0]
    bad = []
    for a in even:
        for b in even:
            sign = 2 * (popcount(a & 0b111000) * popcount(b & 0b000111) % 2)
            if any((eps[a] + eps[b] - eps[m] - sign) % 4
                   for m in classes[_block_parities(a ^ b)]):
                bad.append([a, b])
    return bad


def phi_twist_failures(sup, target):
    """The oracle for the twist that prop3.9-phi reads off the two
    tensor-product certificates: generator steps (m, j) on which the super
    engine is not the ordinary one up to its cross-block swap signs.
    Every mask m < 64 and generator j < 6 must satisfy

    (T) sup._mask_times_gen(m, j) is target._mask_times_gen(m, j) with
        every coefficient multiplied by (-1)^(|m₋|·[j ∈ plus]);
    (P) every output mask m' has |m'₊| ≡ |m₊| + [j ∈ plus] and
        |m'₋| ≡ |m₋| + [j ∈ minus] (mod 2).

    An empty list proves sup.mask_mul(a, b) = (-1)^(|a₋|·|b₊|) ·
    target.mask_mul(a, b) term by term for all masks a, b, every mask of
    the product lying in the block-parity class of a ⊕ b, by induction
    over the generator steps of mask_mul, plus generators first."""
    if sup.variant != "super" or target.variant != "ordinary":
        raise ValueError("phi maps the super variant onto the ordinary one")
    if target.ring != sup.ring:
        raise ValueError("the two engines must share the coefficient ring")
    bad = []
    for m in range(1 << sup.ngens):
        for j in range(sup.ngens):
            flip = bin(m & sup.minus_mask).count("1") % 2 and not sup.gen_parity(j)
            want = tuple((m2, -c if flip else c)
                         for m2, c in target._mask_times_gen(m, j))
            parity = _block_parities(m ^ (1 << j))
            if (sup._mask_times_gen(m, j) != want
                    or any(_block_parities(m2) != parity for m2, _ in want)):
                bad.append((m, j))
    return bad


def action_scales_relation(alg, terms, s, lam):
    """The oracle for prop3.19-equivariance: apply the scaling action
    (generators pick up λ, the negated block also picks up s, base
    variables pick up λ²) and test that the relation transforms by one
    overall scalar, comparing cross-multiplied coefficients, so that over
    Z[u] nothing is divided."""
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
        if mu is None:
            mu = (ratio, c)  # the scalar ratio/c, never divided out
        if newpoly * mu[1] != poly * mu[0]:
            return False
    return True


def equivariance_check(alg):
    """True iff every defining relation of alg transforms by a single
    scalar under both components of the scaling action, tested at λ = 2."""
    return all(action_scales_relation(alg, terms, s, 2)
               for terms in defining_relations(alg) for s in (1, -1))


def is_homogeneous(poly):
    return len({sum(e) for e in poly.terms}) <= 1


@pytest.fixture(scope="session")
def pencil42():
    return cached_pencil(42)


@pytest.fixture(scope="session")
def pencil7():
    return cached_pencil(7)


# -- Macaulay's quotient: the oracle for pencil.ternary_quadric_resultant -------


DEGREE_4 = [(a, b, 4 - a - b) for a in range(4, -1, -1) for b in range(4 - a, -1, -1)]


def macaulay_matrix(q0, q1, q2):
    """(M, extraneous) for three ternary quadrics, as integer matrices:
    Macaulay's 15×15 matrix in degree 4, whose row for the monomial m is
    the coefficient row of (m / uᵢ²)·qᵢ with i the first index such that
    uᵢ² divides m, and its minor on the rows and columns of the three
    monomials that two of u1², u2², u3² divide (Cox, Little and O'Shea,
    *Using Algebraic Geometry*, GTM 185, Ch. 3 §4).  Res(q0, q1, q2) is
    det M / det extraneous whenever the minor is nonzero, and
    Res(u1², u2², u3²) = 1."""
    rows = []
    for m in DEGREE_4:
        i = next(k for k in range(3) if m[k] >= 2)
        shifted = tuple(e - 2 * (k == i) for k, e in enumerate(m))
        shift = URING.from_terms([(shifted, 1)])
        product = (shift * (q0, q1, q2)[i]).terms
        rows.append([int(product.get(col, 0)) for col in DEGREE_4])
    reduced = [k for k, m in enumerate(DEGREE_4) if sum(e >= 2 for e in m) >= 2]
    return rows, [[rows[i][j] for j in reduced] for i in reduced]


def macaulay_resultant(q0, q1, q2):
    """Res(q0, q1, q2) by Macaulay's quotient, or None where the
    extraneous minor vanishes."""
    M, extraneous = macaulay_matrix(q0, q1, q2)
    den = bareiss_det(extraneous)
    return Fraction(bareiss_det(M), den) if den else None


# -- brute-force evaluation: the oracle for geometry._zero_set -----------------


def proj_points(p):
    """Normalized representatives of P²(F_p): exactly p²+p+1 points, in
    the order the curve sweep visits them."""
    for a in range(p):
        for b in range(p):
            yield (1, a, b)
    for c in range(p):
        yield (0, 1, c)
    yield (0, 0, 1)


def zero_set_by_evaluation(compiled, p):
    """The points of P²(F_p) where the compiled polynomial (degree ≤ 3)
    vanishes, in enumeration order, by evaluating it term by term at every
    point, as eval_compiled does, from one table of powers."""
    pw = [(1, x, x * x % p, x * x * x % p) for x in range(p)]
    return [(x, y, z) for x, y, z in proj_points(p)
            if sum(c * pw[x][e1] * pw[y][e2] * pw[z][e3]
                   for (e1, e2, e3), c in compiled) % p == 0]


# -- compiled gradients and the full adjugate: the oracle for the curve pass --


def eval_compiled(terms, pt, p):
    """A compiled polynomial at a point, term by term."""
    acc = 0
    x, y, z = pt
    px = (1, x, x * x % p, x * x % p * x % p)
    py = (1, y, y * y % p, y * y % p * y % p)
    pz = (1, z, z * z % p, z * z % p * z % p)
    for (e1, e2, e3), c in terms:
        acc += c * px[e1] % p * py[e2] % p * pz[e3]
    return acc % p


def compiled_gradient(curve):
    """The partial derivatives of curve.f, each compiled mod p ([] for a
    zero one); ScanError if a nonzero one vanishes mod p."""
    f = curve.f
    return tuple(compile_poly(g, curve.p) if not g.is_zero() else []
                 for g in (f.derivative(v) for v in f.ring.vars))


def eval_gradient(grads, pt, p):
    return [eval_compiled(g, pt, p) if g else 0 for g in grads]


def scan_smooth_by_compiled_gradient(curve):
    """ff_scan_smooth by evaluating the compiled gradient at each point."""
    grads = compiled_gradient(curve)
    return [pt for pt in curve.points
            if all((not g) or eval_compiled(g, pt, curve.p) == 0 for g in grads)]


def scan_transversal_by_compiled_gradient(plus, minus):
    """ff_scan_transversal by evaluating f₋ at every point of E₊ and both
    compiled gradients at the common points."""
    p = plus.p
    gp, gm = compiled_gradient(plus), compiled_gradient(minus)
    bad = []
    for pt in plus.points:
        if eval_compiled(minus.compiled, pt, p) != 0:
            continue
        a, b = eval_gradient(gp, pt, p), eval_gradient(gm, pt, p)
        minors = (a[0] * b[1] - a[1] * b[0], a[0] * b[2] - a[2] * b[0],
                  a[1] * b[2] - a[2] * b[1])
        if all(m % p == 0 for m in minors):
            bad.append(pt)
    return bad


def det3_mod(m, p, adj):
    """det(m) mod p from the first column of its adjugate."""
    return (m[0][0] * adj[0][0] + m[0][1] * adj[1][0] + m[0][2] * adj[2][0]) % p


def rank_mod(m, p):
    """Rank over F_p of an integer matrix, by elimination."""
    return mat_rank([[FpElem(x, p) for x in row] for row in m])


def kernel_column_by_adjugate(P, side, pt, p):
    """The first column of adjugate3 of the reduced block at pt that is
    nonzero mod p (integers, not reduced), or None where it vanishes."""
    m = [[x % p for x in row] for row in P.block_at(pt, side)]
    adj = adjugate3(m)
    if det3_mod(m, p, adj):
        raise AssertionError(f"{pt} is not a curve point mod {p}")
    return next(((adj[0][j], adj[1][j], adj[2][j]) for j in range(3)
                 if adj[0][j] % p or adj[1][j] % p or adj[2][j] % p), None)


# -- the scan-augmented report: the oracle for the genericity checks' scans -----


def genericity_scans(ctx, report):
    """The exact report with the F_p scan witnesses of each of the
    SCAN_PRIMES appended, per prime: singular points or a curve vanishing
    mod p on each side, tangencies, and a max corank other than 1, each
    `noted` where it contradicts an exact verdict.  prop2.2-smoothness,
    prop2.2-transversality and def2.1-rank4 each print the witnesses of
    their kind, in this order.  A vanishing partial breaks only the
    gradient scans, so the corank scan runs on; a cubic that vanishes
    identically leaves nothing to scan."""
    if any(w["kind"] == "degenerate_determinant" for w in report.witnesses):
        return report
    smooth = {"plus": report.e_plus_smooth, "minus": report.e_minus_smooth}
    witnesses = list(report.witnesses)
    add = witnesses.append
    for p in SCAN_PRIMES:
        for side in ("plus", "minus"):
            claim = f"Delta_{side} != 0"
            try:
                bad = geometry.ff_scan_smooth(ctx.curve(side, p))
            except geometry.ScanError:
                add(noted({"kind": f"e_{side}_vanishes_mod_p", "prime": p,
                           "point": None}, smooth[side], claim))
                continue
            for pt in bad:
                add(noted({"kind": f"e_{side}_singular", "prime": p,
                           "point": list(pt)}, smooth[side], claim))
        try:
            tang = geometry.ff_scan_transversal(ctx.curve("plus", p),
                                                ctx.curve("minus", p))
        except geometry.ScanError:
            tang = ()
        for pt in tang:
            add(noted({"kind": "tangency", "prime": p, "point": list(pt)},
                      report.nine_points, "the resultant is squarefree"))
        try:
            mc = geometry.ff_scan_corank(ctx.curve("plus", p),
                                         ctx.curve("minus", p))
        except geometry.ScanError:
            mc = 3
        if mc != 1:
            add(noted({"kind": "corank", "prime": p, "point": None, "value": mc},
                      smooth["plus"] and smooth["minus"],
                      "Delta_plus * Delta_minus != 0"))
    return report._replace(witnesses=tuple(witnesses))


# -- the random rational curve point search: the oracle for the line walk -------


def divisors(n):
    n = abs(n)
    out = set()
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.add(d)
            out.add(n // d)
        d += 1
    return out


def rational_roots(coeffs):
    """Rational roots of Σ coeffs[k] t^k with integer coefficients.

    Each candidate n/d (n | constant term, d | leading coefficient) is
    tested by the integer Σ coeffs[k] n^k d^(deg-k) = d^deg·p(n/d), which
    vanishes exactly when n/d is a root; candidates are visited in a fixed
    order and each hit is listed, repeats included."""
    while coeffs and coeffs[-1] == 0:
        coeffs = coeffs[:-1]
    if not coeffs:
        return []
    roots = []
    if coeffs[0] == 0:
        roots.append(Fraction(0))
        while coeffs and coeffs[0] == 0:
            coeffs = coeffs[1:]
    if len(coeffs) <= 1:
        return roots
    deg = len(coeffs) - 1
    dens = divisors(coeffs[-1])
    # coeffs[k]·d^(deg-k), highest degree first, for each denominator d
    scaled = {d: [c * d ** (deg - k) for k, c in reversed(list(enumerate(coeffs)))]
              for d in dens}
    for num in divisors(coeffs[0]):
        for den in dens:
            terms = scaled[den]
            for n in (num, -num):
                acc = 0
                for c in terms:
                    acc = acc * n + c
                if acc == 0:
                    roots.append(Fraction(n, den))
    return roots


def random_rational_curve_point(P, side, rng):
    """A rational point of corank one on one determinant cubic, searched
    on 200 random integer lines by their rational roots; None if the
    budget runs out (a genus-one curve may have no rational point).  The
    search the exact line walk (fiber.cubic_section_point) replaced."""
    from math import gcd, lcm

    f = P.det_curves().side(side)
    terms = [(exps, int(c)) for exps, c in f.terms.items()]
    for _ in range(200):
        base = tuple(rng.randint(-4, 4) for _ in range(3))
        dirv = tuple(rng.randint(-4, 4) for _ in range(3))
        if not any(dirv):
            continue
        # restrict to the line base + t·dir: a univariate integer cubic
        coeffs = [0, 0, 0, 0]
        for exps, c in terms:
            poly_t = [c]
            for i, e in enumerate(exps):
                for _ in range(e):
                    nxt = [0] * (len(poly_t) + 1)
                    for k, a in enumerate(poly_t):
                        nxt[k] += a * base[i]
                        nxt[k + 1] += a * dirv[i]
                    poly_t = nxt
            for k, a in enumerate(poly_t):
                coeffs[k] += a
        if not any(coeffs):
            continue
        for t in rational_roots(coeffs):
            u = tuple(Fraction(b) + t * d for b, d in zip(base, dirv))
            if not any(u):
                continue
            den_lcm = lcm(*(c.denominator for c in u))
            uz = tuple(int(c * den_lcm) for c in u)
            uz = tuple(c // gcd(*uz) for c in uz)
            if evaluator(uz)(f) != 0:
                continue
            if any(x for row in adjugate3(P.block_at(uz, side)) for x in row):
                return uz
    return None


# ---------------------------------------------------------------------------
# matrix-algebra certification of a table, and the per-point corank-1 route
# (the oracle of fiber.corank1_quotient's identities over Z[u])
# ---------------------------------------------------------------------------

def center_dim(A):
    """Dimension of the center, from center_basis."""
    return len(center_basis(A))


def certify_matrix_algebra(A, n):
    """Verdict 'M{n}' when A has dimension n², zero radical, and trivial
    center: a form of rank n² that becomes the full matrix algebra after
    any base change splitting it (the certificate is closure-level).  A
    declared tensor product is read off its factors."""
    return certify_tensor_product(A.tensor_factors or (A,), n)


def certify_tensor_product(factors, n):
    """certify_matrix_algebra of (A₁ ⊗ … ⊗ A_k) ⊗ K, K any extension of the
    factors' field, without the product table: the trace-form Gram matrix
    of A ⊗ B is the Kronecker product of the factors' Grams, so its rank is
    the product of their ranks (dim − radical_dim); Z(A ⊗ B) = Z(A) ⊗ Z(B)
    over a field; and ranks and kernel dimensions do not change under
    field extension."""
    dim = prod(f.dim for f in factors)
    if dim != n * n:
        return f"fail:dim-{dim}"
    _char_ok(factors[0].field, dim)
    r = dim - prod(f.dim - radical_dim(f) for f in factors)
    if r:
        return f"fail:radical-{r}"
    c = prod(center_dim(f) for f in factors)
    if c != 1:
        return f"fail:center-{c}"
    return f"M{n}"


def _point(u):
    """u as a tuple of three coordinates, not all zero."""
    u = tuple(u)
    if len(u) != 3:
        raise ValueError("base points have three coordinates")
    if not any(u):
        raise ValueError("the zero point is not allowed")
    return u


def _det_value(P, side, u):
    return evaluator(u)(P.det_curves().side(side))


def corank1_quotient_at(ctx, side, u, field):
    """(Q, certify_matrix_algebra(Q, 2)) at one curve point u of corank
    one over field (QuadraticTower(()) for Q, a CubicField for a point of
    fiber.cubic_section_point, or F_p): the central odd vector squares to
    zero there, and Q is the quotient of the side fiber by the
    4-dimensional two-sided ideal it generates, checked on all basis
    triples.  The per-point route that fiber.corank1_quotient's identities
    replaced; it certifies the same radical quotient at u."""
    P = ctx.P
    uc = _point(u)
    fval = field.coerce(_det_value(P, side, uc))
    if fval:
        raise FiberError("the quotient only exists on the curve")
    # corank exactly one: the adjugate of the block must survive
    block = P.block_at(uc, side)
    adj = adjugate3([[field.coerce(x) for x in r] for r in block])
    if all(not x for row in adj for x in row):
        raise FiberError("corank at least two at this point")
    A, dvec = side_fiber(ctx, side, uc, field)
    if any(A.mul(dvec, dvec)):
        raise AssertionError("central element square must vanish on the curve")
    pivots, ideal = rref([A.mul(dvec, A.basis_vec(i)) for i in range(8)])
    if len(ideal) != 4:
        raise FiberError(f"ideal dimension {len(ideal)} instead of 4")
    for b in ideal:
        for i in range(8):
            if span_coords(pivots, ideal, A.mul(A.basis_vec(i), b)) is None:
                raise AssertionError("ideal is not left-stable")
            if span_coords(pivots, ideal, A.mul(b, A.basis_vec(i))) is None:
                raise AssertionError("ideal is not right-stable")
    complement = [i for i in range(8) if i not in pivots]

    def project(v):
        red = span_residual(pivots, ideal, v)
        return tuple(red[i] for i in complement)

    lifts = [A.basis_vec(i) for i in complement]
    table = [[project(A.mul(x, y)) for y in lifts] for x in lifts]
    Q = FinAlg(field, table, project(A.unit),
               gens=[project(g) for g in A.gens])
    Q.check_associativity()
    return Q, certify_matrix_algebra(Q, 2)


# ---------------------------------------------------------------------------
# the per-point even-part route of prop3.17 and prop3.18 (the oracle of the
# Gram-identity certificate, fiber.even_certificate)
# ---------------------------------------------------------------------------

def even_subalgebra(A):
    """C₀ = span(e_0, e_3, e_5, e_6) of an 8-dimensional Clifford fiber A
    that carries a proof.  The 16 products of even masks are checked to be
    even, so C₀ is a subalgebra holding A's unit, labelled "even" (this
    oracle's own provenance label).  A table without a proof raises
    ValueError: even_part proves A first."""
    if A.proof is None:
        raise ValueError("the even subalgebra needs a table with a proof")
    table = []
    for i in EVEN_MASKS:
        row = []
        for j in EVEN_MASKS:
            vec = A.table[i][j]
            if any(vec[k] for k in ODD_MASKS):
                raise ValueError("even masks are not closed under multiplication")
            row.append(tuple(vec[k] for k in EVEN_MASKS))
        table.append(row)
    return FinAlg(A.field, table, tuple(A.unit[k] for k in EVEN_MASKS),
                  proof="even")


def even_part(A, d, f):
    """even_subalgebra(A) for an 8-dimensional fiber A with odd central
    vector d at a point where the determinant takes the value f, once
    A ≅ C₀ ⊗ Q[x]/(x² − f) is checked at that point:

    1. f ≠ 0;
    2. A is associative (check_associativity() when A carries no proof);
    3. e_m·d has no even coordinate for every m in EVEN_MASKS;
    4. d commutes with A.gens, or with every basis vector when A has none;
    5. d·d = f·1.

    By 1, 2 and 5, right multiplication by d is invertible; by 3 it maps C₀
    into the odd span, so A = C₀ ⊕ C₀·d, and by 4 and 5 a ⊗ xᵏ ↦ a·dᵏ is an
    isomorphism (Lam, GSM 67, Ch. V §2), checked at the point.  A failed
    condition raises FiberError naming it."""
    if not f:
        raise FiberError("base point lies on a determinant curve")
    if A.proof is None:
        try:
            A.check_associativity()
        except ValueError as exc:
            raise FiberError(str(exc)) from exc
    for m in EVEN_MASKS:
        md = A.mul(A.basis_vec(m), d)
        if any(md[k] for k in EVEN_MASKS):
            raise FiberError(f"e_{m}·d has an even coordinate")
    for g in A.gens or [A.basis_vec(i) for i in range(A.dim)]:
        if A.mul(g, d) != A.mul(d, g):
            raise FiberError("d does not commute with the generators")
    if A.mul(d, d) != A.scalar_vec(f):
        raise FiberError("d·d is not f(u)·1")
    return even_subalgebra(A)


def side_even(ctx, side, u):
    """(C₀, certify_matrix_algebra(C₀, 2)) for C₀ = even_part of the fiber
    at (side, u), built once per point in the run's store under
    ("side-even", side, u); FiberError on a curve point or a fiber that
    fails even_part's conditions."""
    def build():
        A, dvec = side_fiber(ctx, side, u, QuadraticTower(()))
        fval = A.field.coerce(evaluator(u)(ctx.P.det_curves().side(side)))
        C0 = even_part(A, dvec, fval)
        return C0, certify_matrix_algebra(C0, 2)

    return ctx.cached(("side-even", side, _point(u)), build)


def certify_ordinary_m4(ctx, u):
    """(field, verdict) for the 16-dimensional ordinary fiber at u off both
    curves, over K = Q(√f₊(u), √f₋(u)): the tensor product of the two side
    corners cut by (1 + d/√f(u))/2 is (C₀₊ ⊗ C₀₋) ⊗ K, so the verdict is
    certify_tensor_product of the even parts (M4 when both are M2)."""
    u = _point(u)
    evens = [side_even(ctx, side, u) for side in ("plus", "minus")]
    field, _ = QuadraticTower.create([_det_value(ctx.P, side, u)
                                      for side in ("plus", "minus")])
    if all(verdict == "M2" for _, verdict in evens):
        return field, "M4"
    return field, certify_tensor_product([C0 for C0, _ in evens], 4)


def certify_side_split(ctx, side, u):
    """(field, verdict) for the side fiber A = C₀ ⊗ E at u off its curve,
    E = Q[x]/(x² − f(u)): M2xM2 over Q(√f(u)) when C₀ is M2, otherwise
    C₀'s radical or center dimension doubled, over Q, since
    rad(C₀ ⊗ E) = rad(C₀) ⊗ E and Z(C₀ ⊗ E) = Z(C₀) ⊗ E."""
    u = _point(u)
    C0, verdict = side_even(ctx, side, u)
    if verdict == "M2":
        return QuadraticTower.create([_det_value(ctx.P, side, u)])[0], "M2xM2"
    kind, dim = verdict.rsplit("-", 1)
    return C0.field, f"{kind}-{2 * int(dim)}"


# ---------------------------------------------------------------------------
# the corner route of prop4.7 (the oracle of plucker.module_rep, which cuts
# the module A·E from one side fiber built over its final field)
# ---------------------------------------------------------------------------

def map_field(A, field):
    """A with its structure constants, unit and generators pushed through
    field.coerce.  Coercion is a ring embedding, which maps 1 to 1 and
    keeps every identity, so the table keeps A's proof."""
    conv = field.coerce
    return FinAlg(field, [[tuple(map(conv, vec)) for vec in row] for row in A.table],
                  tuple(map(conv, A.unit)),
                  gens=[tuple(map(conv, g)) for g in A.gens] if A.gens else None,
                  proof=A.proof)


def corner_by_idempotent(A, dvec, s):
    """(e·A·e, e) for the central idempotent e = (1 + d/s)/2; d must act
    as s there."""
    half = A.field.one / A.field.coerce(2)
    e = A.vscale(A.vadd(A.unit, A.vscale(dvec, A.field.one / s)), half)
    if A.mul(e, e) != e:
        raise AssertionError("idempotent law failed")
    if A.mul(dvec, e) != A.vscale(e, s):
        raise AssertionError("central element does not act as its square root")
    return corner_algebra(A, e, gens=A.gens), e


def module_by_corner(ctx, side, u):
    """(tower, d_scalar, basis) of the module at (side, u) by the long
    path: the side fiber over Q, base-changed to Q(√f(u)), its corner
    C = e·A·e for e = (1 + d/√f(u))/2, both extended by √λ when the tower
    lacks it (λ = −q_u(w, w) for the first W_CANDIDATES w with λ ≠ 0), and
    the module C·p for p = (1 + x/√λ)/2, x = Σ wᵢvᵢ.  basis is the RREF
    basis of C·p lifted to the fiber's coordinates, and d_scalar the
    scalar by which d acts on it."""
    uf = _point(u)
    fval = _det_value(ctx.P, side, uf)
    tower, (s,) = QuadraticTower.create([fval])
    A_Q, dvec_Q = side_fiber(ctx, side, u, QuadraticTower(()))
    A = map_field(A_Q, tower)
    C, e = corner_by_idempotent(A, tuple(map(tower.coerce, dvec_Q)), s)
    block = ctx.P.block_at(uf, side)
    for w in W_CANDIDATES:
        lam = -sum(w[i] * block[i][j] * w[j] for i in range(3) for j in range(3))
        if lam:
            break
    t = tower.sqrt(lam)
    if t is None:
        tower, t = tower.extended(lam)
        A, C = map_field(A, tower), map_field(C, tower)
        e = tuple(map(tower.coerce, e))
    x = C.vzero()
    for wi, g in zip(w, C.gens):
        x = C.vadd(x, C.vscale(g, tower.coerce(wi)))
    assert C.mul(x, x) == C.scalar_vec(lam)
    half = tower.one / tower.coerce(2)
    p = C.vscale(C.vadd(C.unit, C.vscale(x, tower.one / t)), half)
    _, module = rref([C.mul(C.basis_vec(i), p) for i in range(C.dim)])
    # the corner's echelon basis, as corner_algebra builds it
    _, corner_basis = rref([A.mul(e, A.mul(A.basis_vec(i), e))
                            for i in range(A.dim)])
    lifted = [tuple(sum((c * b[k] for c, b in zip(m, corner_basis)), tower.zero)
                    for k in range(A.dim)) for m in module]
    pivots, basis = rref(lifted)
    dvec = tuple(map(tower.coerce, dvec_Q))
    b0 = basis[0]
    d_scalar = A.mul(dvec, b0)[pivots[0]] / b0[pivots[0]]
    assert A.mul(dvec, b0) == A.vscale(b0, d_scalar)
    return tower, d_scalar, tuple(basis)


# ---------------------------------------------------------------------------
# the annihilator round trip (the oracle of prop4.7's relation count, which
# implies it): module lines out to isotropic lines and back
# ---------------------------------------------------------------------------

ANNIHILATOR_LINES = (
    (1, 0), (0, 1), (1, 1), (1, -1), (1, 2),
    (2, 1), (1, 3), (3, 1), (2, -3), (1, -2),
)


def _apply2(mat, m):
    return (mat[0][0] * m[0] + mat[0][1] * m[1], mat[1][0] * m[0] + mat[1][1] * m[1])


def annihilator_line(rep, m):
    """The unique line of vectors w with ρ(v_w)·m = 0, for a module rep of
    plucker.module_rep; it is always isotropic for the block's form."""
    tower = rep.tower
    m = tuple(tower.coerce(c) for c in m)
    if not any(m):
        raise ValueError("the zero module vector has no annihilator line")
    images = [_apply2(mat, m) for mat in rep.matrices]
    rows = [[images[j][r] for j in range(3)] for r in range(2)]
    ker = mat_kernel(rows, 3, tower)
    if len(ker) != 1:
        raise FiberError(f"annihilator dimension {len(ker)} instead of 1")
    w = tuple(ker[0])
    q = tower.zero
    for i in range(3):
        for j in range(3):
            q = q + w[i] * tower.coerce(rep.block[i][j]) * w[j]
    if q != tower.zero:
        raise AssertionError("annihilator line is not isotropic")
    return w


def module_line_for(rep, w):
    """Inverse direction: the kernel line of ρ(v_w) for isotropic w."""
    tower = rep.tower
    w = tuple(tower.coerce(c) for c in w)
    if not any(w):
        raise ValueError("w must be nonzero")
    rho = ((tower.zero, tower.zero), (tower.zero, tower.zero))
    for wi, mat in zip(w, rep.matrices):
        rho = tuple(tuple(a + wi * e for a, e in zip(ra, r))
                    for ra, r in zip(rho, mat))
    ker = mat_kernel([list(rho[0]), list(rho[1])], 2, tower)
    if len(ker) != 1:
        raise FiberError(f"kernel dimension {len(ker)} instead of 1")
    m = tuple(ker[0])
    if any(_apply2(rho, m)):
        raise AssertionError("kernel vector fails to be annihilated")
    return m


def lines_proportional(u, v):
    """u and v span at most a line: every 2×2 minor of (u v) vanishes."""
    return all(u[i] * v[j] == u[j] * v[i]
               for i, j in combinations(range(len(u)), 2))


def annihilator_round_trip(rep, lines=ANNIHILATOR_LINES):
    """(round_trip, injective) over the module lines: each comes back to
    itself through its annihilator line, and no two annihilator lines
    coincide."""
    ws = []
    round_trip = True
    for m in lines:
        w = annihilator_line(rep, m)
        back = module_line_for(rep, w)
        round_trip = round_trip and lines_proportional(
            tuple(rep.tower.coerce(c) for c in m), back)
        ws.append(w)
    injective = not any(lines_proportional(a, b) for a, b in combinations(ws, 2))
    return round_trip, injective


# ---------------------------------------------------------------------------
# the minor route of prop4.8 and prop4.9 (the oracle of the kernel-relation
# certificates in plucker): every 4×4 polynomial minor expanded, a searched
# rank-3 minor, and M0 sampled at rational points
# ---------------------------------------------------------------------------

def segre_ok_by_minors():
    """The Segre identities by the long path: both families isotropic, the
    four localized certificates, all 225 4×4 minors of (w1..w4 p₊ p₋)
    zero, some 3×3 minor of the w's nonzero, and the Plücker quadric zero
    on span(w).  Reads plucker's helpers through the module, so a
    monkeypatched helper reaches it."""
    ring = PolyRing(ZZ, A_VARS)
    a0, a1, a2, a3 = (ring.var(v) for v in A_VARS)
    p_plus, p_minus = plucker.segre_points(ring)
    q = plucker.plucker_quadric_poly()
    ws = plucker.wedge_with_basis(plucker.segre_y(ring), ring)

    def on_quadric(vec):
        return evaluator(vec)(q).is_zero()

    def scale(vec, c):
        return tuple(x * c for x in vec)

    def vadd(u, v):
        return tuple(x + y for x, y in zip(u, v))

    certs = (
        (scale(p_plus, a2), vadd(scale(ws[1], a0), scale(ws[2], a1))),
        (scale(p_plus, -a3), vadd(scale(ws[0], a0), scale(ws[3], a1))),
        (scale(p_minus, -a1), vadd(scale(ws[0], a2), scale(ws[1], a3))),
        (scale(p_minus, a0), vadd(scale(ws[2], a3), scale(ws[3], a2))),
    )
    cols = list(ws) + [p_plus, p_minus]
    minors4 = all(
        det_cofactor([[cols[c][r] for c in ci] for r in ri], ring).is_zero()
        for ci in combinations(range(6), 4) for ri in combinations(range(6), 4))
    rank3 = any(
        not det_cofactor([[cols[c][r] for c in ci] for r in ri], ring).is_zero()
        for ci in combinations(range(4), 3) for ri in combinations(range(6), 3))
    big = PolyRing(ZZ, A_VARS + ("c1", "c2", "c3", "c4"))
    embed = evaluator(big.var(v) for v in A_VARS)
    span = [big.zero()] * 6
    for j, w in enumerate(ws):
        for k, comp in enumerate(w):
            span[k] = span[k] + embed(comp) * big.var(f"c{j + 1}")
    return (on_quadric(p_plus) and on_quadric(p_minus)
            and all(lhs == rhs for lhs, rhs in certs)
            and minors4 and rank3 and on_quadric(span))


def m0_matrix(a):
    """M0 at a rational parameter point a ≠ 0, with its built-in checks:
    the column relation and rank exactly three."""
    a = tuple(Fraction(x) for x in a)
    if len(a) != 4:
        raise ValueError("four parameters expected")
    if not any(a):
        raise ValueError("the zero parameter point is not allowed")
    rows = plucker._m0_rows(a, Fraction(0))
    a0, a1, a2, a3 = a
    for row in rows:
        if a1 * row[0] + a2 * row[1] + a3 * row[2] - a0 * row[3] != 0:
            raise AssertionError("column relation failed")
    if mat_rank([list(r) for r in rows]) != 3:
        raise AssertionError("rank is not three")
    return rows


def m0_ok_by_minors():
    """The M0 identities by the long path: the column relation, all 15
    4×4 minors zero, a searched 3×3 minor equal to ±aᵢ³ for every i, and
    m0_matrix at five seeded rational points."""
    rows, a = plucker.m0_matrix_symbolic()
    ring = a[0].ring
    a0, a1, a2, a3 = a
    if any(not (r[0] * a1 + r[1] * a2 + r[2] * a3 - r[3] * a0).is_zero()
           for r in rows):
        return False
    if any(not det_cofactor([list(rows[r]) for r in ri], ring).is_zero()
           for ri in combinations(range(6), 4)):
        return False
    cubes = set()
    for ri in combinations(range(6), 3):
        for ci in combinations(range(4), 3):
            d = det_cofactor([[rows[r][c] for c in ci] for r in ri], ring)
            cubes.update(v for v, av in zip(A_VARS, a)
                         if d in (av * av * av, -(av * av * av)))
    if cubes != set(A_VARS):
        return False
    rng = _derived_rng("check", "m0", "instances")
    for _ in range(5):
        vals = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(4)]
        if not any(vals):
            vals[0] = Fraction(1)
        try:
            m0_matrix(vals)
        except (AssertionError, ValueError):
            return False
    return True


def _doubled_plus_coordinate(monkeypatch):
    # p₊ with its first Plücker coordinate doubled leaves the quadric
    segre_points = plucker.segre_points

    def doubled(ring):
        p_plus, p_minus = segre_points(ring)
        return (p_plus[0] * 2, *p_plus[1:]), p_minus

    monkeypatch.setattr(plucker, "segre_points", doubled)


def _unsigned_wedge(monkeypatch):
    # w_j = y ∧ e_j with the sign of its -y[l-1] entry dropped
    def unsigned(y, ring):
        return [tuple(y[k - 1] if l == j else y[l - 1] if k == j else ring.zero()
                      for k, l in plucker.Z_PAIRS)
                for j in range(1, 5)]

    monkeypatch.setattr(plucker, "wedge_with_basis", unsigned)


def _m0_mutant(edit):
    def apply(monkeypatch):
        m0_rows = plucker._m0_rows

        def mutated(a, zero):
            rows = [list(r) for r in m0_rows(a, zero)]
            edit(rows, zero)
            return tuple(tuple(r) for r in rows)

        monkeypatch.setattr(plucker, "_m0_rows", mutated)
    return apply


def _double_first_entry(rows, zero):
    # entry (0, 0) of M0 doubled breaks the column relation
    rows[0][0] = rows[0][0] * 2


def _zero_contraction_rows(rows, zero):
    # the three contraction rows zeroed: the relation holds and every 4×4
    # minor vanishes, but the a1³, a2³ and a3³ minors all use those rows
    for r in rows[3:]:
        r[:] = [zero] * 4


# name -> (check id it breaks, monkeypatching mutator)
IDENTITY_MUTANTS = {
    "doubled-plus-coordinate": ("prop4.9-segre", _doubled_plus_coordinate),
    "unsigned-wedge": ("prop4.9-segre", _unsigned_wedge),
    "doubled-m0-entry": ("prop4.8-m0-matrix", _m0_mutant(_double_first_entry)),
    "zeroed-contractions": ("prop4.8-m0-matrix",
                            _m0_mutant(_zero_contraction_rows)),
}


def mutate_identities(monkeypatch, name):
    """Apply IDENTITY_MUTANTS[name]; returns the check id it breaks."""
    check_id, apply = IDENTITY_MUTANTS[name]
    apply(monkeypatch)
    return check_id
