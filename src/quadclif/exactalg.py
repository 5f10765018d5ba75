"""Exact arithmetic kernel: coefficient rings, sparse multivariate
polynomials, and the package's only dense linear algebra.

Everything in this module is exact, and polynomial arithmetic never
rounds.  There is one coefficient ring for the verifier's polynomials:
`ZZ`, with plain `int` elements and no division, whose `coerce` refuses a
float or a true fraction.  A verdict read over Z[u] holds over Q[u] and in
every specialization, because the inclusion Z[u] → Q[u], and evaluation
at a point over Q, a number field or F_p, are ring homomorphisms.  The
rationals, prime fields and Gaussian rationals that the tests use as
oracles are fields with the same interface (`name`, `zero`, `one`,
`characteristic`, `coerce`), defined in the tests.

The polynomial layer is deliberately small: ring operations, derivatives
(the partials behind `pencil.discriminant`) and `evaluator`, the one
evaluation at a point (at polynomials, a substitution); resultants and
squarefreeness take integer coefficient lists.  Terms are kept in a dict
keyed by exponent tuples; zero coefficients are never stored, so
equality is dict equality.  Serialization orders terms graded-lex.

Linear algebra has one routine per job, shared by every module:

* `rref` is the single Gaussian elimination over a field; rank, kernel,
  solve and span coordinates (`mat_rank`, `mat_kernel`, `mat_solve`,
  `span_coords`) are read off its pivots and reduced rows; `mat_solve` has
  no caller in the package and stays for the `exactalg.solve` benchmark
  probe and the tests;
* `adjugate3` is the 3×3 adjugate over any commutative ring; only the
  hot curve pass in `geometry` expands six cofactors of a symmetric block;
* `det_cofactor` expands small polynomial determinants; `bareiss_det` is
  the fraction-free integer elimination, each division checked exact,
  behind `pencil.ternary_quadric_resultant` and `sylvester_resultant`,
  which takes the max(m, n)-square Bézout
  matrix instead of the (m + n)-square Sylvester matrix, by
  Res(f, g) = (-1)^(m(m-1)/2)·det Bez(f, g)/lc(f)^(m-n) for m ≥ n, the
  one resultant over Z: with `interpolate_int` it gives resultants by
  evaluation and interpolation (Collins, J. ACM 18 (1971); von zur Gathen
  and Gerhard, *Modern Computer Algebra*, Ch. 6), and
  `squarefree_univariate` is Res(h, h′) ≠ 0;
* `kernel_int_sparse` is the sparse integer kernel of the commutator
  matrix of a Clifford algebra specialized at an integer point
  (`clifford.commutant_basis`, behind the center check).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm, prod
from operator import add


# ---------------------------------------------------------------------------
# coefficient rings
# ---------------------------------------------------------------------------

class IntegerRing:
    """The integers, with plain int elements: the coefficients of every
    integral polynomial (the pencil's forms and determinants, the Clifford
    structure constants, the m0 matrix).  It has no division, and `coerce`
    admits nothing that is not an integer, so a float or a true fraction
    raises TypeError as soon as it meets a polynomial over Z."""

    name = "Z"
    zero = 0
    one = 1
    characteristic = 0

    @staticmethod
    def coerce(x):
        if type(x) is int:
            return x
        if isinstance(x, int) or (isinstance(x, Fraction) and x.denominator == 1):
            return int(x)
        raise TypeError(f"cannot coerce a {type(x).__name__} into Z")

    def __repr__(self):
        return "ZZ"


ZZ = IntegerRing()


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def as_int(c):
    """c as an int when it is integral (an int or a Fraction with
    denominator 1), else c unchanged."""
    return int(c) if getattr(c, "denominator", None) == 1 else c


def is_square_fraction(a: Fraction):
    """Return sqrt(a) as a Fraction if a is a square in Q, else None."""
    a = Fraction(a)
    if a < 0:
        return None
    num, den = a.numerator, a.denominator
    rn, rd = isqrt(num), isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


# ---------------------------------------------------------------------------
# sparse multivariate polynomials
# ---------------------------------------------------------------------------

def _grlex_key(item):
    exps = item[0]
    return (sum(exps), exps)


class PolyRing:
    """A polynomial ring over ZZ, or over an exact field with ZZ's
    interface (the oracles of the tests); `src/` builds every one over ZZ."""

    def __init__(self, field, variables):
        self.field = field
        self.vars = tuple(variables)
        if len(set(self.vars)) != len(self.vars):
            raise ValueError("duplicate variable names")

    def zero(self):
        return MultiPoly(self, {})

    def one(self):
        return self.const(1)

    def const(self, c):
        c = self.field.coerce(c)
        if not c:
            return MultiPoly(self, {})
        return MultiPoly(self, {(0,) * len(self.vars): c})

    def var(self, name):
        i = self.vars.index(name)
        e = [0] * len(self.vars)
        e[i] = 1
        return MultiPoly(self, {tuple(e): self.field.one})

    def from_terms(self, items):
        out = {}
        for exps, c in items:
            c = self.field.coerce(c)
            exps = tuple(exps)
            if exps in out:
                c = out[exps] + c
            if c:
                out[exps] = c
            else:
                out.pop(exps, None)
        return MultiPoly(self, out)

    def __eq__(self, other):
        return (
            isinstance(other, PolyRing)
            and self.field is other.field
            and self.vars == other.vars
        )

    def __hash__(self):
        return hash((id(self.field), self.vars))

    def __repr__(self):
        return f"{self.field.name}[{','.join(self.vars)}]"


class MultiPoly:
    """Sparse multivariate polynomial; terms maps exponent tuple -> coeff."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = terms

    # -- ring operations ---------------------------------------------------

    def _check(self, other):
        if isinstance(other, MultiPoly):
            if other.ring != self.ring:
                raise ValueError("mixed polynomial rings")
            return other
        return self.ring.const(other)

    def __add__(self, other):
        try:
            other = self._check(other)
        except TypeError:
            return NotImplemented  # defer to the other operand's __radd__
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e)
            s = c if s is None else s + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return MultiPoly(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        try:
            other = self._check(other)
        except TypeError:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return self._check(other) - self

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            try:
                c = self.ring.field.coerce(other)
            except TypeError:
                return NotImplemented  # defer to the other operand's __rmul__
            if not c:
                return self.ring.zero()
            return MultiPoly(self.ring, {e: v * c for e, v in self.terms.items()})
        other = self._check(other)
        for a, b in ((self, other), (other, self)):
            if len(b.terms) == 1:
                (e, c), = b.terms.items()
                if not any(e):  # b is a nonzero constant
                    if c == self.ring.field.one:
                        return a
                    return MultiPoly(self.ring, {k: v * c for k, v in a.terms.items()})
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                s = out.get(e)
                s = c1 * c2 if s is None else s + c1 * c2
                if s:
                    out[e] = s
                else:
                    del out[e]
        return MultiPoly(self.ring, out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = self.ring.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, MultiPoly):
            return self.ring == other.ring and self.terms == other.terms
        try:
            return self == self.ring.const(other)
        except TypeError:
            return NotImplemented

    def __hash__(self):
        return hash((self.ring, tuple(sorted(self.terms.items(), key=_grlex_key))))

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self):
        return not self.terms

    # -- structure ----------------------------------------------------------

    def leading_term(self):
        """Graded-lex leading (exps, coeff); raises on the zero polynomial."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        e = max(self.terms, key=lambda t: (sum(t), t))
        return e, self.terms[e]

    def derivative(self, name):
        i = self.ring.vars.index(name)
        out = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            e2 = e[:i] + (e[i] - 1,) + e[i + 1:]
            out[e2] = out.get(e2, self.ring.field.zero) + c * e[i]
        return MultiPoly(self.ring, {e: c for e, c in out.items() if c})

    # -- serialization -------------------------------------------------------

    def sorted_terms(self):
        return sorted(self.terms.items(), key=_grlex_key, reverse=True)

    def to_json_terms(self):
        return [[list(e), str(c)] for e, c in self.sorted_terms()]

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for e, c in self.sorted_terms():
            mono = "*".join(
                f"{v}^{k}" if k > 1 else v
                for v, k in zip(self.ring.vars, e)
                if k
            )
            if mono:
                bits.append(f"{c}*{mono}" if c != self.ring.field.one else mono)
            else:
                bits.append(str(c))
        return " + ".join(bits)


def evaluator(point):
    """poly ↦ poly(point) for the polynomials of one ring, point aligned
    with its variables, each monomial's value computed once.  Coordinates
    (ints, Fractions, residues, number-field elements, polynomials: a ring
    map) are never coerced and meet the coefficients through + and * only,
    so a constant term stays a coefficient.  A float coordinate raises
    TypeError, a point of the wrong length ValueError."""
    point = tuple(point)
    if any(isinstance(x, float) for x in point):
        raise TypeError("cannot evaluate at a float coordinate")
    monomials = {}

    def value(poly):
        if len(poly.ring.vars) != len(point):
            raise ValueError("wrong number of values")
        acc = poly.ring.field.zero
        for e, c in poly.terms.items():
            m = monomials.get(e)
            if m is None:  # prod multiplies; a residue has no **
                m = monomials[e] = prod(x for x, k in zip(point, e) for _ in range(k))
            acc = acc + c * m
        return acc

    return value


# ---------------------------------------------------------------------------
# symmetric matrices of polynomials
# ---------------------------------------------------------------------------

class SymMatrix:
    """Square symmetric matrix with MultiPoly entries."""

    def __init__(self, ring, rows):
        self.ring = ring
        self.n = len(rows)
        rows = [tuple(r) for r in rows]
        for r in rows:
            if len(r) != self.n:
                raise ValueError("matrix is not square")
        for i in range(self.n):
            for j in range(i):
                if rows[i][j] != rows[j][i]:
                    raise ValueError("matrix is not symmetric")
        self.rows = tuple(rows)

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other):
        return isinstance(other, SymMatrix) and self.rows == other.rows

    def det(self):
        """Determinant by cofactor expansion."""
        return det_cofactor(self.rows, self.ring)


def det_cofactor(rows, ring):
    """Determinant of a small square matrix of MultiPoly by expansion
    along the first row; zero entries are skipped."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    acc = ring.zero()
    sign = 1
    for j in range(n):
        a = rows[0][j]
        if a:
            minor = [[rows[i][k] for k in range(n) if k != j] for i in range(1, n)]
            term = a * det_cofactor(minor, ring)
            acc = acc + (term if sign > 0 else -term)
        sign = -sign
    return acc


def adjugate3(m):
    """Adjugate of a 3×3 matrix over any commutative ring, so that
    m·adj = adj·m = det(m)·I.  Integer input gives the integer adjugate,
    which callers working mod p reduce themselves."""
    (a, b, c), (d, e, f), (g, h, i) = m
    return [
        [e * i - f * h, c * h - b * i, b * f - c * e],
        [f * g - d * i, a * i - c * g, c * d - a * f],
        [d * h - e * g, b * g - a * h, a * e - b * d],
    ]


# ---------------------------------------------------------------------------
# integer resultants, interpolation and squarefreeness
# ---------------------------------------------------------------------------

def int_coeffs(coeffs):
    """coeffs as a list of ints (a Fraction with denominator 1 is taken as
    its int); ValueError on a float or a non-integral value, so nothing
    rounded enters the integer routes below."""
    out = [as_int(c) for c in coeffs]
    if any(type(c) is not int for c in out):
        raise ValueError("coefficients must be integers")
    return out


def bareiss_det(rows):
    """Determinant of a square integer matrix by fraction-free (Bareiss)
    elimination.  Each step divides by the previous pivot, which is exact
    by Sylvester's identity; the remainder is checked all the same."""
    m = [int_coeffs(r) for r in rows]
    n = len(m)
    if any(len(r) != n for r in m):
        raise ValueError("matrix is not square")
    sign, prev = 1, 1
    for k in range(n - 1):
        if not m[k][k]:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                # the whole pivot column is zero from the diagonal down
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                q, r = divmod(m[i][j] * m[k][k] - m[i][k] * m[k][j], prev)
                if r:
                    raise ArithmeticError("inexact Bareiss division")
                m[i][j] = q
        prev = m[k][k]
    return sign * m[-1][-1] if n else 1


def sylvester_resultant(f, g):
    """Resultant Res(f, g), the determinant of the Sylvester matrix, of two
    integer polynomials given as coefficient lists [c0, ..., cd] with a
    nonzero last entry, by `bareiss_det` of their Bézout matrix.

    For deg f = m ≥ n = deg g, with g padded by zeros to m + 1
    coefficients, the Bézout matrix is the m×m integer matrix of
    (f(x)g(y) - f(y)g(x))/(x - y) = Σ Bᵢⱼ·xⁱyʲ.  Row by row,
    Bᵢⱼ = B₍ᵢ₋₁₎₍ⱼ₊₁₎ + f_{j+1}·gᵢ - fᵢ·g_{j+1}, with B₍₋₁₎ⱼ = Bᵢₘ = 0.
    Then
        Res(f, g) = (-1)^(m(m-1)/2) · det B / lc(f)^(m-n)
    (the Bézout formula, Gelfand, Kapranov and Zelevinsky,
    *Discriminants, Resultants and Multidimensional Determinants*, Ch. 12
    §1; the padding gives the formal resultant in degrees (m, m), which is
    lc(f)^(m-n)·Res(f, g) by expanding the Sylvester matrix along its first
    m - n columns).  For m < n, Res(f, g) = (-1)^(mn)·Res(g, f).  The
    division is exact by the identity, and checked all the same."""
    f, g = int_coeffs(f), int_coeffs(g)
    if not (f and f[-1] and g and g[-1]):
        raise ValueError("resultant needs nonzero leading coefficients")
    m, n = len(f) - 1, len(g) - 1
    sign = 1
    if m < n:
        f, g, m, n = g, f, n, m
        sign = (-1) ** (m * n)
    if m * (m - 1) // 2 % 2:
        sign = -sign
    g = g + [0] * (m - n)
    bez, row = [], [0] * (m + 1)
    for i in range(m):
        row = [row[j + 1] + f[j + 1] * g[i] - f[i] * g[j + 1] for j in range(m)] + [0]
        bez.append(row[:m])
    q, r = divmod(bareiss_det(bez), f[-1] ** (m - n))
    if r:
        raise ArithmeticError("inexact Bézout division")
    return sign * q


def interpolate_int(values):
    """Coefficients [c0, ..., cn] of the polynomial in Z[t] of degree at
    most n that takes values[t] at t = 0, ..., n, by Newton divided
    differences.  At consecutive integers the divided differences of an
    integer polynomial are integers (for tⁱ they are Stirling numbers), so
    each division must be exact; ArithmeticError if one is not, when no
    integer polynomial takes these values."""
    dd = int_coeffs(values)
    n = len(dd) - 1
    for k in range(1, n + 1):
        for i in range(n, k - 1, -1):
            q, r = divmod(dd[i] - dd[i - 1], k)
            if r:
                raise ArithmeticError("no integer polynomial takes these values")
            dd[i] = q
    coeffs = [dd[n]]
    for k in range(n - 1, -1, -1):  # h ← dd[k] + (t − k)·h
        coeffs = [dd[k] - k * coeffs[0]] + [
            a - k * b for a, b in zip(coeffs, coeffs[1:] + [0])]
    return coeffs


def squarefree_univariate(coeffs):
    """Whether h = Σ coeffs[k]·tᵏ in Z[t], nonzero, is squarefree over Q.

    In characteristic 0, h has a repeated root iff gcd(h, h′) ≠ 1 (von zur
    Gathen and Gerhard, *Modern Computer Algebra*, Ch. 6).  For deg h ≥ 1,
    lc(h′) = deg(h)·lc(h) ≠ 0, so that holds iff Res(h, h′) = 0, an exact
    integer determinant (`sylvester_resultant`).  A nonzero constant is
    squarefree."""
    h = int_coeffs(coeffs)
    while h and not h[-1]:
        h.pop()
    if not h:
        raise ValueError("squarefreeness of the zero polynomial")
    return len(h) == 1 or sylvester_resultant(
        h, [k * c for k, c in enumerate(h)][1:]) != 0


# ---------------------------------------------------------------------------
# dense linear algebra over an exact field (elements, not polynomials)
# ---------------------------------------------------------------------------

_ONE = Fraction(1)


def rref(rows):
    """Reduced row echelon form by Gauss-Jordan elimination.

    Returns (pivots, reduced): the pivot column of each nonzero row, in
    increasing order, and those rows, normalized to 1 at their pivot and
    zero in every other pivot column; zero rows are dropped.  The entries
    need the field operators and a zero test by truth value.  The reduced
    rows are the unique RREF basis of the row span.
    """
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivots = []
    for col in range(ncols):
        rank = len(pivots)
        if rank == nrows:
            break
        piv = next((i for i in range(rank, nrows) if m[i][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        # columns left of col vanish in the pivot row: work on the tail
        inv = _ONE / m[rank][col]
        tail = [a * inv for a in m[rank][col:]]
        m[rank][col:] = tail
        for i in range(nrows):
            f = m[i][col]
            if i != rank and f:
                m[i][col:] = [a - f * b for a, b in zip(m[i][col:], tail)]
        pivots.append(col)
    return pivots, m[:len(pivots)]


def span_residual(pivots, reduced, v):
    """v minus its combination Σ v[p]·row over RREF rows; the residual is
    zero exactly when v lies in their span."""
    v = list(v)
    for p, row in zip(pivots, reduced):
        c = v[p]
        if c:
            for k, b in enumerate(row):
                if b:
                    v[k] = v[k] - c * b
    return v


def span_coords(pivots, reduced, v):
    """Coordinates of v on RREF rows (its entries at the pivots), or None
    if v lies outside their span."""
    if any(span_residual(pivots, reduced, v)):
        return None
    return [v[p] for p in pivots]


def mat_rank(rows):
    """Rank of a matrix over an exact field."""
    return len(rref(rows)[0])


def mat_kernel(rows, ncols, field):
    """Basis of the right kernel: one vector per free column, with 1 at
    that column and minus the reduced entries at the pivot columns."""
    pivots, reduced = rref(rows)
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        v = [field.zero] * ncols
        v[fc] = field.one
        for col, row in zip(pivots, reduced):
            v[col] = -row[fc]
        basis.append(v)
    return basis


def mat_solve(rows, rhs, field):
    """Solve M x = rhs; returns None if inconsistent, raises on underdetermined
    systems with more than one solution."""
    ncols = len(rows[0])
    pivots, reduced = rref([list(r) + [b] for r, b in zip(rows, rhs)])
    if pivots and pivots[-1] == ncols:
        return None
    if len(pivots) < ncols:
        raise ValueError("underdetermined linear system")
    return [row[ncols] for row in reduced]


# ---------------------------------------------------------------------------
# sparse integer kernel (for the commutator matrix at a point)
# ---------------------------------------------------------------------------

def kernel_int_sparse(rows, ncols):
    """Right-kernel basis of a sparse integer matrix.

    rows: list of dicts {col: int}.  Returns primitive integer vectors
    (tuples of length ncols).  Exact; uses integer cross-multiplication
    with gcd normalization during elimination.
    """

    def normalize(row):
        g = 0
        for v in row.values():
            g = gcd(g, v)
        if g > 1:
            return {c: v // g for c, v in row.items()}
        return dict(row)

    pivots = {}  # leading col -> row dict
    for row in rows:
        row = {c: v for c, v in row.items() if v}
        while row:
            lead = min(row)
            piv = pivots.get(lead)
            if piv is None:
                pivots[lead] = normalize(row)
                break
            a, b = piv[lead], row[lead]
            new = {}
            for c in set(piv) | set(row):
                v = row.get(c, 0) * a - piv.get(c, 0) * b
                if v:
                    new[c] = v
            row = new
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        x = {fc: Fraction(1)}
        for lead in sorted(pivots, reverse=True):
            piv = pivots[lead]
            s = Fraction(0)
            for c, v in piv.items():
                if c == lead:
                    continue
                xv = x.get(c)
                if xv is not None:
                    s += v * xv
            if s:
                x[lead] = -s / piv[lead]
        # clear denominators to a primitive integer vector
        den = 1
        for v in x.values():
            den = lcm(den, v.denominator)
        vec = [0] * ncols
        for c, v in x.items():
            vec[c] = int(v * den)
        g = 0
        for v in vec:
            g = gcd(g, v)
        if g > 1:
            vec = [v // g for v in vec]
        basis.append(tuple(vec))
    return basis
