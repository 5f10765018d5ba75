"""Exact arithmetic kernel: coefficient fields, sparse multivariate
polynomials, and the package's only dense linear algebra.

Everything in this module is exact.  Rationals are `fractions.Fraction`,
prime-field residues are reduced on every operation, and polynomial
arithmetic never rounds.  The polynomial layer is deliberately small: ring
operations, derivatives, Sylvester resultants, and a univariate gcd for
squarefreeness tests.  Terms are kept in a dict keyed by exponent tuples;
zero coefficients are never stored, so equality is dict equality.
Serialization orders terms graded-lex.

Linear algebra has one routine per job, shared by every module:

* `rref` is the single Gaussian elimination over a field; rank, kernel,
  solve and span coordinates (`mat_rank`, `mat_kernel`, `mat_solve`,
  `span_coords`) are read off its pivots and reduced rows;
* `adjugate3` is the single 3×3 adjugate, written once for any
  commutative ring (polynomials, field elements, plain integers);
* `det_cofactor` expands small polynomial determinants, and `bareiss_det`
  is the fraction-free elimination behind the Sylvester resultant;
* `kernel_int_sparse` is the separate sparse integer kernel of the graded
  commutant solver.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm


# ---------------------------------------------------------------------------
# coefficient fields
# ---------------------------------------------------------------------------

class RationalField:
    """The rationals, with Fraction elements."""

    name = "Q"
    zero = Fraction(0)
    one = Fraction(1)

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
    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
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

    def sqrt(self, x):
        """Square root by scan; fields used here are small."""
        x = self.coerce(x)
        for r in range((self.p + 1) // 2 + 1):
            if (r * r - x.r) % self.p == 0:
                return FpElem(r, self.p)
        return None

    def __repr__(self):
        return f"GF({self.p})"


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
    """A polynomial ring over one of the exact fields above."""

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

    def monomial(self, exps, coeff=1):
        coeff = self.field.coerce(coeff)
        exps = tuple(exps)
        if len(exps) != len(self.vars):
            raise ValueError("exponent tuple has wrong length")
        if not coeff:
            return self.zero()
        return MultiPoly(self, {exps: coeff})

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
                e = tuple(a + b for a, b in zip(e1, e2))
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

    def total_degree(self):
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def degree_in(self, name):
        if not self.terms:
            return -1
        i = self.ring.vars.index(name)
        return max(e[i] for e in self.terms)

    def leading_term(self):
        """Graded-lex leading (exps, coeff); raises on the zero polynomial."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        e = max(self.terms, key=lambda t: (sum(t), t))
        return e, self.terms[e]

    def coeff_of_power(self, name, k):
        """Coefficient of name**k, kept in the same ring with exponent zeroed."""
        i = self.ring.vars.index(name)
        out = {}
        for e, c in self.terms.items():
            if e[i] == k:
                e2 = e[:i] + (0,) + e[i + 1:]
                out[e2] = out.get(e2, self.ring.field.zero) + c
        return MultiPoly(self.ring, {e: c for e, c in out.items() if c})

    def derivative(self, name):
        i = self.ring.vars.index(name)
        out = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            e2 = e[:i] + (e[i] - 1,) + e[i + 1:]
            out[e2] = out.get(e2, self.ring.field.zero) + c * e[i]
        return MultiPoly(self.ring, {e: c for e, c in out.items() if c})

    def eval(self, values):
        """Evaluate at a point given as a sequence aligned with ring.vars."""
        if len(values) != len(self.ring.vars):
            raise ValueError("wrong number of values")
        vals = [self.ring.field.coerce(v) for v in values]
        acc = self.ring.field.zero
        for e, c in self.terms.items():
            t = c
            for v, k in zip(vals, e):
                for _ in range(k):
                    t = t * v
            acc = acc + t
        return acc

    def subs(self, mapping):
        """Substitute polynomials for variables.  mapping: name -> MultiPoly
        in the target ring; unmapped variables must not occur."""
        target = None
        for img in mapping.values():
            target = img.ring
            break
        if target is None:
            raise ValueError("empty substitution")
        acc = target.zero()
        for e, c in self.terms.items():
            t = target.const(c)
            for name, k in zip(self.ring.vars, e):
                if k == 0:
                    continue
                if name not in mapping:
                    raise ValueError(f"no image for variable {name}")
                t = t * mapping[name] ** k
            acc = acc + t
        return acc

    def map_field(self, ring):
        """Reinterpret coefficients in another ring with the same variables."""
        if ring.vars != self.ring.vars:
            raise ValueError("variable mismatch")
        return MultiPoly(ring, {e: ring.field.coerce(c) for e, c in self.terms.items()})

    # -- serialization -------------------------------------------------------

    def sorted_terms(self):
        return sorted(self.terms.items(), key=_grlex_key, reverse=True)

    def to_json_terms(self):
        out = []
        for e, c in self.sorted_terms():
            if isinstance(c, Fraction):
                out.append([list(e), str(c)])
            else:
                out.append([list(e), repr(c)])
        return out

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
# resultants and squarefreeness
# ---------------------------------------------------------------------------

def poly_exact_div(f: MultiPoly, g: MultiPoly) -> MultiPoly:
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
        t = ring.monomial(de, rc / gc)
        q = q + t
        r = r - t * g
    return q


def bareiss_det(rows, ring):
    """Fraction-free determinant of a square matrix of MultiPoly."""
    n = len(rows)
    m = [list(r) for r in rows]
    sign = 1
    prev = ring.one()
    for k in range(n - 1):
        if m[k][k].is_zero():
            swap = next((i for i in range(k + 1, n) if not m[i][k].is_zero()), None)
            if swap is None:
                # the whole pivot column is zero from the diagonal down
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


def sylvester_resultant(f: MultiPoly, g: MultiPoly, name: str) -> MultiPoly:
    """Resultant of f and g with respect to the variable `name`,
    via the Sylvester matrix in their actual degrees and Bareiss
    elimination.  Errors on zero input."""
    if f.is_zero() or g.is_zero():
        raise ValueError("resultant of the zero polynomial")
    ring = f.ring
    dm, dn = f.degree_in(name), g.degree_in(name)
    if dm == 0 and dn == 0:
        return ring.one()
    if dm == 0:
        return f ** dn
    if dn == 0:
        return g ** dm
    fc = [f.coeff_of_power(name, k) for k in range(dm, -1, -1)]
    gc = [g.coeff_of_power(name, k) for k in range(dn, -1, -1)]
    size = dm + dn
    rows = []
    for s in range(dn):
        row = [ring.zero()] * size
        for k, c in enumerate(fc):
            row[s + k] = c
        rows.append(row)
    for s in range(dm):
        row = [ring.zero()] * size
        for k, c in enumerate(gc):
            row[s + k] = c
        rows.append(row)
    return bareiss_det(rows, ring)


def as_univariate(f: MultiPoly, name: str):
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


def _dense_gcd(a, b, field):
    """Monic Euclidean gcd of dense coefficient lists over a field."""

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

    a, b = strip(a), strip(b)
    while b:
        a, b = b, rem(a, b)
    if a:
        inv = field.one / a[-1]
        a = [c * inv for c in a]
    return a


def squarefree_univariate(h: MultiPoly, name: str):
    """(is_squarefree, gcd(h, h')) for a univariate polynomial over a field.
    Squarefree means the gcd with the derivative is constant."""
    if h.is_zero():
        raise ValueError("squarefreeness of the zero polynomial")
    coeffs = as_univariate(h, name)
    dcoeffs = [coeffs[k] * k for k in range(1, len(coeffs))]
    g = _dense_gcd(coeffs, dcoeffs, h.ring.field)
    ring = h.ring
    i = ring.vars.index(name)
    terms = {}
    for k, c in enumerate(g):
        if c:
            e = [0] * len(ring.vars)
            e[i] = k
            terms[tuple(e)] = c
    gpoly = MultiPoly(ring, terms)
    return (len(g) <= 1, gpoly)


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
# sparse integer kernel (for the graded commutant solver)
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
