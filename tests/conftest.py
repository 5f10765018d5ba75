from fractions import Fraction

import pytest

from quadclif.clifford import CliffordAlgebra, central_odd
from quadclif.exactalg import QQ, MultiPoly
from quadclif.pencil import InvariantPencil, _derived_rng, _random_sym3, generate


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


_CACHE = {}


def cached_pencil(seed, bound=5):
    key = (seed, bound)
    if key not in _CACHE:
        _CACHE[key] = generate(seed, bound)
    return _CACHE[key]


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
        t = ring.monomial(de, rc / gc)
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


def central_odd_pencil(P, side):
    """The CentralOddResult of one block of P over Q[u]."""
    return central_odd(CliffordAlgebra.from_pencil(P, side))


def phi_pair(P):
    """(super, ordinary) algebras over Q(i)[u] for the same pencil."""
    return (CliffordAlgebra.from_pencil(P, "super", field=QQI),
            CliffordAlgebra.from_pencil(P, "ordinary", field=QQI))


def is_homogeneous(poly):
    return len({sum(e) for e in poly.terms}) <= 1


@pytest.fixture(scope="session")
def pencil42():
    return cached_pencil(42)


@pytest.fixture(scope="session")
def pencil7():
    return cached_pencil(7)
