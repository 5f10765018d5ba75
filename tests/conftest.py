from fractions import Fraction

import pytest

from quadclif.clifford import CliffordAlgebra, central_odd
from quadclif.exactalg import QQ
from quadclif.pencil import generate


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
