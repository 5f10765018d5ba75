import pytest

from quadclif.clifford import CliffordAlgebra
from quadclif.exactalg import QQI
from quadclif.pencil import generate


_CACHE = {}


def cached_pencil(seed, bound=5):
    key = (seed, bound)
    if key not in _CACHE:
        _CACHE[key] = generate(seed, bound)
    return _CACHE[key]


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
