"""The discriminant Δ of a determinant cubic, against independent oracles:
Macaulay's quotient for the resultant of three ternary quadrics, nets
that are singular by construction, and the F_p scans, whose singular
points can only occur at primes that divide Δ."""

from fractions import Fraction

import pytest

from quadclif import geometry
from quadclif.exactalg import PolyRing
from quadclif.pencil import (
    U_VARS,
    URING,
    _QUADRATIC,
    _derived_rng,
    _random_sym3,
    InvariantPencil,
    det_cubic,
    discriminant,
    genericity_check,
    ternary_quadric_resultant,
)

from conftest import (
    BAD_REDUCTION_Q_PLUS,
    QQ,
    SINGULAR_OFF_FP_Q_PLUS,
    cached_pencil,
    macaulay_resultant,
    reduced_curve,
    with_q_plus,
)

U1, U2, U3 = (URING.var(v) for v in URING.vars)
SIDES = ("plus", "minus")


def random_quadric(rng, bound):
    return URING.from_terms((e, QQ.coerce(rng.randint(-bound, bound)))
                            for e in _QUADRATIC)


def random_net(label, i, bound):
    """A seeded pencil with both blocks drawn at the given bound."""
    rng = _derived_rng(label, i, bound)
    return InvariantPencil(q_plus=tuple(_random_sym3(rng, bound) for _ in range(3)),
                           q_minus=tuple(_random_sym3(rng, bound) for _ in range(3)),
                           seed=i, coeff_bound=bound)


def gradient(f):
    return [f.derivative(v) for v in URING.vars]


def test_resultant_is_512_times_macaulays_quotient():
    """Δ = c·Res with the constant c = Δ(u1², u2², u3²) = 512, on seeded
    triples of random quadrics and on the partials of seeded cubics."""
    c = ternary_quadric_resultant(U1 ** 2, U2 ** 2, U3 ** 2)
    assert c == 512 and macaulay_resultant(U1 ** 2, U2 ** 2, U3 ** 2) == 1
    cases = []
    for i in range(60):
        rng = _derived_rng("macaulay", i)
        cases.append([random_quadric(rng, 1 + i % 3) for _ in range(3)])
    for i in range(20):
        P = random_net("macaulay-net", i, 1 + i % 3)
        cases += [gradient(P.det_curves().side(side)) for side in SIDES]
    compared = zero = 0
    for qs in cases:
        res = macaulay_resultant(*qs)
        if res is None:
            continue
        assert ternary_quadric_resultant(*qs) == c * res
        compared += 1
        zero += res == 0
    # the extraneous minor vanishes on some small-coefficient nets
    assert compared >= 70 and zero >= 1, (compared, zero)


def test_resultant_needs_quadratic_forms():
    with pytest.raises(ValueError, match="quadratic"):
        ternary_quadric_resultant(U1 ** 2, U2 ** 2, U3 ** 2 + U1)
    with pytest.raises(TypeError):  # Z[u] admits no true fraction
        U3 ** 2 * Fraction(1, 2)
    half_u3_squared = PolyRing(QQ, U_VARS).from_terms(
        [((0, 0, 2), Fraction(1, 2))])
    with pytest.raises(ValueError):
        ternary_quadric_resultant(U1 ** 2, U2 ** 2, half_u3_squared)


def _diagonal():
    e = lambda k: tuple(tuple(1 if i == j == k else 0 for j in range(3))
                        for i in range(3))
    q = (e(0), e(1), e(2))
    return InvariantPencil(q_plus=q, q_minus=q, seed=0, coeff_bound=1)


def _base_point_net():
    """A net whose three conics all pass through (1 : 0 : 0): the corank-1
    fibers whose kernel is that point make E singular, by Jacobi's formula."""
    rng = _derived_rng("base-point")
    mats = []
    for _ in range(3):
        m = [list(r) for r in _random_sym3(rng, 3)]
        m[0][0] = 0
        mats.append(tuple(tuple(r) for r in m))
    return tuple(mats)


CONIC = U1 ** 2 + U2 ** 2 - U3 ** 2
# the line u3 = u1 touches the conic u1² + u2² = u3² at (1 : 0 : 1)
SINGULAR_CUBICS = {
    "diagonal": _diagonal().det_curves().f_plus,
    "conjugate-pair": with_q_plus(SINGULAR_OFF_FP_Q_PLUS).det_curves().f_plus,
    "conic-and-tangent-line": (U3 - U1) * CONIC,
    "net-with-a-base-point": det_cubic(_base_point_net()),
}


@pytest.mark.parametrize("name", sorted(SINGULAR_CUBICS))
def test_discriminant_vanishes_on_singular_cubics(name):
    f = SINGULAR_CUBICS[name]
    assert not f.is_zero()
    assert discriminant(f) == 0
    # a control: the same cubic plus a Fermat-type term is smooth
    assert discriminant(f + U1 ** 3 + 5 * U2 ** 3 + 7 * U3 ** 3) != 0


def test_resultant_vanishes_on_quadrics_with_a_common_zero():
    # three conics through (1 : 1 : 1), and the net of the base-point pencil
    common = [U1 * U2 - U3 ** 2, U1 ** 2 - U2 * U3, U1 * U3 - 2 * U2 ** 2 + U2 * U3]
    assert ternary_quadric_resultant(*common) == 0
    forms = [sum((m[i][j] * u * v for i, u in enumerate((U1, U2, U3))
                  for j, v in enumerate((U1, U2, U3))), URING.zero())
             for m in _base_point_net()]
    assert ternary_quadric_resultant(*forms) == 0


def test_scan_primes_divide_the_discriminant():
    """Wherever ff_scan_smooth finds a singular F_p-point, or a curve or a
    partial vanishes mod p, p divides Δ: the scans see bad reduction, never
    a singularity that Δ misses."""
    hits = 0
    for bound in (1, 2, 3):
        for i in range(50):
            P = random_net("delta-oracle", i, bound)
            for side in SIDES:
                f = P.det_curves().side(side)
                if f.is_zero():
                    continue
                delta = discriminant(f)
                for p in (17, 19, 101):
                    try:
                        singular = geometry.ff_scan_smooth(reduced_curve(P, side, p))
                    except geometry.ScanError:
                        singular = True
                    if singular:
                        hits += 1
                        assert delta % p == 0, (bound, i, side, p)
    assert hits >= 50, hits


def test_pinned_discriminants():
    curves = cached_pencil(42).det_curves()
    assert abs(discriminant(curves.f_plus)) == 6985432436106805936128
    assert abs(discriminant(curves.f_minus)) == 6731478357171826471905471234048
    assert discriminant(_diagonal().det_curves().f_plus) == 0
    assert discriminant(with_q_plus(SINGULAR_OFF_FP_Q_PLUS).det_curves().f_plus) == 0
    delta = discriminant(with_q_plus(BAD_REDUCTION_Q_PLUS).det_curves().f_plus)
    assert abs(delta) == 3469130325785824683098112
    assert [p for p in (101, 103, 107) if delta % p == 0] == [101]


def test_genericity_verdicts_follow_the_discriminants():
    rep = genericity_check(with_q_plus(SINGULAR_OFF_FP_Q_PLUS))
    assert (rep.e_plus_smooth, rep.e_minus_smooth, rep.nine_points) == (False, True, True)
    plus, minus, resultant = rep.witnesses
    assert plus == {"kind": "discriminant", "side": "plus", "delta": 0}
    assert minus["delta"] != 0 and resultant["squarefree"]
    assert genericity_check(with_q_plus(BAD_REDUCTION_Q_PLUS)).all_ok()
