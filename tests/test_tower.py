"""Integer-coordinate quadratic towers against a Fraction-coordinate
reference: the arithmetic tower elements used to do coordinate by coordinate
in Fractions is kept here as the oracle."""

from fractions import Fraction
from math import gcd

import pytest

from quadclif.exactalg import is_square_fraction
from quadclif.fiber import NumberElem, QuadraticTower
from quadclif.pencil import _derived_rng


# towers at levels 0, 1 and 2, with negative and non-integer radicands
TOWERS = [(), (2,), (-3,), (Fraction(3, 5),), (-1, Fraction(3, 5)),
          (2, -3), (Fraction(3, 5), 7), (Fraction(-7, 4), Fraction(5, 9))]


# -- the Fraction-coordinate reference -----------------------------------------

def ref_add(x, y):
    return tuple(a + b for a, b in zip(x, y))


def ref_sub(x, y):
    return tuple(a - b for a, b in zip(x, y))


def ref_mul(rads, x, y):
    a = Fraction(rads[0]) if len(rads) >= 1 else Fraction(0)
    b = Fraction(rads[1]) if len(rads) >= 2 else Fraction(0)
    out = [Fraction(0)] * 4
    for i, ci in enumerate(x):
        for j, cj in enumerate(y):
            s = ci * cj
            if i & j & 1:
                s *= a
            if i & j & 2:
                s *= b
            out[i ^ j] += s
    return tuple(out)


def ref_inverse(rads, x):
    conj_b = (x[0], x[1], -x[2], -x[3])
    n = ref_mul(rads, x, conj_b)
    conj_a = (n[0], -n[1], Fraction(0), Fraction(0))
    r = ref_mul(rads, n, conj_a)
    assert not (r[1] or r[2] or r[3]) and r[0]
    inv = (1 / r[0], Fraction(0), Fraction(0), Fraction(0))
    return ref_mul(rads, ref_mul(rads, conj_b, conj_a), inv)


def ref_sqrt(rads, v):
    """Coordinates of a square root of the rational v as c, c√a, c√b or
    c√ab, tried in that order, or None."""
    if v == 0:
        return (Fraction(0),) * 4
    carries = [Fraction(1)]
    if len(rads) >= 1:
        carries.append(Fraction(rads[0]))
    if len(rads) >= 2:
        carries += [Fraction(rads[1]), Fraction(rads[0]) * Fraction(rads[1])]
    for k, carry in enumerate(carries):
        s = is_square_fraction(v / carry)
        if s is not None:
            return tuple(s if i == k else Fraction(0) for i in range(4))
    return None


# -- seeded elements -----------------------------------------------------------

def random_coords(rng, level):
    out = []
    for k in range(4):
        if k >= 1 << level or rng.random() < 0.25:
            out.append(Fraction(0))
        else:
            out.append(Fraction(rng.randint(-30, 30), rng.randint(1, 12)))
    return tuple(out)


def pairs(label, count=120):
    for rads in TOWERS:
        t = QuadraticTower(rads)
        rng = _derived_rng("test", "tower", label, str(rads))
        for _ in range(count):
            x, y = random_coords(rng, t.level), random_coords(rng, t.level)
            yield t, rads, x, y


def canonical(e):
    return e.d > 0 and gcd(*e.n, e.d) == 1 and all(isinstance(v, int) for v in e.n)


def test_field_operations_match_reference():
    for t, rads, x, y in pairs("ops"):
        ex, ey = t.make(*x), t.make(*y)
        assert ex.c == x and canonical(ex)
        results = [(ex + ey, ref_add(x, y)), (ex - ey, ref_sub(x, y)),
                   (ex * ey, ref_mul(rads, x, y)),
                   (-ex, tuple(-v for v in x))]
        if any(y):
            results.append((ex / ey, ref_mul(rads, x, ref_inverse(rads, y))))
            results.append((ey.inverse(), ref_inverse(rads, y)))
            results.append((Fraction(1) / ey, ref_inverse(rads, y)))
        for got, want in results:
            assert got.c == want
            assert canonical(got)


def test_mixed_operands_match_reference():
    rng = _derived_rng("test", "tower", "mixed")
    for t, rads, x, _ in pairs("mixed", 40):
        ex = t.make(*x)
        for q in (rng.randint(-9, 9), Fraction(rng.randint(-9, 9), rng.randint(1, 9))):
            qc = (Fraction(q), Fraction(0), Fraction(0), Fraction(0))
            assert (ex + q).c == (q + ex).c == ref_add(x, qc)
            assert (ex - q).c == ref_sub(x, qc)
            assert (q - ex).c == ref_sub(qc, x)
            assert (ex * q).c == (q * ex).c == ref_mul(rads, x, qc)
            if q:
                assert (ex / q).c == ref_mul(rads, x, ref_inverse(rads, qc))
            if any(x):
                assert (q / ex).c == ref_mul(rads, qc, ref_inverse(rads, x))


def test_zero_has_no_inverse():
    for rads in TOWERS:
        t = QuadraticTower(rads)
        with pytest.raises(ZeroDivisionError):
            t.zero.inverse()
        with pytest.raises(ZeroDivisionError):
            t.one / t.zero


def test_canonical_form_is_unique():
    """Equal values reached by different routes have equal (n, d), and
    equality implies equal hashes."""
    for t, rads, x, y in pairs("canonical", 60):
        ex, ey = t.make(*x), t.make(*y)
        routes = [ex + ey - ey, ex * t.make(3) / t.make(3)]
        if any(y):
            routes += [ex * ey / ey, ex / ey * ey]
        scale = Fraction(7, 3)
        routes.append(t.make(*(v * scale for v in x)) * Fraction(3, 7))
        for r in routes:
            assert r == ex
            assert (r.n, r.d) == (ex.n, ex.d)
            assert hash(r) == hash(ex)
        assert (ex == ey) == (x == y)
        if ex == ey:
            assert hash(ex) == hash(ey)
    t = QuadraticTower(())
    assert (t.make(0).n, t.make(0).d) == ((0, 0, 0, 0), 1)
    assert (t.make(Fraction(2, 4)).n, t.make(Fraction(2, 4)).d) == ((1, 0, 0, 0), 2)
    assert NumberElem(t, (2, 0, 0, 0), -4).n == (-1, 0, 0, 0)


def test_rational_elements_hash_like_their_value():
    for rads in TOWERS:
        t = QuadraticTower(rads)
        for q in (0, 1, -5, Fraction(3, 5), Fraction(-7, 4)):
            e = t.coerce(q)
            assert e == q and e.is_rational() and e.rational_value() == q
            assert hash(e) == hash(q)
            assert {e: 1}.get(q) == 1


def test_repr_and_view():
    t = QuadraticTower((Fraction(3, 5), -2))
    e = t.make(Fraction(1, 2), 0, -3, Fraction(2, 3))
    assert repr(e) == "1/2 + -3*sqrt(-2) + 2/3*sqrt(-6/5)"
    assert e.c == (Fraction(1, 2), Fraction(0), Fraction(-3), Fraction(2, 3))
    assert e.d == 6 and e.n == (3, 0, -18, 4)
    with pytest.raises(AttributeError):
        e.c = (1, 0, 0, 0)
    assert repr(t.zero) == "0"


def test_sqrt_and_extended_match_reference():
    rng = _derived_rng("test", "tower", "sqrt")
    for rads in TOWERS:
        t = QuadraticTower(rads)
        carries = [Fraction(1)] + [Fraction(r) for r in rads]
        if len(rads) == 2:
            carries.append(Fraction(rads[0]) * Fraction(rads[1]))
        for _ in range(40):
            base = Fraction(rng.randint(-12, 12), rng.randint(1, 6))
            # squares times a carry, and values that are not squares at all
            v = base * base * rng.choice(carries) if rng.random() < 0.7 else base
            got = t.sqrt(v)
            want = ref_sqrt(rads, v)
            assert (got is None) == (want is None)
            if got is not None:
                assert got.c == want
                assert got * got == v
            if v == 0 or len(rads) == 2 and want is None:
                continue
            t2, s = t.extended(v)
            assert s * s == v
            if want is None:
                assert t2.radicands == t.radicands + (v,)
            else:
                assert t2 is t and s.c == want


def test_shallow_elements_embed_in_deeper_towers():
    for t, rads, x, y in pairs("embed", 40):
        if t.level == 0:
            continue
        shallow = QuadraticTower(rads[:-1])
        xs = random_coords(_derived_rng("test", "embed", str(x)), shallow.level)
        es = shallow.make(*xs)
        ey = t.make(*y)
        deep = t.coerce(es)
        assert deep.field is t and deep.c == xs
        assert deep == es and es == deep and hash(deep) == hash(es)
        # the deeper operand coerces the shallower one
        for got, want in ((ey + es, ref_add(y, xs)), (ey * es, ref_mul(rads, y, xs)),
                          (ey - es, ref_sub(y, xs))):
            assert got.field is t and got.c == want
        with pytest.raises(ValueError):
            shallow.coerce(ey)
    with pytest.raises(ValueError):
        QuadraticTower((2,)).coerce(QuadraticTower((3,)).make(0, 1))
    with pytest.raises(TypeError):
        QuadraticTower(()).coerce(1.5)
