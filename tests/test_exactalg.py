"""Kernel tests: fields, polynomials, determinants, resultants, and the
shared elimination (rref) with everything derived from it."""

import random
from fractions import Fraction

import pytest

from quadclif import exactalg
from quadclif.exactalg import (
    QQ,
    SQUAREFREE_FIELDS,
    PrimeField,
    PolyRing,
    SymMatrix,
    adjugate3,
    bareiss_det,
    det_cofactor,
    interpolate_int,
    is_square_fraction,
    kernel_int_sparse,
    mat_kernel,
    mat_rank,
    mat_solve,
    rref,
    span_coords,
    squarefree_univariate,
    sylvester_resultant,
)
from quadclif.fiber import QuadraticTower
from quadclif.pencil import _derived_rng

from conftest import (
    QQI,
    GaussianRational,
    as_univariate,
    coeff_of_power,
    fp_sqrt,
    is_homogeneous,
    poly_bareiss_det,
    poly_exact_div,
    poly_sylvester_resultant,
    total_degree,
)


F101 = PrimeField(101)
TOWER = QuadraticTower((2, 3))


def rand_fraction(rng, bound=9):
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))


def sparse_fraction(rng):
    return rand_fraction(rng, 3) if rng.random() < 0.7 else Fraction(0)


# (field, sampler) pairs for the seeded property tests: Q, a prime field,
# and a two-level quadratic tower; entries are often zero so pivots move.
FIELDS = (
    (QQ, sparse_fraction),
    (F101, lambda rng: F101.coerce(rng.randrange(101) if rng.random() < 0.7 else 0)),
    (TOWER, lambda rng: TOWER.make(*(sparse_fraction(rng) for _ in range(4)))),
)


def low_rank_matrix(rng, field, draw, nrows, ncols, k):
    """nrows × ncols product of random nrows × k and k × ncols factors."""
    left = [[draw(rng) for _ in range(k)] for _ in range(nrows)]
    right = [[draw(rng) for _ in range(ncols)] for _ in range(k)]
    return [[sum((l[t] * right[t][j] for t in range(k)), field.zero)
             for j in range(ncols)] for l in left]


def matvec(rows, v, zero):
    return [sum((a * b for a, b in zip(row, v)), zero) for row in rows]


def leibniz3(m):
    """Oracle: the six-term Leibniz expansion of a 3×3 determinant."""
    return (m[0][0] * m[1][1] * m[2][2] + m[0][1] * m[1][2] * m[2][0]
            + m[0][2] * m[1][0] * m[2][1] - m[0][0] * m[1][2] * m[2][1]
            - m[0][1] * m[1][0] * m[2][2] - m[0][2] * m[1][1] * m[2][0])


def assert_adjugate_identity(m, zero):
    """m·adj(m) = adj(m)·m = det(m)·I with the Leibniz determinant."""
    adj = adjugate3(m)
    det = leibniz3(m)
    for left, right in ((m, adj), (adj, m)):
        for i in range(3):
            for j in range(3):
                entry = sum((left[i][k] * right[k][j] for k in range(3)), zero)
                assert entry == (det if i == j else zero)


# -- fields -----------------------------------------------------------------


def test_prime_field_arithmetic():
    a = F101.coerce(45)
    b = F101.coerce(77)
    assert a + b == 45 + 77
    assert a * b == (45 * 77) % 101
    assert (a / b) * b == a
    assert -a == 101 - 45
    assert bool(F101.zero) is False
    with pytest.raises(ZeroDivisionError):
        a / F101.zero


def test_prime_field_fraction_coercion():
    x = F101.coerce(Fraction(3, 7))
    assert x * 7 == 3


def test_prime_field_sqrt():
    r = fp_sqrt(F101.coerce(4))
    assert r is not None and r * r == 4
    # 101 = 1 mod 4 so -1 is a square
    r = fp_sqrt(F101.coerce(-1))
    assert r is not None and r * r == -1
    # 103 = 3 mod 4 so it is not
    assert fp_sqrt(PrimeField(103).coerce(-1)) is None


def test_gaussian_rationals():
    i = QQI.i
    assert i * i == -1
    z = GaussianRational(2, 3)
    w = GaussianRational(Fraction(1, 2), -1)
    assert (z * w) / w == z
    assert z + w - w == z
    assert bool(QQI.zero) is False


def test_field_axioms_random_triples():
    rng = random.Random(7)
    for field, sample in [
        (QQ, lambda: rand_fraction(rng)),
        (F101, lambda: F101.coerce(rng.randrange(101))),
        (QQI, lambda: GaussianRational(rand_fraction(rng), rand_fraction(rng))),
    ]:
        for _ in range(25):
            a, b, c = sample(), sample(), sample()
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            if b:
                assert (a / b) * b == a


def test_is_square_fraction():
    assert is_square_fraction(Fraction(9, 4)) == Fraction(3, 2)
    assert is_square_fraction(Fraction(2)) is None
    assert is_square_fraction(Fraction(-1)) is None
    assert is_square_fraction(Fraction(0)) == 0


# -- polynomials --------------------------------------------------------------


@pytest.fixture
def Ru():
    return PolyRing(QQ, ("u1", "u2", "u3"))


def rand_poly(rng, ring, deg=3, nterms=6):
    items = []
    for _ in range(nterms):
        e = [0] * len(ring.vars)
        for _ in range(rng.randint(0, deg)):
            e[rng.randrange(len(ring.vars))] += 1
        items.append((tuple(e), rand_fraction(rng)))
    return ring.from_terms(items)


def test_poly_ring_axioms(Ru):
    rng = random.Random(11)
    for _ in range(20):
        f, g, h = (rand_poly(rng, Ru) for _ in range(3))
        assert (f + g) * h == f * h + g * h
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)
        assert f - f == Ru.zero()


def _termwise_product(f, g):
    """The product summed over all pairs of terms, the general path."""
    out = {}
    for e1, c1 in f.terms.items():
        for e2, c2 in g.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, f.ring.field.zero) + c1 * c2
    return f.ring.from_terms([(e, c) for e, c in out.items() if c])


@pytest.mark.parametrize("field", [QQ, PrimeField(101), QQI], ids=["Q", "F101", "QI"])
def test_constant_factor_products_match_termwise(field):
    # a nonzero constant factor scales the other operand's coefficients
    # (and the constant 1 returns it unchanged) instead of pairing terms
    R = PolyRing(field, ("u1", "u2", "u3"))
    rng = random.Random(12)
    # rational polynomials, coefficients coerced into the field
    polys = [R.from_terms(rand_poly(rng, PolyRing(QQ, R.vars)).terms.items())
             for _ in range(4)]
    consts = [R.one(), R.const(-1), R.const(Fraction(3, 2)), R.zero()]
    if field is QQI:
        consts.append(R.const(QQI.i))
    for f in polys + consts:
        for c in consts:
            assert f * c == c * f == _termwise_product(f, c)


def test_poly_eval_matches_structure(Ru):
    u1, u2, u3 = (Ru.var(v) for v in Ru.vars)
    f = u1 * u2 - 3 * u3 ** 2 + 1
    assert f.eval([2, 5, 1]) == 2 * 5 - 3 + 1
    assert total_degree(f) == 2
    assert not is_homogeneous(f)
    assert is_homogeneous(u1 * u2 * u3)


def test_poly_derivative_and_euler(Ru):
    rng = random.Random(3)
    # Euler identity: sum u_i df/du_i = d*f for homogeneous f
    for d in range(1, 6):
        items = []
        for _ in range(8):
            e = [0, 0, 0]
            for _ in range(d):
                e[rng.randrange(3)] += 1
            items.append((tuple(e), rand_fraction(rng)))
        f = Ru.from_terms(items)
        if f.is_zero():
            continue
        lhs = Ru.zero()
        for v in Ru.vars:
            lhs = lhs + Ru.var(v) * f.derivative(v)
        assert lhs == f * d


def test_poly_subs(Ru):
    u1, u2, u3 = (Ru.var(v) for v in Ru.vars)
    f = u1 ** 2 + u2 * u3
    g = f.subs({"u1": u2, "u2": u3, "u3": u1})
    assert g == u2 ** 2 + u3 * u1


def test_poly_exact_div(Ru):
    rng = random.Random(5)
    for _ in range(15):
        f = rand_poly(rng, Ru)
        g = rand_poly(rng, Ru)
        if g.is_zero():
            continue
        assert poly_exact_div(f * g, g) == f
    u1 = Ru.var("u1")
    with pytest.raises(ValueError):
        poly_exact_div(u1 + 1, u1 * u1)


def test_coeff_of_power(Ru):
    u1, u2, u3 = (Ru.var(v) for v in Ru.vars)
    f = u3 ** 2 * u1 + u3 * u2 + 5
    assert coeff_of_power(f, "u3", 2) == u1
    assert coeff_of_power(f, "u3", 1) == u2
    assert coeff_of_power(f, "u3", 0) == Ru.const(5)


def test_serialization_grlex_order(Ru):
    u1, u2, u3 = (Ru.var(v) for v in Ru.vars)
    f = u2 + u1 ** 2 + u3 + 1
    terms = f.to_json_terms()
    assert terms[0][0] == [2, 0, 0]
    assert terms[-1][0] == [0, 0, 0]
    assert terms[1][0] == [0, 1, 0] and terms[2][0] == [0, 0, 1]


# -- symmetric matrices ---------------------------------------------------------


def test_det3_symbolic():
    ring = PolyRing(QQ, ("a", "b", "c", "d", "e", "f"))
    a, b, c, d, e, f = (ring.var(v) for v in ring.vars)
    M = SymMatrix(ring, [[a, b, c], [b, d, e], [c, e, f]])
    expect = a * d * f + 2 * b * e * c - a * e * e - d * c * c - f * b * b
    assert M.det() == expect
    assert leibniz3(M.rows) == expect
    assert poly_bareiss_det([list(r) for r in M.rows], ring) == expect


def test_adjugate_identity_rational():
    rng = random.Random(13)
    ring = PolyRing(QQ, ("t",))
    for _ in range(100):
        vals = [[Fraction(rng.randint(-5, 5)) for _ in range(3)] for _ in range(3)]
        rows = [[ring.const(vals[min(i, j)][max(i, j)]) for j in range(3)] for i in range(3)]
        M = SymMatrix(ring, rows)
        A = adjugate3(M.rows)
        SymMatrix(ring, A)  # raises unless the adjugate is symmetric too
        det = M.det()
        for i in range(3):
            for j in range(3):
                entry = sum((M[i, k] * A[k][j] for k in range(3)), ring.zero())
                assert entry == (det if i == j else ring.zero())
    # the same identity over every ring the package feeds it
    Ru = PolyRing(QQ, ("u1", "u2", "u3"))
    rng = _derived_rng("test", "adjugate3")
    for _ in range(10):
        assert_adjugate_identity(
            [[rand_poly(rng, Ru, deg=1, nterms=2) for _ in range(3)] for _ in range(3)],
            Ru.zero())
    for field, draw in FIELDS:
        for _ in range(20):
            assert_adjugate_identity(
                [[draw(rng) for _ in range(3)] for _ in range(3)], field.zero)
    p = 101
    for _ in range(50):
        m = [[rng.randrange(p) for _ in range(3)] for _ in range(3)]
        adj = [[x % p for x in row] for row in adjugate3(m)]
        det = leibniz3(m) % p
        for i in range(3):
            for j in range(3):
                entry = sum(m[i][k] * adj[k][j] for k in range(3)) % p
                assert entry == (det if i == j else 0)


def test_adjugate_vanishes_on_corank_two():
    ring = PolyRing(QQ, ("t",))
    z, o = ring.zero(), ring.one()
    M = SymMatrix(ring, [[o, z, z], [z, z, z], [z, z, z]])
    A = adjugate3(M.rows)
    assert all(not A[i][j] for i in range(3) for j in range(3))


def identity_matrix(ring, n):
    one, zero = ring.one(), ring.zero()
    return SymMatrix(ring, [[one if i == j else zero for j in range(n)]
                            for i in range(n)])


def test_identity_matrix(Ru):
    I = identity_matrix(Ru, 3)
    assert I.det() == Ru.one()


# -- resultants ------------------------------------------------------------------


def rand_int_matrix(rng, n, bound=9):
    return [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]


def test_bareiss_matches_cofactor_det(Ru):
    rng = random.Random(17)
    for _ in range(10):
        vals = [[None] * 3 for _ in range(3)]
        for i in range(3):
            for j in range(i, 3):
                vals[i][j] = vals[j][i] = rand_poly(rng, Ru, deg=1, nterms=2)
        M = SymMatrix(Ru, vals)
        assert poly_bareiss_det([list(r) for r in M.rows], Ru) == M.det()
    # general square polynomial matrices, singular ones included
    rng = _derived_rng("test", "bareiss")
    for n in (1, 2, 3, 4):
        for _ in range(6):
            rows = [[rand_poly(rng, Ru, deg=1, nterms=2) for _ in range(n)]
                    for _ in range(n)]
            if n > 1 and rng.random() < 0.3:
                rows[-1] = list(rows[0])
            assert poly_bareiss_det(rows, Ru) == det_cofactor(rows, Ru)
    # the integer elimination, against cofactor expansion over constants
    for n in range(1, 6):
        for _ in range(20):
            m = rand_int_matrix(rng, n)
            if n > 1 and rng.random() < 0.3:
                m[-1] = [2 * x for x in m[0]]
            if rng.random() < 0.3:
                m[0][0] = 0  # forces a row swap
            rows = [[Ru.const(x) for x in r] for r in m]
            assert bareiss_det(m) == det_cofactor(rows, Ru)
    assert bareiss_det([]) == 1
    assert bareiss_det([[0, 1], [1, 0]]) == -1
    assert bareiss_det([[0, 1], [0, 2]]) == 0


def test_integer_bareiss_takes_only_integers():
    for bad in ([[1.0, 2], [3, 4]], [[Fraction(1, 2), 2], [3, 4]]):
        with pytest.raises(ValueError):
            bareiss_det(bad)
    assert bareiss_det([[Fraction(3), 1], [1, 1]]) == 2
    with pytest.raises(ValueError):
        bareiss_det([[1, 2], [3, 4], [5, 6]])


def test_resultant_degree_and_specialization():
    ring = PolyRing(QQ, ("s", "t"))
    s, t = ring.var("s"), ring.var("t")
    # res_t of (t - s)(t - 2s) and (t - 3s) is product of differences
    f = (t - s) * (t - 2 * s)
    g = t - 3 * s
    r = poly_sylvester_resultant(f, g, "t")
    assert r == (3 * s - s) * (3 * s - 2 * s)
    # the integer route at each s, on the same coefficient lists
    for v in range(-4, 5):
        fv = [2 * v * v, -3 * v, 1]
        gv = [-3 * v, 1]
        assert sylvester_resultant(fv, gv) == r.eval([v, 0])


def test_resultant_shared_root_vanishes():
    ring = PolyRing(QQ, ("s", "t"))
    s, t = ring.var("s"), ring.var("t")
    f = (t - s) * (t + 1)
    g = (t - s) * (t - 2)
    assert poly_sylvester_resultant(f, g, "t").is_zero()
    # (t − 5)(t + 1) and (t − 5)(t − 2)
    assert sylvester_resultant([-5, -4, 1], [10, -7, 1]) == 0


def from_roots(roots, lead=1):
    """Integer coefficients [c0..cd] of lead·Π(t − a)."""
    coeffs = [lead]
    for a in roots:
        coeffs = [-a * coeffs[0]] + [x - a * y for x, y in zip(coeffs, coeffs[1:] + [0])]
    return coeffs


def test_resultant_vs_fp_bruteforce():
    # over F_p: res(f,g) = 0 iff f and g share a root, when leading
    # coefficients do not vanish
    p = 11
    Fp = PrimeField(p)
    ring = PolyRing(Fp, ("t",))
    t = ring.var("t")
    rng = random.Random(23)
    for _ in range(40):
        f = ring.one()
        for _ in range(2):
            f = f * (t - rng.randrange(p))
        g = ring.one()
        for _ in range(2):
            g = g * (t - rng.randrange(p))
        r = poly_sylvester_resultant(f, g, "t")
        roots_f = {a for a in range(p) if not f.eval([a])}
        roots_g = {a for a in range(p) if not g.eval([a])}
        assert r.is_zero() == bool(roots_f & roots_g)
    # over Z: Res(a·Π(t − αᵢ), b·Π(t − βⱼ)) = a^n·b^m·Π(αᵢ − βⱼ)
    for _ in range(40):
        af = [rng.randint(-6, 6) for _ in range(rng.randint(0, 4))]
        bg = [rng.randint(-6, 6) for _ in range(rng.randint(0, 4))]
        a, b = rng.choice([-3, -1, 1, 2]), rng.choice([-2, 1, 5])
        want = a ** len(bg) * b ** len(af)
        for x in af:
            for y in bg:
                want *= x - y
        assert sylvester_resultant(from_roots(af, a), from_roots(bg, b)) == want


def test_resultant_multiplicative_in_first_arg():
    ring = PolyRing(QQ, ("s", "t"))
    s, t = ring.var("s"), ring.var("t")
    f1 = t - s
    f2 = t ** 2 + s ** 2 + 1
    g = t - 2 * s + 1
    lhs = poly_sylvester_resultant(f1 * f2, g, "t")
    rhs = poly_sylvester_resultant(f1, g, "t") * poly_sylvester_resultant(f2, g, "t")
    assert lhs == rhs
    rng = random.Random(29)
    for _ in range(20):
        f1, f2, g = ([rng.randint(-5, 5) for _ in range(rng.randint(1, 3))] + [rng.randint(1, 4)]
                     for _ in range(3))
        prod = [sum(f1[i] * f2[k - i] for i in range(len(f1)) if 0 <= k - i < len(f2))
                for k in range(len(f1) + len(f2) - 1)]
        assert (sylvester_resultant(prod, g)
                == sylvester_resultant(f1, g) * sylvester_resultant(f2, g))


def test_integer_resultant_matches_the_multipoly_oracle():
    ring = PolyRing(QQ, ("t",))
    rng = _derived_rng("test", "int-resultant")
    for _ in range(60):
        f, g = ([rng.randint(-7, 7) for _ in range(rng.randint(0, 4))] + [rng.choice([-2, 1, 3])]
                for _ in range(2))
        fp, gp = (ring.from_terms(((k,), c) for k, c in enumerate(v)) for v in (f, g))
        assert sylvester_resultant(f, g) == poly_sylvester_resultant(fp, gp, "t").eval([0])
    for bad in (([1, 2, 0], [1, 1]), ([], [1]), ([1, 2.0], [1, 1]),
                ([1, Fraction(1, 2)], [1, 1])):
        with pytest.raises(ValueError):
            sylvester_resultant(*bad)


def test_interpolate_int_round_trip():
    rng = _derived_rng("test", "interpolate")
    for n in range(0, 11):
        for _ in range(10):
            coeffs = [rng.randint(-10 ** 6, 10 ** 6) for _ in range(n + 1)]
            values = [sum(c * t ** k for k, c in enumerate(coeffs)) for t in range(n + 1)]
            assert interpolate_int(values) == coeffs
    # t(t − 1)/2 is integer-valued but not in Z[t]
    with pytest.raises(ArithmeticError):
        interpolate_int([0, 0, 1])
    with pytest.raises(ValueError):
        interpolate_int([0, 1.0, 4])


def test_squarefree_detection():
    t = PolyRing(QQ, ("t",)).var("t")
    sf, _ = squarefree_univariate(as_univariate((t - 1) * (t - 2) * (t + 3), "t"))
    assert sf
    sf, g = squarefree_univariate(as_univariate((t - 1) ** 2 * (t + 5), "t"))
    assert not sf
    assert g == [-1, 1]  # monic t − 1


def gcd_fields(monkeypatch):
    """The names of the fields of every gcd squarefree_univariate takes,
    in order, as a list that fills while the test runs."""
    seen = []
    real = exactalg._gcd_with_derivative

    def spy(h, field):
        seen.append(field.name)
        return real(h, field)

    monkeypatch.setattr(exactalg, "_gcd_with_derivative", spy)
    return seen


def poly_mul(a, b):
    return [sum(a[i] * b[k - i] for i in range(len(a)) if 0 <= k - i < len(b))
            for k in range(len(a) + len(b) - 1)]


def discriminant_squarefree(h):
    """Oracle: h ∈ Z[t] of degree ≥ 1 is squarefree over Q iff
    Res(h, h′) ≠ 0, by the MultiPoly elimination."""
    ring = PolyRing(QQ, ("t",))
    hp = ring.from_terms(((k,), c) for k, c in enumerate(h))
    return not poly_sylvester_resultant(hp, hp.derivative("t"), "t").is_zero()


def test_squarefree_certificate_matches_the_exact_gcd(monkeypatch):
    seen = gcd_fields(monkeypatch)
    p1, p2, p3 = (F.p for F in SQUAREFREE_FIELDS)
    rng = _derived_rng("test", "squarefree-certificate")
    verdicts = {True: 0, False: 0}
    for i in range(150):
        h = [rng.randint(-9, 9) for _ in range(rng.randint(1, 6))] + [rng.choice([-3, 1, 2])]
        if i % 3 == 0:  # a constructed square factor g²
            g = [rng.randint(-4, 4) for _ in range(rng.randint(1, 2))] + [rng.choice([-1, 1, 2])]
            h = poly_mul(poly_mul(g, g), h)
        if i % 5 == 0:
            h = [p1 * c for c in h]  # the first prime divides lc(h)
        del seen[:]
        sf, gcd = squarefree_univariate(h)
        # a "not squarefree" verdict always comes from the gcd over Q
        assert seen[0] == ("F%d" % (p2 if i % 5 == 0 else p1))
        assert sf or seen[-1] == "Q"
        assert sf == discriminant_squarefree(h), h
        del seen[:]
        assert gcd == exactalg._gcd_with_derivative([Fraction(c) for c in h], QQ)
        if i % 3 == 0:
            assert not sf
        verdicts[sf] += 1
    assert min(verdicts.values()) >= 30, verdicts

    # p | lc(h) for every listed prime: the exact gcd alone decides
    del seen[:]
    assert squarefree_univariate([1, 0, p1 * p2 * p3]) == (True, [1])
    assert seen == ["Q"]
    # (t² − p)·(t + 1) is squarefree over Q but is t²·(t + 1) mod p:
    # the certificate fails and the exact gcd returns True
    del seen[:]
    assert squarefree_univariate(poly_mul([-p1, 0, 1], [1, 1])) == (True, [1])
    assert seen == ["F%d" % p1, "Q"]
    # a certified h takes the F_p gcd only
    del seen[:]
    assert squarefree_univariate([-2, 0, 1]) == (True, [1])
    assert seen == ["F%d" % p1]
    for bad in ([1, 2.0, 1], [1, Fraction(1, 2)], [0, 0]):
        with pytest.raises(ValueError):
            squarefree_univariate(bad)


def test_as_univariate_rejects_extra_vars(Ru):
    f = Ru.var("u1") + Ru.var("u2")
    with pytest.raises(ValueError):
        as_univariate(f, "u1")


def gradient(f):
    """Tuple of partial derivatives in ring order."""
    return tuple(f.derivative(v) for v in f.ring.vars)


def test_gradient(Ru):
    u1, u2, u3 = (Ru.var(v) for v in Ru.vars)
    f = u1 * u2 * u3
    g = gradient(f)
    assert g == (u2 * u3, u1 * u3, u1 * u2)


# -- numeric linear algebra -----------------------------------------------------


def test_rank_kernel_consistency():
    rng = random.Random(29)
    for _ in range(30):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
        rows = [[rand_fraction(rng, 3) for _ in range(ncols)] for _ in range(nrows)]
        r = mat_rank(rows)
        ker = mat_kernel(rows, ncols, QQ)
        assert r + len(ker) == ncols
        for v in ker:
            for row in rows:
                assert sum(a * b for a, b in zip(row, v)) == 0
    # rref and what is read off it, against their definitions
    for field, draw in FIELDS:
        rng = _derived_rng("test", "rref", field.name)
        for _ in range(15):
            nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
            k = rng.randint(0, 4)
            rows = low_rank_matrix(rng, field, draw, nrows, ncols, k)
            pivots, reduced = rref(rows)
            assert mat_rank(rows) == len(pivots) == len(reduced) <= k
            assert pivots == sorted(set(pivots))
            for p, row in zip(pivots, reduced):
                assert row[p] == field.one
                assert not any(row[:p])
                assert all(not other[p] for other in reduced if other is not row)
            for row in rows:
                coords = span_coords(pivots, reduced, row)
                assert coords is not None
                combo = [sum((c * red[j] for c, red in zip(coords, reduced)),
                             field.zero) for j in range(ncols)]
                assert combo == list(row)
            v = [draw(rng) for _ in range(ncols)]
            outside = mat_rank(rows + [v]) > len(pivots)
            assert (span_coords(pivots, reduced, v) is None) == outside
            ker = mat_kernel(rows, ncols, field)
            free = [c for c in range(ncols) if c not in pivots]
            assert len(ker) == len(free) == ncols - len(pivots)
            for fc, v in zip(free, ker):
                assert all(v[c] == (field.one if c == fc else field.zero)
                           for c in free)
                assert not any(matvec(rows, v, field.zero))


def test_det_and_solve():
    rng = random.Random(31)
    for _ in range(20):
        n = rng.randint(1, 4)
        rows = [[rand_fraction(rng, 4) for _ in range(n)] for _ in range(n)]
        if mat_rank(rows) < n:
            continue
        x_true = [rand_fraction(rng, 4) for _ in range(n)]
        rhs = [sum(a * b for a, b in zip(row, x_true)) for row in rows]
        x = mat_solve(rows, rhs, QQ)
        assert x == x_true
    for field, draw in FIELDS:
        rng = _derived_rng("test", "solve", field.name)
        for _ in range(15):
            ncols = rng.randint(1, 4)
            nrows = ncols + rng.randint(0, 2)
            k = rng.randint(1, 4)
            rows = low_rank_matrix(rng, field, draw, nrows, ncols, k)
            x_true = [draw(rng) for _ in range(ncols)]
            rhs = matvec(rows, x_true, field.zero)
            if mat_rank(rows) == ncols:
                assert mat_solve(rows, rhs, field) == x_true
            else:
                with pytest.raises(ValueError):
                    mat_solve(rows, rhs, field)
            # a right-hand side outside the column span is inconsistent
            bumped = list(rhs)
            for i in range(nrows):
                bumped[i] = bumped[i] + draw(rng)
            augmented = [list(r) + [b] for r, b in zip(rows, bumped)]
            if mat_rank(augmented) > mat_rank(rows):
                assert mat_solve(rows, bumped, field) is None


def test_adjugate3_numeric():
    rng = random.Random(37)
    for _ in range(50):
        m = [[rand_fraction(rng, 4) for _ in range(3)] for _ in range(3)]
        adj = adjugate3(m)
        d = leibniz3(m)
        prod = [
            [sum(m[i][k] * adj[k][j] for k in range(3)) for j in range(3)]
            for i in range(3)
        ]
        for i in range(3):
            for j in range(3):
                assert prod[i][j] == (d if i == j else 0)


def test_kernel_int_sparse():
    # rows encode x0 + 2 x1 = 0, x2 free
    rows = [{0: 1, 1: 2}]
    basis = kernel_int_sparse(rows, 3)
    assert len(basis) == 2
    for v in basis:
        assert v[0] * 1 + v[1] * 2 == 0
    # random consistency with dense rational kernel
    rng = random.Random(41)
    for _ in range(20):
        nrows, ncols = rng.randint(1, 4), rng.randint(2, 6)
        dense = [[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(nrows)]
        sparse = [{j: r[j] for j in range(ncols) if r[j]} for r in dense]
        b1 = kernel_int_sparse(sparse, ncols)
        b2 = mat_kernel([[Fraction(x) for x in r] for r in dense], ncols, QQ)
        assert len(b1) == len(b2)
        for v in b1:
            for row in dense:
                assert sum(a * b for a, b in zip(row, v)) == 0
