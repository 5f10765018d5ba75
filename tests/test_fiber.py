"""Quadratic towers, structure-constant algebras, and fiber certification."""

import random
from dataclasses import dataclass
from fractions import Fraction

import pytest

from quadclif.checks import CheckContext, run_single
from quadclif.clifford import CliffordAlgebra, lift
from quadclif.exactalg import PrimeField, QQ, mat_rank, mat_solve
from quadclif.fiber import (
    FiberError,
    FinAlg,
    QuadraticTower,
    SideFibers,
    _corner_by_idempotent,
    _divisors,
    _rational_roots,
    center_basis,
    center_dim,
    certify_matrix_algebra,
    certify_tensor_product,
    clifford_fiber,
    corank1_quotient,
    corner_algebra,
    describe_field,
    eval_element,
    gram_matrix,
    radical_dim,
    rational_curve_point,
    sample_invertible_points,
    side_fiber,
    tensor_product,
)
from quadclif.pencil import InvariantPencil, _derived_rng

from conftest import as_univariate, cached_pencil, fp_sqrt


def diag_matrix(*d):
    return tuple(tuple(d[i] if i == j else 0 for j in range(3)) for i in range(3))


def basis_mat(k):
    return tuple(tuple(1 if (i == j == k) else 0 for j in range(3)) for i in range(3))


def diag_pencil():
    mats = (basis_mat(0), basis_mat(1), basis_mat(2))
    return InvariantPencil(q_plus=mats, q_minus=mats, seed=0, coeff_bound=1)


# -- towers ---------------------------------------------------------------------


def test_tower_create_and_normalize():
    t, (r2, r3) = QuadraticTower.create([2, 3])
    assert t.level == 2 and t.radicands == (Fraction(2), Fraction(3))
    assert r2 * r2 == t.coerce(2)
    assert r3 * r3 == t.coerce(3)
    assert (r2 * r3) * (r2 * r3) == t.coerce(6)

    t2, (a, b) = QuadraticTower.create([4, 18])
    # 4 is a square and 18 = 9·2, so one extension suffices
    assert t2.level == 1 and t2.radicands == (Fraction(18),)
    assert a == t2.coerce(2)
    assert b * b == t2.coerce(18)

    t3, roots = QuadraticTower.create([2, 3, 6, Fraction(1, 2)])
    assert t3.level == 2
    for r, rad in zip(roots, (2, 3, 6, Fraction(1, 2))):
        assert r * r == t3.coerce(rad)

    with pytest.raises(ValueError):
        QuadraticTower.create([2, 3, 5])


def test_tower_validation():
    with pytest.raises(ValueError):
        QuadraticTower((4,))
    with pytest.raises(ValueError):
        QuadraticTower((2, 8))
    with pytest.raises(ValueError):
        QuadraticTower((0,))


def test_tower_field_axioms():
    t, _ = QuadraticTower.create([-1, 5])
    rng = random.Random("tower")

    def rand():
        return t.make(*(rng.randint(-4, 4) for _ in range(4)))

    for _ in range(25):
        x, y, z = rand(), rand(), rand()
        assert (x + y) * z == x * z + y * z
        assert x * (y * z) == (x * y) * z
        assert x * y == y * x
        if x:
            assert x * x.inverse() == t.one
            assert (y / x) * x == y


def test_tower_sqrt_forms():
    t, _ = QuadraticTower.create([2, 3])
    assert t.sqrt(t.make(Fraction(49, 4))) == t.make(Fraction(7, 2))
    assert t.sqrt(8) == t.make(0, 2)        # 2·√2
    assert t.sqrt(27) == t.make(0, 0, 3)    # 3·√3
    assert t.sqrt(24) == t.make(0, 0, 0, 2)  # 2·√6
    assert t.sqrt(5) is None
    assert t.sqrt(t.make(0, 1)) is None     # irrational input
    assert not t.sqrt(0)


def test_tower_coerce_and_inverse_errors():
    t1 = QuadraticTower(())
    t2, _ = QuadraticTower.create([2])
    assert t2.coerce(t1.one) == t2.one
    with pytest.raises(ZeroDivisionError):
        t1.zero.inverse()
    other, _ = QuadraticTower.create([3])
    with pytest.raises(ValueError):
        t2.coerce(other.make(0, 1))


# -- structure-constant algebras -------------------------------------------------


def checked(A):
    """A after check_associativity(), so it carries the proof "checked"."""
    A.check_associativity()
    return A


def m2_algebra(field=None):
    """2×2 matrices on the basis E11, E12, E21, E22."""
    field = field or QuadraticTower(())
    pairs = [(0, 0), (0, 1), (1, 0), (1, 1)]
    idx = {p: k for k, p in enumerate(pairs)}
    zero, one = field.zero, field.one
    table = []
    for (i, j) in pairs:
        row = []
        for (k, l) in pairs:
            vec = [zero] * 4
            if j == k:
                vec[idx[(i, l)]] = one
            row.append(tuple(vec))
        table.append(row)
    unit = (one, zero, zero, one)
    return checked(FinAlg(field, table, unit))


def dual_numbers(field=None):
    field = field or QuadraticTower(())
    zero, one = field.zero, field.one
    table = [
        [(one, zero), (zero, one)],
        [(zero, one), (zero, zero)],
    ]
    return checked(FinAlg(field, table, (one, zero)))


def quadratic_etale(c, field=None):
    """field[x]/(x² - c)."""
    field = field or QuadraticTower(())
    zero, one = field.zero, field.one
    cc = field.coerce(c)
    table = [
        [(one, zero), (zero, one)],
        [(zero, one), (cc, zero)],
    ]
    return checked(FinAlg(field, table, (one, zero)))


# -- the computed route: oracles for the even-part certificates ----------------


@dataclass
class SplitCert:
    verdict: str
    field: object
    corners: tuple = ()


def certify_split_pair(A, n):
    """Certify A ≅ M_n × M_n after at most one rational quadratic base
    change: the center must be 2-dimensional and étale; splitting its
    discriminant yields two central idempotents whose corners must both
    certify as M_n."""
    if A.dim != 2 * n * n:
        return SplitCert(f"fail:dim-{A.dim}", A.field)
    r = radical_dim(A)
    if r:
        return SplitCert(f"fail:radical-{r}", A.field)
    zb = center_basis(A)
    if len(zb) != 2:
        return SplitCert(f"fail:center-{len(zb)}", A.field)
    z = next((tuple(v) for v in zb
              if mat_rank([[v[k], A.unit[k]] for k in range(A.dim)]) == 2), None)
    if z is None:
        return SplitCert("fail:center-degenerate", A.field)
    # z² = α z + β
    cols = [A.unit, z]
    sol = mat_solve([[cols[0][k], cols[1][k]] for k in range(A.dim)],
                    list(A.mul(z, z)), A.field)
    if sol is None:
        return SplitCert("fail:center-not-quadratic", A.field)
    beta, alpha = sol
    half = A.field.one / A.field.coerce(2)
    w = A.vsub(z, A.vscale(A.unit, alpha * half))
    ww = A.mul(w, w)
    delta = next((ww[k] / A.unit[k] for k in range(A.dim) if A.unit[k]), None)
    if delta is None or A.scalar_vec(delta) != ww:
        return SplitCert("fail:center-not-etale", A.field)
    s = A.field.sqrt(delta)
    if s is None:
        # one rational extension attempt
        if isinstance(A.field, QuadraticTower):
            d = A.field.coerce(delta)
            if d.is_rational() and A.field.level < 2:
                tower, _ = A.field.extended(d.rational_value())
                return certify_split_pair(A.map_field(tower), n)
        return SplitCert("fail:discriminant-not-split", A.field)
    if not s:
        return SplitCert("fail:discriminant-zero", A.field)
    e1 = A.vscale(A.vadd(A.unit, A.vscale(w, A.field.one / s)), half)
    e2 = A.vsub(A.unit, e1)
    for e in (e1, e2):
        if A.mul(e, e) != e:
            return SplitCert("fail:idempotent", A.field)
    if any(A.mul(e1, e2)):
        return SplitCert("fail:orthogonality", A.field)
    corners = []
    for e in (e1, e2):
        C = corner_algebra(A, e, gens=A.gens)
        v = certify_matrix_algebra(C, n)
        if v != f"M{n}":
            return SplitCert(f"fail:corner-{v}", A.field)
        corners.append(C)
    return SplitCert(f"M{n}xM{n}", A.field, tuple(corners))


def ordinary_fiber(sides, u, field=None):
    """The 16-dimensional ordinary fiber of sides.P at u over
    Q(√f₊(u), √f₋(u)) (or the prime field `field`), as a tensor product of
    the two side corners."""
    uf = tuple(Fraction(c) for c in u)
    fp, fm = (sides.P.det_curves().side(side).eval(uf) for side in ("plus", "minus"))
    if field is None:
        if fp == 0 or fm == 0:
            raise FiberError("base point lies on a determinant curve")
        field, (sp, sm) = QuadraticTower.create([fp, fm])
    else:
        sp = fp_sqrt(field.coerce(fp))
        sm = fp_sqrt(field.coerce(fm))
        if not sp or not sm:
            raise FiberError("determinant values are not invertible squares "
                             "in the requested field")
    corners = []
    for side, s in (("plus", sp), ("minus", sm)):
        if isinstance(field, QuadraticTower):
            A8_Q, dvec_Q, _ = sides.fiber(side, u)
            A8 = A8_Q.map_field(field)
            dvec = tuple(field.coerce(x) for x in dvec_Q)
        else:
            A8, dvec, _ = side_fiber(sides, side, u, field)
        C, _ = _corner_by_idempotent(A8, dvec, s)
        assert C.dim == 4
        corners.append(C)
    return tensor_product(corners[0], corners[1])


def test_golden_m2():
    A = m2_algebra()
    assert radical_dim(A) == 0
    assert center_dim(A) == 1
    assert certify_matrix_algebra(A, 2) == "M2"
    assert certify_matrix_algebra(A, 3).startswith("fail:dim")


def test_golden_dual_numbers():
    A = dual_numbers()
    assert radical_dim(A) == 1
    assert certify_matrix_algebra(A, 1) == "fail:dim-2"


def test_golden_truncated_polynomials():
    # Q[x]/(x⁴): dimension 4 with a 3-dimensional radical
    t = QuadraticTower(())
    zero, one = t.zero, t.one
    table = []
    for i in range(4):
        row = []
        for j in range(4):
            vec = [zero] * 4
            if i + j < 4:
                vec[i + j] = one
            row.append(tuple(vec))
        table.append(row)
    A = FinAlg(t, table, (one, zero, zero, zero))
    assert radical_dim(A) == 3
    assert certify_matrix_algebra(A, 2) == "fail:radical-3"


def test_golden_split_etale():
    A = quadratic_etale(1)
    assert radical_dim(A) == 0
    cert = certify_split_pair(A, 1)
    assert cert.verdict == "M1xM1"
    assert cert.field.level == 0


def test_golden_nonsplit_etale_extends():
    A = quadratic_etale(2)
    cert = certify_split_pair(A, 1)
    assert cert.verdict == "M1xM1"
    assert cert.field.radicands == (Fraction(2),)
    assert describe_field(cert.field) == "Q(sqrt 2)"


def test_unit_and_associativity_validation():
    t = QuadraticTower(())
    zero, one = t.zero, t.one
    with pytest.raises(ValueError):
        FinAlg(t, [[(one,)]], (zero,))  # 0 is not a unit
    # x·x = 1 but the table claims x·1 = 0: unit check trips first
    bad = [
        [(one, zero), (zero, one)],
        [(zero, zero), (one, zero)],
    ]
    with pytest.raises(ValueError):
        FinAlg(t, bad, (one, zero))
    # a genuinely non-associative table with a correct unit: the
    # constructor makes no associativity claim, the explicit check fails
    bad2 = [
        [(one, zero, zero), (zero, one, zero), (zero, zero, one)],
        [(zero, one, zero), (zero, zero, one), (one, zero, zero)],
        [(zero, zero, one), (one, zero, zero), (zero, one, one)],
    ]
    B = FinAlg(t, bad2, (one, zero, zero))
    assert B.proof is None
    with pytest.raises(ValueError, match="associativity"):
        B.check_associativity()
    assert B.proof is None


def test_tensor_product_full_associativity_dim16():
    A = m2_algebra()
    B = m2_algebra()
    T = tensor_product(A, B)
    assert T.dim == 16
    assert T.proof == "tensor"
    T.check_associativity()
    assert T.proof == "checked"
    assert radical_dim(T) == 0
    assert certify_matrix_algebra(T, 4) == "M4"


def test_kronecker_radical_matches_direct():
    A = dual_numbers()
    B = m2_algebra()
    T = tensor_product(A, B)
    assert T.tensor_factors is not None
    direct = FinAlg(T.field, T.table, T.unit, gens=T.gens)
    assert radical_dim(T) == radical_dim(direct) == 4
    # the factor path: 16 − rank G_A · rank G_B · rank G_A = 16 − 1·4·1
    T3 = tensor_product(T, A)
    flat = FinAlg(T3.field, T3.table, T3.unit, gens=T3.gens)
    assert (certify_tensor_product([A, B, A], 4) == certify_matrix_algebra(T3, 4)
            == certify_matrix_algebra(flat, 4) == "fail:radical-12")


def split_etale_power(k, field=None):
    """Q^k as a structure-constant algebra: k orthogonal idempotents."""
    field = field or QuadraticTower(())
    zero, one = field.zero, field.one
    table = [[tuple(one if (i == j == l) else zero for l in range(k))
              for j in range(k)] for i in range(k)]
    return checked(FinAlg(field, table, (one,) * k))


def test_tensor_center_from_factors_negative_controls():
    # Z(A⊗B) = Z(A)⊗Z(B): a non-central factor must fail the M_n
    # certificate through the factor path, with the same count as the
    # direct commutator kernel of the flattened table
    for T, n in ((tensor_product(m2_algebra(), split_etale_power(4)), 4),
                 (tensor_product(quadratic_etale(1), quadratic_etale(1)), 2)):
        assert T.tensor_factors is not None
        assert radical_dim(T) == 0
        assert certify_matrix_algebra(T, n) == "fail:center-4"
        flat = FinAlg(T.field, T.table, T.unit, gens=T.gens)
        assert flat.tensor_factors is None
        assert center_dim(T) == len(center_basis(flat)) == 4
    T = tensor_product(m2_algebra(), m2_algebra())
    flat = FinAlg(T.field, T.table, T.unit, gens=T.gens)
    assert center_dim(T) == len(center_basis(flat)) == 1


def nonassoc_table():
    """Basis 1, x, y with x·x = y, x·y = 1, y·x = y·y = 0: the unit is
    right, but (xx)x = 0 ≠ 1 = x(xx), on the basis triple (1, 1, 1)."""
    t = QuadraticTower(())
    zero, one = t.zero, t.one
    e1, ex, ey, z = (one, zero, zero), (zero, one, zero), (zero, zero, one), (zero,) * 3
    return FinAlg(t, [[e1, ex, ey], [ex, ey, e1], [ey, z, z]], e1)


def test_corner_provenance():
    A = m2_algebra()
    e = A.vadd(A.basis_vec(0), A.basis_vec(3))  # the unit, as a corner
    assert corner_algebra(A, e).proof == "corner"
    # no claim on the table: the corner runs the full check
    bare = FinAlg(A.field, A.table, A.unit)
    assert bare.proof is None
    assert corner_algebra(bare, e).proof == "checked"
    nonassoc = nonassoc_table()
    with pytest.raises(ValueError, match="associativity"):
        corner_algebra(nonassoc, nonassoc.unit)


def test_tensor_with_an_unproven_factor_carries_no_proof():
    t = QuadraticTower(())
    Q1 = checked(FinAlg(t, [[(t.one,)]], (t.one,)))
    nonassoc = nonassoc_table()
    for T in (tensor_product(nonassoc, Q1), tensor_product(Q1, nonassoc)):
        assert T.proof is None
        with pytest.raises(ValueError, match=r"basis triple \(1, 1, 1\)"):
            corner_algebra(T, T.unit)
    # the same table labelled "tensor" regardless of its factors would let
    # the corner inherit a claim that check_associativity refutes
    forged = FinAlg(t, nonassoc.table, nonassoc.unit, proof="tensor")
    C = corner_algebra(forged, forged.unit)
    assert C.proof == "corner"
    with pytest.raises(ValueError, match=r"basis triple \(1, 1, 1\)"):
        C.check_associativity()


def test_unit_by_construction_passes_the_unit_check():
    # map_field, tensor_product and corner_algebra record a proof instead
    # of verifying the unit, and so does a side fiber ("clifford"); the
    # long check agrees on each
    P = cached_pencil(42)
    sides = SideFibers(P)
    u = invertible_point(P)
    A = sides.fiber("plus", u)[0]
    tower, (C1, C2), _ = split_full_rank(sides, "plus", u)
    T = ordinary_fiber(sides, u)
    for table, proof in ((A, "clifford"), (A.map_field(tower), "embedding"),
                         (C1, "corner"), (C2, "corner"), (T, "tensor"),
                         (T.tensor_factors[1], "corner")):
        assert table.proof == proof
        table._verify_unit()
    # a corner of a table with no proof verifies its unit and is checked
    M = m2_algebra()
    bare = FinAlg(M.field, M.table, M.unit)
    assert corner_algebra(bare, M.unit).proof == "checked"
    # the oracle has teeth: a wrong unit under a proof is caught
    one, zero = M.field.one, M.field.zero
    wrong = FinAlg(M.field, M.table, (one, zero, zero, zero), proof="tensor")
    with pytest.raises(ValueError, match="unit"):
        wrong._verify_unit()


def test_non_semisimple_fiber_fails_through_the_registry(monkeypatch):
    """Negative control for prop3.17-azumaya-m4 and prop3.18-split-m2: side
    fibers replaced by D⊗D⊗Q[x]/(x² - f(u)), D the dual numbers
    (upper-triangular [[a, b], [0, a]]), with x as the central odd element.
    The fake table passes every condition of even_part, whose even masks
    span a 4-dimensional algebra with a 3-dimensional radical: prop3.17
    reads a 15-dimensional radical of the 16-dimensional fiber off the two
    even parts, and prop3.18 a 6-dimensional radical of each side fiber
    over Q.  The computed route gives the same verdicts."""
    P = cached_pencil(42)

    def fake_fiber(self, side, u):
        fval = P.det_curves().side(side).eval(tuple(Fraction(c) for c in u))
        A = tensor_product(tensor_product(dual_numbers(), dual_numbers()),
                           quadratic_etale(fval))
        return A, A.basis_vec(1), A.field.coerce(fval)  # basis vector 1 is 1⊗1⊗x

    monkeypatch.setattr(SideFibers, "fiber", fake_fiber)
    ctx = CheckContext(P, points=2)
    r = run_single(ctx, "prop3.17-azumaya-m4")
    assert r.status == "fail"
    assert [w["verdict"] for w in r.witnesses] == ["fail:radical-15"] * 2
    for w in r.witnesses:
        assert w["field"].startswith("Q(sqrt ") and w["field"].count("sqrt") == 2
    r = run_single(ctx, "prop3.18-split-m2")
    assert r.status == "fail"
    assert [(w["side"], w["field"], w["verdict"]) for w in r.witnesses] == \
        [("plus", "Q", "fail:radical-6"), ("minus", "Q", "fail:radical-6")] * 2
    # the oracles on the same tables
    for u in ctx.fiber_points():
        for side in ("plus", "minus"):
            cert = certify_split_pair(fake_fiber(None, side, u)[0], 2)
            assert (cert.verdict, describe_field(cert.field)) == ("fail:radical-6", "Q")
    DD = tensor_product(dual_numbers(), dual_numbers())
    over_q = tensor_product(DD, DD)
    assert over_q.field.level == 0
    assert certify_matrix_algebra(over_q, 4) == "fail:radical-15"


def _non_associative_copy(A):
    """A's table with the product e_1·e_2 negated and no proof: the unit
    still holds, associativity does not."""
    table = [list(row) for row in A.table]
    table[1][2] = tuple(-x for x in table[1][2])
    return FinAlg(A.field, table, A.unit, gens=A.gens)


# (mutant of (A, d, f), what the FiberError must name): one mutant per
# condition of even_part
EVEN_PART_MUTANTS = {
    "d-scaled-by-2": (lambda A, d, f: (A, A.vscale(d, A.field.coerce(2)), f),
                      "d·d is not f(u)·1"),
    "non-central-d": (lambda A, d, f: (A, A.basis_vec(1), f),
                      "d does not commute with the generators"),
    "d-plus-1": (lambda A, d, f: (A, A.vadd(d, A.unit), f),
                 "e_0·d has an even coordinate"),
    "non-associative": (lambda A, d, f: (_non_associative_copy(A), d, f),
                        "associativity fails on basis triple"),
}


@pytest.mark.parametrize("mutant", EVEN_PART_MUTANTS)
def test_even_part_mutants_fail_through_the_registry(monkeypatch, mutant):
    mutate, message = EVEN_PART_MUTANTS[mutant]
    P = cached_pencil(42)
    real = SideFibers.fiber
    monkeypatch.setattr(SideFibers, "fiber",
                        lambda self, side, u: mutate(*real(self, side, u)))
    ctx = CheckContext(P, points=1)
    for check_id in ("prop3.17-azumaya-m4", "prop3.18-split-m2"):
        r = run_single(ctx, check_id)
        [witness] = r.witnesses
        assert r.status == "fail"
        assert witness["error"].startswith(f"FiberError: {message}")


def _flip_one_normal_form(monkeypatch, bad=(0b010, 0)):
    """Negate the engine's normal form of e_mask·v_j on one (mask, j)."""
    orig = CliffordAlgebra._mask_times_gen

    def broken(self, mask, j):
        res = orig(self, mask, j)
        if (mask, j) == bad:
            res = tuple((m, -c) for m, c in res)
        return res

    monkeypatch.setattr(CliffordAlgebra, "_mask_times_gen", broken)


def test_broken_clifford_engine_is_caught(monkeypatch):
    P = cached_pencil(42)
    _flip_one_normal_form(monkeypatch)
    alg = CliffordAlgebra.from_pencil(P, "plus")
    with pytest.raises(ValueError, match="associativity"):
        alg.verify_associativity()
    with pytest.raises(ValueError, match="associativity"):
        SideFibers(P).algebra("plus")
    ctx = CheckContext(P, points=1)
    for check_id in ("prop3.17-azumaya-m4", "prop3.18-split-m2"):
        r = run_single(ctx, check_id)
        assert r.status == "fail"
        assert "associativity" in r.witnesses[0]["error"]


def test_side_fiber_provenance_over_prime_field():
    # integer structure constants reduce mod p by a ring homomorphism, so
    # the F_p fiber carries the proof over Q[u]
    P = cached_pencil(42)
    pt = P.reduced_curve("plus", 101).points[0]
    A, _, _ = side_fiber(SideFibers(P), "plus", pt, field=PrimeField(101))
    assert A.proof == "clifford"
    assert A.check_associativity()


def test_side_fibers_are_shared_per_point():
    P = cached_pencil(42)
    sides = SideFibers(P)
    u = invertible_point(P)
    first = sides.fiber("plus", u)
    assert sides.fiber("plus", u) is first
    assert sides.fiber("minus", u) is not first
    assert sides.algebra("plus") is sides.algebra("plus")
    A = ordinary_fiber(sides, u)
    assert certify_matrix_algebra(A, 4) == "M4"
    assert len(sides._fibers) == 2


def test_trace_form_char_guard():
    F = PrimeField(7)
    P = cached_pencil(42)
    A = side_fiber(SideFibers(P), "plus", (1, 2, 1), F)[0]
    with pytest.raises(ValueError):
        radical_dim(A)


# -- fibers ----------------------------------------------------------------------


def invertible_point(P, seed="pts"):
    rng = random.Random(seed)
    return sample_invertible_points(P, rng, 1, bound=5)[0]


def test_side_fiber_structure():
    P = cached_pencil(42)
    u = invertible_point(P)
    A, dvec, fval = SideFibers(P).fiber("plus", u)
    assert A.dim == 8
    assert A.proof == "clifford"  # proven once over Q[u], not per point
    assert A.check_associativity()  # the long path agrees
    assert A.proof == "checked"
    assert radical_dim(A) == 0
    assert center_dim(A) == 2  # the base scalars and the odd central element
    assert A.mul(dvec, dvec) == A.scalar_vec(fval)


def side_corner(P, side, u, y):
    """The 4-dimensional corner of a side fiber on which the central odd
    element acts as y, for y² = f(u) and y ≠ 0."""
    A, dvec, fval = side_fiber(SideFibers(P), side, u)
    yv = A.field.coerce(y)
    if not yv:
        raise ValueError("the corner needs an invertible y")
    if yv * yv != fval:
        raise ValueError("y² must equal the determinant value at u")
    return _corner_by_idempotent(A, dvec, yv)[0]


def test_corner_with_rational_y():
    P = diag_pencil()
    C = side_corner(P, "plus", (1, 1, 4), 2)
    assert C.dim == 4
    assert certify_matrix_algebra(C, 2) == "M2"
    with pytest.raises(ValueError):
        side_corner(P, "plus", (1, 1, 4), 3)
    with pytest.raises(ValueError):
        side_corner(P, "plus", (1, 1, 4), 0)


def test_ordinary_fiber_m4():
    P = cached_pencil(42)
    u = invertible_point(P)
    A = ordinary_fiber(SideFibers(P), u)
    assert A.dim == 16
    assert A.tensor_factors is not None
    assert isinstance(A.field, QuadraticTower)
    assert certify_matrix_algebra(A, 4) == "M4"
    # sampled (not exhaustive) associativity on the tower-coefficient fiber
    rng = random.Random("assoc16")
    for _ in range(4):
        x = tuple(A.field.coerce(rng.randint(-2, 2)) for _ in range(16))
        y = tuple(A.field.coerce(rng.randint(-2, 2)) for _ in range(16))
        z = A.basis_vec(rng.randrange(16))
        assert A.mul(A.mul(x, y), z) == A.mul(x, A.mul(y, z))


def qr_point(P, field, seed="fp16", count=40):
    """An invertible point whose determinant values are squares in field."""
    curves = P.det_curves()
    for cand in sample_invertible_points(P, random.Random(seed), count, bound=6):
        uf = tuple(Fraction(c) for c in cand)
        if (fp_sqrt(field.coerce(curves.f_plus.eval(uf)))
                and fp_sqrt(field.coerce(curves.f_minus.eval(uf)))):
            return cand
    raise AssertionError("no suitable point found")


def ordinary_fiber_by_corner(P, u, field):
    """The 16-dimensional ordinary fiber cut from the full 64-dimensional
    algebra by the product idempotent ((1 + d₊/√f₊)/2)·((1 + d₋/√f₋)/2):
    the long path that ordinary_fiber's tensor of side corners replaces.  The
    64-dimensional table carries no associativity claim, so the corner cut
    from it is checked on all basis triples."""
    u = tuple(Fraction(c) for c in u)
    curves = P.det_curves()
    sp = fp_sqrt(field.coerce(curves.f_plus.eval(u)))
    sm = fp_sqrt(field.coerce(curves.f_minus.eval(u)))
    assert sp and sm
    alg = CliffordAlgebra.from_pencil(P, "ordinary")
    A64 = clifford_fiber(alg, u, field)
    sides = SideFibers(P)
    dpv, dmv = (eval_element(lift(sides.central(side)[1].element, alg, side),
                             u, field, 64) for side in ("plus", "minus"))
    half = field.one / field.coerce(2)
    ep = A64.vscale(A64.vadd(A64.unit, A64.vscale(dpv, field.one / sp)), half)
    em = A64.vscale(A64.vadd(A64.unit, A64.vscale(dmv, field.one / sm)), half)
    e = A64.mul(ep, em)
    assert A64.mul(e, e) == e
    return corner_algebra(A64, e, gens=A64.gens)


def test_ordinary_fiber_corner_construction_agrees():
    # cutting the 64-dimensional algebra down by the product idempotent
    # must agree with the tensor-of-corners shortcut; run the heavy
    # comparison over a prime field, where exact arithmetic is cheap
    P = cached_pencil(42)
    F = PrimeField(101)
    u = qr_point(P, F)
    A = ordinary_fiber(SideFibers(P), u, F)
    B = ordinary_fiber_by_corner(P, u, F)
    assert B.dim == 16
    assert certify_matrix_algebra(A, 4) == "M4"
    assert certify_matrix_algebra(B, 4) == "M4"
    assert center_dim(A) == center_dim(B) == 1
    B.check_associativity()
    assert B.proof == "checked"


def test_ordinary_fiber_rejects_curve_points():
    P = diag_pencil()
    with pytest.raises(FiberError):
        ordinary_fiber(SideFibers(P), (1, 1, 0))


def test_ordinary_fiber_over_prime_field():
    P = cached_pencil(42)
    F = PrimeField(101)
    u = qr_point(P, F)
    A = ordinary_fiber(SideFibers(P), u, F)
    assert A.dim == 16
    assert certify_matrix_algebra(A, 4) == "M4"


def split_full_rank(sides, side, u):
    """Over Q(√f(u)) the 8-dimensional block splits into two corners cut
    by the complementary central idempotents (1 ± d/√f(u))/2: both corners
    of the one plucker.module_rep reads."""
    u = tuple(Fraction(c) for c in u)
    fval = sides.P.det_curves().side(side).eval(u)
    if fval == 0:
        raise FiberError("the block only splits away from its curve")
    tower, (s,) = QuadraticTower.create([fval])
    A_Q, dvec_Q, _ = sides.fiber(side, u)
    A = A_Q.map_field(tower)
    dvec = tuple(tower.coerce(x) for x in dvec_Q)
    C1, e1 = _corner_by_idempotent(A, dvec, s)
    C2, e2 = _corner_by_idempotent(A, A.vscale(dvec, -A.field.one), s)
    if any(A.mul(e1, e2)) or A.vadd(e1, e2) != A.unit:
        raise AssertionError("idempotents are not complementary")
    return tower, (C1, C2), (e1, e2)


def test_split_full_rank():
    P = cached_pencil(42)
    u = invertible_point(P)
    tower, (C1, C2), (e1, e2) = split_full_rank(SideFibers(P), "plus", u)
    assert tower.level <= 1
    assert C1.dim == C2.dim == 4
    assert certify_matrix_algebra(C1, 2) == "M2"
    assert certify_matrix_algebra(C2, 2) == "M2"
    with pytest.raises(FiberError):
        split_full_rank(SideFibers(diag_pencil()), "plus", (1, 1, 0))


def test_split_pair_certificate_on_side_fiber():
    P = cached_pencil(42)
    u = invertible_point(P)
    sides = SideFibers(P)
    A = sides.fiber("plus", u)[0]
    cert = certify_split_pair(A, 2)
    assert cert.verdict == "M2xM2"
    assert len(cert.corners) == 2
    # the splitting field is exactly the one attached to √f₊(u)
    tower, _, _ = split_full_rank(sides, "plus", u)
    assert cert.field.radicands == tower.radicands


def test_corank1_quotient_rational():
    mats = (diag_matrix(1, 1, 0), diag_matrix(0, 0, 1), diag_matrix(0, 0, 0))
    P = InvariantPencil(q_plus=mats, q_minus=(basis_mat(0), basis_mat(1), basis_mat(2)),
                        seed=0, coeff_bound=1)
    # f₊ = u1²·u2; at (1, 0, ·) the block is diag(1, 1, 0): corank one
    sides = SideFibers(P)
    Q, verdict = corank1_quotient(sides, "plus", (1, 0, 0))
    assert Q.dim == 4
    assert verdict == "M2"
    assert Q.proof == "checked"  # the quotient is checked on all basis triples
    # at (0, 1, 0) the block is diag(0, 0, 1): corank two
    with pytest.raises(FiberError):
        corank1_quotient(sides, "plus", (0, 1, 0))
    # off the curve there is no quotient
    with pytest.raises(FiberError):
        corank1_quotient(sides, "plus", (1, 1, 1))


def test_corank1_quotient_diag_pencil():
    P = diag_pencil()
    Q, verdict = corank1_quotient(SideFibers(P), "plus", (1, 1, 0))
    assert verdict == "M2"
    assert center_dim(Q) == 1


def test_corank1_quotient_prime_field():
    P = cached_pencil(42)
    F = PrimeField(101)
    sides = SideFibers(P)
    pts = P.reduced_curve("plus", 101).points[:3]
    assert pts
    for pt in pts:
        Q, verdict = corank1_quotient(sides, "plus", pt, field=F)
        assert Q.dim == 4
        assert verdict == "M2"


def test_rational_curve_point_search():
    mats = (diag_matrix(1, 1, 0), diag_matrix(0, 0, 1), diag_matrix(0, 0, 0))
    P = InvariantPencil(q_plus=mats, q_minus=(basis_mat(0), basis_mat(1), basis_mat(2)),
                        seed=0, coeff_bound=1)
    pt = rational_curve_point(P, "plus", random.Random("lines"))
    assert pt is not None
    uf = tuple(Fraction(c) for c in pt)
    assert P.det_curves().f_plus.eval(uf) == 0
    Q, verdict = corank1_quotient(SideFibers(P), "plus", pt)
    assert verdict == "M2"


def _rational_curve_point_by_subs(P, side, rng):
    """The reference search: the same 200 seeded lines, each restriction
    computed by substituting the line into the cubic over Q[t]."""
    from math import gcd, lcm

    from quadclif.exactalg import PolyRing, adjugate3

    f = P.det_curves().side(side)
    tring = PolyRing(QQ, ("t",))
    t = tring.var("t")
    for _ in range(200):
        base = tuple(rng.randint(-4, 4) for _ in range(3))
        dirv = tuple(rng.randint(-4, 4) for _ in range(3))
        if not any(dirv):
            continue
        line = f.subs({v: tring.const(b) + d * t
                       for v, b, d in zip(f.ring.vars, base, dirv)})
        if line.is_zero():
            continue
        coeffs = [int(c) for c in as_univariate(line, "t")]
        for root in _rational_roots_fraction_horner(coeffs):
            u = tuple(b + root * d for b, d in zip(base, dirv))
            if not any(u):
                continue
            den = lcm(*(Fraction(c).denominator for c in u))
            uz = tuple(int(c * den) for c in u)
            uz = tuple(c // gcd(*uz) for c in uz)
            if P.det_curves().side(side).eval(uz) != 0:
                continue
            if any(x for row in adjugate3(P.block_at(uz, side)) for x in row):
                return uz
    return None


@pytest.mark.parametrize("seed,bound", [(42, 5), (1, 1), (8, 1), (15, 1)])
def test_rational_curve_point_matches_substitution(seed, bound):
    # bound 1: points found on most sides, none on the minus side of 8 and
    # 15; bound 5: none found, so all 200 lines are compared
    P = cached_pencil(seed, bound)
    for side in ("plus", "minus"):
        label = f"curve-point-{seed}-{side}"
        got = rational_curve_point(P, side, _derived_rng(label))
        assert got == _rational_curve_point_by_subs(P, side, _derived_rng(label))


def test_rational_curve_point_rejects_fractional_cubic(pencil42):
    from quadclif.pencil import DetCurves

    P = InvariantPencil.from_json_dict(pencil42.to_json_dict())
    curves = P.det_curves()
    object.__setattr__(P, "_det_curves",
                       DetCurves(curves.f_plus * Fraction(1, 2), curves.f_minus))
    with pytest.raises(FiberError, match="non-integer coefficient"):
        rational_curve_point(P, "plus", random.Random(0))


def _rational_roots_fraction_horner(coeffs):
    """The reference: every candidate evaluated by Fraction Horner steps."""
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
    for num in _divisors(coeffs[0]):
        for den in _divisors(coeffs[-1]):
            for sgn in (1, -1):
                t = Fraction(sgn * num, den)
                acc = Fraction(0)
                for c in reversed(coeffs):
                    acc = acc * t + c
                if acc == 0:
                    roots.append(t)
    return roots


def test_rational_roots_match_fraction_horner():
    rng = _derived_rng("test", "rational-roots")
    hits = 0
    for trial in range(300):
        if trial % 2:
            # a product of rational linear factors, so roots exist
            coeffs = [rng.randint(-6, 6) or 1]
            for _ in range(rng.randint(1, 3)):
                n, d = rng.randint(-9, 9), rng.randint(1, 6)
                nxt = [0] * (len(coeffs) + 1)
                for k, c in enumerate(coeffs):
                    nxt[k] -= c * n
                    nxt[k + 1] += c * d
                coeffs = nxt
        else:
            coeffs = [rng.randint(-60, 60) for _ in range(4)]
            if trial % 7 == 0:
                coeffs[0] = 0
        got = _rational_roots(list(coeffs))
        assert got == _rational_roots_fraction_horner(list(coeffs)), coeffs
        hits += bool(got)
    assert hits > 100
    assert _rational_roots([0, 0, 0]) == []
    assert _rational_roots([6, -5, 1]) == _rational_roots_fraction_horner([6, -5, 1])


def test_sampling_is_deterministic():
    P = cached_pencil(42)
    a = sample_invertible_points(P, random.Random(5), 6)
    b = sample_invertible_points(P, random.Random(5), 6)
    assert a == b and len(set(a)) == 6
