"""The line model of the split quadric, the two isotropic families, the
rank-one adjugate stratification, and two-dimensional fiber modules."""

import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from conftest import (
    IDENTITY_MUTANTS,
    QQ,
    PrimeField,
    annihilator_line,
    annihilator_round_trip,
    cached_pencil,
    lines_proportional,
    m0_matrix,
    m0_ok_by_minors,
    module_by_corner,
    module_line_for,
    mutate_identities,
    seeded_pencil,
    segre_ok_by_minors,
)
from quadclif import fiber, plucker
from quadclif.checks import CheckContext, run_single
from quadclif.exactalg import PolyRing, det_cofactor, evaluator, mat_rank
from quadclif.fiber import FiberError, sample_invertible_points
from quadclif.geometry import GenericityError, curve_points
from quadclif.pencil import InvariantPencil
from quadclif.plucker import (
    A_VARS,
    Z_VARS,
    adjugate_double_line,
    clifford_relations,
    m0_identity_check,
    m0_matrix_symbolic,
    module_rep,
    plucker_quadric_poly,
    plucker_transform,
    segre_identity_check,
    segre_points,
    split_quadric_poly,
    transform_identity_check,
    wedge_with_basis,
    segre_y,
)


def segre_point_x(side, ring):
    """The two Segre families pushed through the transform to x
    coordinates."""
    p_plus, p_minus = segre_points(ring)
    p = p_plus if side == "plus" else p_minus
    out = []
    for row in plucker_transform():
        acc = ring.zero()
        for c, comp in zip(row, p):
            if c:
                acc = acc + comp * c
        out.append(acc)
    return tuple(out)


def diag_blocks(d_plus, d_minus):
    """Pencil whose k-th coordinate matrices are diagonal; d_side[i] lists
    the coefficients of u1, u2, u3 on the i-th diagonal entry."""

    def mats(diags):
        out = []
        for k in range(3):
            rows = [[0] * 3 for _ in range(3)]
            for i in range(3):
                rows[i][i] = diags[i][k]
            out.append(tuple(tuple(r) for r in rows))
        return tuple(out)

    return InvariantPencil(q_plus=mats(d_plus), q_minus=mats(d_minus),
                           seed=0, coeff_bound=1)


# ---------------------------------------------------------------------------
# the coordinate change between the split and Plücker quadrics
# ---------------------------------------------------------------------------

class TestTransform:
    def test_identity(self):
        assert transform_identity_check()

    def test_matrix_invertible(self):
        assert mat_rank([list(r) for r in plucker_transform()]) == 6

    def test_middle_coordinates_carry_the_cross_term(self):
        # x3² - x4² is exactly -z13·z24 under the transform
        zring = PolyRing(QQ, Z_VARS)
        z13 = zring.var("z13")
        z24 = zring.var("z24")
        M = plucker_transform()
        half_diff = (z13 - z24) * M[2][1] * 2  # row normalization check
        assert M[2][1] == Fraction(1, 2) and M[3][4] == Fraction(1, 2)
        x3 = (z13 - z24) * Fraction(1, 2)
        x4 = (z13 + z24) * Fraction(1, 2)
        assert x3 * x3 - x4 * x4 == -(z13 * z24)
        assert half_diff == z13 - z24

    def test_segre_families_in_x_coordinates(self):
        ring = PolyRing(QQ, A_VARS)
        a0, a1, a2, a3 = (ring.var(v) for v in A_VARS)
        zero = ring.zero()
        assert segre_point_x("plus", ring) == (
            a0 * a0, -(a1 * a1), a0 * a1, zero, zero, zero,
        )
        assert segre_point_x("minus", ring) == (
            zero, zero, zero, a2 * a3, a2 * a2, a3 * a3,
        )

    def test_x_images_satisfy_split_quadric(self):
        ring = PolyRing(QQ, A_VARS)
        q = split_quadric_poly()
        for side in ("plus", "minus"):
            px = segre_point_x(side, ring)
            assert evaluator(px)(q).is_zero()


# ---------------------------------------------------------------------------
# the two families and their common plane
# ---------------------------------------------------------------------------

class TestSegre:
    def test_full_symbolic_certificate(self):
        cert = segre_identity_check()
        assert cert.ok, cert.failures

    def test_integer_identities_match_the_rational_oracle(self, monkeypatch):
        # the Segre and m0 identities run over Z; read over Q they give the
        # same certificate and residual digest
        over_z = segre_identity_check(), m0_identity_check()
        monkeypatch.setattr(plucker, "ZZ", QQ)
        assert (segre_identity_check(), m0_identity_check()) == over_z

    def test_rational_parameter_instance(self):
        ring = PolyRing(QQ, A_VARS)
        a = (2, 3, 5, 7)
        p_plus, p_minus = segre_points(ring)
        y = segre_y(ring)
        ws = wedge_with_basis(y, ring)
        value = evaluator(a)
        pv = [[value(c) for c in vec] for vec in ws]
        assert mat_rank(pv) == 3
        for pt in (p_plus, p_minus):
            ptv = [value(c) for c in pt]
            assert any(ptv)
            assert mat_rank(pv + [ptv]) == 3

    def test_degenerate_parameter_instance(self):
        # a1 = a3 = 0: both families hit coordinate points, certificates
        # with nonzero localizing factor still place them in the plane
        ring = PolyRing(QQ, A_VARS)
        a = (1, 0, 1, 0)
        p_plus, p_minus = segre_points(ring)
        y = segre_y(ring)
        ws = wedge_with_basis(y, ring)
        value = evaluator(a)
        wv = [[value(c) for c in vec] for vec in ws]
        pp = [value(c) for c in p_plus]
        pm = [value(c) for c in p_minus]
        assert pp == [1, 0, 0, 0, 0, 0] and pp == wv[1]
        assert pm == [0, 0, 1, 0, 0, 0] and pm == wv[3]

    def test_points_on_plucker_quadric_numerically(self):
        ring = PolyRing(QQ, A_VARS)
        q = plucker_quadric_poly()
        rng = random.Random(11)
        p_plus, p_minus = segre_points(ring)
        for _ in range(8):
            a = tuple(Fraction(rng.randint(-9, 9)) for _ in range(4))
            for pt in (p_plus, p_minus):
                vals = [evaluator(a)(c) for c in pt]
                assert evaluator(vals)(q) == 0


# ---------------------------------------------------------------------------
# the 6×4 matrix of the even element
# ---------------------------------------------------------------------------

class TestM0:
    def test_symbolic_identities(self):
        cert = m0_identity_check()
        assert cert.ok is True and cert.failures == ()

    def test_frozen_rows(self):
        rows = m0_matrix((2, 3, 5, 7))
        assert [list(map(int, r)) for r in rows] == [
            [2, 0, 0, 3],
            [0, 2, 0, 5],
            [0, 0, 2, 7],
            [0, 7, -5, 0],
            [-7, 0, 3, 0],
            [5, -3, 0, 0],
        ]

    def test_column_relation_recomputed(self):
        a = (Fraction(1, 2), Fraction(-3), Fraction(5, 7), Fraction(2))
        rows = m0_matrix(a)
        for row in rows:
            assert a[1] * row[0] + a[2] * row[1] + a[3] * row[2] - a[0] * row[3] == 0

    def test_rank_three_at_random_parameters(self):
        rng = random.Random(23)
        for _ in range(10):
            a = [rng.randint(-9, 9) for _ in range(4)]
            if not any(a):
                a[0] = 1
            rows = m0_matrix(a)
            assert mat_rank([list(r) for r in rows]) == 3

    def test_symbolic_matrix_shape(self):
        rows, a = m0_matrix_symbolic()
        assert len(rows) == 6 and all(len(r) == 4 for r in rows)
        # wedge rows carry the scalar on the diagonal
        for i in range(3):
            assert rows[i][i] == a[0]

    def test_symbolic_rows_evaluate_to_the_rational_matrix(self):
        rows, _ = m0_matrix_symbolic()
        rng = random.Random(31)
        for _ in range(10):
            a = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(4)]
            if not any(a):
                a[0] = Fraction(1)
            value = evaluator(a)
            assert [[value(c) for c in r] for r in rows] == \
                [list(r) for r in m0_matrix(a)]

    def test_zero_parameter_rejected(self):
        with pytest.raises(ValueError):
            m0_matrix((0, 0, 0, 0))
        with pytest.raises(ValueError):
            m0_matrix((1, 2, 3))


# ---------------------------------------------------------------------------
# the kernel-relation certificates against the minor route
# ---------------------------------------------------------------------------

class TestIdentityOracle:
    """segre_identity_check and m0_identity_check against the enumerated
    4×4 minors, the searched rank-3 minors and the sampled M0 instances of
    conftest: both routes PASS on the true identities and FAIL on every
    mutant."""

    def test_both_routes_pass_on_the_true_identities(self):
        assert segre_identity_check().ok is True and segre_ok_by_minors()
        assert m0_identity_check().ok is True and m0_ok_by_minors()

    @pytest.mark.parametrize("name", sorted(IDENTITY_MUTANTS))
    def test_both_routes_fail_on_a_mutant(self, monkeypatch, name):
        check_id = mutate_identities(monkeypatch, name)
        if check_id == "prop4.9-segre":
            cert, oracle = segre_identity_check(), segre_ok_by_minors()
        else:
            cert, oracle = m0_identity_check(), m0_ok_by_minors()
        assert cert.ok is False and cert.failures
        assert oracle is False

    def test_only_the_cube_minors_catch_the_contraction_mutant(
            self, monkeypatch):
        # zeroed contraction rows keep the relation (its residuals, and so
        # their digest) and every 4×4 minor zero
        true = m0_identity_check()
        mutate_identities(monkeypatch, "zeroed-contractions")
        cert = m0_identity_check()
        assert cert.residual_sha256 == true.residual_sha256
        assert cert.failures == ("cube-minor-a1", "cube-minor-a2", "cube-minor-a3")
        rows, _ = m0_matrix_symbolic()
        ring = rows[0][0].ring
        assert all(det_cofactor([list(rows[r]) for r in ri], ring).is_zero()
                   for ri in combinations(range(6), 4))


# ---------------------------------------------------------------------------
# adjugates along the curves
# ---------------------------------------------------------------------------

class TestAdjugate:
    def test_full_rank_off_curve(self):
        P = cached_pencil(42)
        rng = random.Random(5)
        for u in sample_invertible_points(P, rng, 3):
            for side in ("plus", "minus"):
                verdict, x = adjugate_double_line(P, side, u)
                assert verdict == "rank3" and x is None

    def test_double_line_on_curve_mod_p(self):
        P = cached_pencil(42)
        p = 101
        field = PrimeField(p)
        f = P.det_curves().f_plus
        pts = curve_points(f, p)
        assert pts
        for u in pts[:12]:
            verdict, x = adjugate_double_line(P, "plus", u, field)
            assert verdict == "double-line"
            assert any(x)

    def test_stratification_counts_mod_p(self):
        # every projective point is either off the curve with a rank-3
        # adjugate or on it with a certified double line
        P = cached_pencil(42)
        p = 101
        field = PrimeField(p)
        f = P.det_curves().f_minus
        on_curve = set(curve_points(f, p))
        rng = random.Random(17)
        seen_double = 0
        for u in on_curve:
            verdict, _ = adjugate_double_line(P, "minus", u, field)
            assert verdict == "double-line"
            seen_double += 1
        for _ in range(200):
            # normalized representatives match the scan's normal form
            u = (1, rng.randrange(p), rng.randrange(p))
            if u in on_curve:
                continue
            verdict, _ = adjugate_double_line(P, "minus", u, field)
            assert verdict == "rank3"
        assert seen_double == len(on_curve)

    def test_double_line_matches_diagonal_example(self):
        # block diag(2, 3, 0): adjugate is diag(0, 0, 6), the double of
        # the coordinate line
        P = diag_blocks(
            ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
            ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
        )
        verdict, x = adjugate_double_line(P, "plus", (2, 3, 0))
        assert verdict == "double-line"
        assert x[0] == 0 and x[1] == 0 and x[2] != 0

    def test_corank_two_raises(self):
        P = diag_blocks(
            ((1, 0, 0), (1, 0, 0), (0, 0, 1)),
            ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
        )
        # u = (0, 0, 1): plus block diag(0, 0, 1) has corank two
        with pytest.raises(GenericityError):
            adjugate_double_line(P, "plus", (0, 0, 1))


# ---------------------------------------------------------------------------
# two-dimensional modules at split points
# ---------------------------------------------------------------------------

class TestModuleRep:
    def rep_at(self, seed=42, side="plus"):
        P = cached_pencil(seed)
        rng = random.Random(3)
        u = sample_invertible_points(P, rng, 1)[0]
        return P, u, module_rep(CheckContext(P), side, u)

    def test_construction_and_d_scalar(self):
        P, u, rep = self.rep_at()
        uf = tuple(Fraction(c) for c in u)
        fval = evaluator(uf)(P.det_curves().f_plus)
        assert rep.d_scalar * rep.d_scalar == rep.tower.coerce(fval)
        assert rep.d_scalar == rep.tower.sqrt(fval)
        assert len(rep.matrices) == 3

    def test_clifford_relations_recomputed(self):
        P, u, rep = self.rep_at(side="minus")
        tower = rep.tower
        for i in range(3):
            mi = rep.matrices[i]
            assert mi[0][0] + mi[1][1] == tower.zero
            for j in range(3):
                mj = rep.matrices[j]
                anti00 = (
                    mi[0][0] * mj[0][0] + mi[0][1] * mj[1][0]
                    + mj[0][0] * mi[0][0] + mj[0][1] * mi[1][0]
                )
                assert anti00 == tower.coerce(-2 * rep.block[i][j])

    def test_annihilator_roundtrip(self):
        _, _, rep = self.rep_at()
        assert annihilator_round_trip(rep) == (True, True)

    def test_annihilator_rejects_zero(self):
        _, _, rep = self.rep_at()
        with pytest.raises(ValueError):
            annihilator_line(rep, (0, 0))
        with pytest.raises(ValueError):
            module_line_for(rep, (0, 0, 0))

    def test_rejects_curve_points(self):
        # the diagonal pencil: f₊ = u1·u2·u3 vanishes at (1, 1, 0)
        mats = tuple(tuple(tuple(int(i == j == k) for j in range(3))
                           for i in range(3)) for k in range(3))
        P = InvariantPencil(q_plus=mats, q_minus=mats, seed=0, coeff_bound=1)
        with pytest.raises(FiberError, match="away from its curve"):
            module_rep(CheckContext(P), "plus", (1, 1, 0))


def _module_cases():
    diagonal = tuple(tuple(tuple(int(i == j == k) for j in range(3))
                           for i in range(3)) for k in range(3))
    yield "seed42", cached_pencil(42), None
    yield "seed7", cached_pencil(7), None
    # off the curves u1·u2·u3 = 0: f(u) = 6, λ = −1, a tower of depth two
    yield "diagonal", InvariantPencil(q_plus=diagonal, q_minus=diagonal,
                                      seed=0, coeff_bound=1), (1, 2, 3)
    for i in range(20):
        yield f"seeded{i}", seeded_pencil(i), None


@pytest.mark.parametrize("name,P,u", list(_module_cases()),
                         ids=[c[0] for c in _module_cases()])
@pytest.mark.parametrize("side", ["plus", "minus"])
def test_module_matches_the_corner_route(name, P, u, side):
    """A·E of the fiber over L = Q(√f(u), √λ) is the module C·p of the
    corner C = e·A·e that the route through a fiber over Q, base changes
    and corner_algebra built (conftest.module_by_corner): the same tower,
    the same d scalar and the same subspace of the fiber, by its RREF.
    Its six relations and three traces, prop4.7's verdict, come with the
    consequence they stand for: ten module lines round-trip through their
    isotropic annihilator lines, which are pairwise distinct."""
    if u is None:
        u = sample_invertible_points(P, random.Random(name), 1)[0]
    rep = module_rep(CheckContext(P), side, u)
    assert (rep.tower, rep.d_scalar, rep.basis) == module_by_corner(
        CheckContext(P), side, u)
    assert clifford_relations(rep.matrices, rep.block, rep.tower) == (6, 3)
    assert annihilator_round_trip(rep) == (True, True)


def test_a_lone_annihilator_run_builds_one_fiber_per_side(monkeypatch):
    built = []
    table = fiber.clifford_fiber

    def counting(alg, u, field, proof=None):
        built.append(alg.variant)
        return table(alg, u, field, proof)

    def refused(*args, **kwargs):
        raise AssertionError("corner_algebra called")

    monkeypatch.setattr(fiber, "clifford_fiber", counting)
    monkeypatch.setattr(fiber, "corner_algebra", refused)
    r = run_single(CheckContext(cached_pencil(42), points=1), "prop4.7-annihilator")
    assert r.status == "pass"
    # the generic side engine, once at a₀ = q₊(u) and once at q₋(u)
    assert built == ["plus", "plus"]


def test_lines_proportional_is_rank_at_most_one():
    """The 2×2 minors test agrees with the rank of (u v) on every pair of
    vectors with entries in {-1, 0, 1, 2}, in dimensions 2 and 3."""
    for n in (2, 3):
        vecs = list(product((-1, 0, 1, 2), repeat=n))
        for u in vecs:
            for v in vecs:
                assert lines_proportional(u, v) == (
                    mat_rank([[Fraction(a), Fraction(b)] for a, b in zip(u, v)]) <= 1)
