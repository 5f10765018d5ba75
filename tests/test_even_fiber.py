"""The even-part route of prop3.17 and prop3.18.

Off its curve a side fiber is C(q_u) = C₀(q_u) ⊗ Q[x]/(x² − f(u)), which
even_part checks at each point.  Over Q[u] the same theorem says that right
multiplication by the odd central element d maps the even masks onto the
odd masks with determinant f².  These tests check that identity on three
instances, and that the route through C₀ gives the same verdicts and field
witnesses as the computed route (certify_split_pair and the 16-dimensional
tensor table, oracles in test_fiber).
"""

from dataclasses import replace
from fractions import Fraction
from itertools import permutations

import pytest

from quadclif import clifford, fiber
from quadclif.checks import CheckContext, run_single
from quadclif.clifford import CliffordAlgebra
from quadclif.exactalg import QQ, PolyRing, PrimeField, SymMatrix
from quadclif.fiber import (
    EVEN_MASKS,
    ODD_MASKS,
    FiberError,
    FinAlg,
    QuadraticTower,
    SideFibers,
    certify_matrix_algebra,
    certify_ordinary_m4,
    certify_side_split,
    certify_tensor_product,
    clifford_fiber,
    describe_field,
    even_part,
    even_subalgebra,
    sample_invertible_points,
    side_fiber,
    tensor_product,
)
from quadclif.pencil import _derived_rng

from conftest import cached_pencil, poly_bareiss_det
from test_fiber import (
    certify_split_pair,
    diag_pencil,
    dual_numbers,
    m2_algebra,
    ordinary_fiber,
    quadratic_etale,
)

INSTANCES = {"42": (42, 5), "7": (7, 5), "generated": (2024, 2)}
FIBER_CHECKS = ("prop3.17-azumaya-m4", "prop3.18-split-m2")


def _points(name, count=3):
    P = cached_pencil(*INSTANCES[name])
    return P, sample_invertible_points(P, _derived_rng("test", "even-route", name),
                                       count)


def _leibniz_det(rows):
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


# -- the identity ----------------------------------------------------------------


def right_mul_det(alg, d):
    """det over Q[u] of x ↦ x·d from the even to the odd masks, by
    fraction-free elimination; None if some e_m·d is not odd."""
    rows = []
    for m in EVEN_MASKS:
        em_d = sum((alg.from_mask(m) * alg.from_mask(k, c)
                    for k, c in d.coeffs.items()), alg.zero())
        if not set(em_d.coeffs) <= set(ODD_MASKS):
            return None
        rows.append([em_d.coeffs.get(o, alg.ring.zero()) for o in ODD_MASKS])
    return poly_bareiss_det(rows, alg.ring)


@pytest.mark.parametrize("name", INSTANCES)
@pytest.mark.parametrize("side", ["plus", "minus"])
def test_right_multiplication_by_d_has_determinant_f_squared(name, side):
    P, pts = _points(name)
    sides = SideFibers(P)
    alg, res = sides.algebra(side)
    f = P.det_curves().side(side)
    assert right_mul_det(alg, res.element) == f * f
    assert res.square == f
    # at each point the fiber's own 4×4 block has determinant f(u)² ≠ 0
    for u in pts:
        A, dvec, fval = sides.fiber(side, u)
        block = [[A.mul(A.basis_vec(m), dvec)[o] for o in ODD_MASKS]
                 for m in EVEN_MASKS]
        assert all(not A.mul(A.basis_vec(m), dvec)[e]
                   for m in EVEN_MASKS for e in EVEN_MASKS)
        assert _leibniz_det([[x.rational_value() for x in row] for row in block]) \
            == fval.rational_value() ** 2 != 0
        assert even_part(A, dvec, fval).dim == 4


def test_identity_rejects_a_wrong_central_element():
    P = cached_pencil(42)
    alg, res = SideFibers(P).algebra("plus")
    f = P.det_curves().f_plus
    d = res.element
    assert right_mul_det(alg, d * 2) == f * f * 16
    assert right_mul_det(alg, d + 1) is None  # e_0·(d + 1) has an even part


# -- the two routes agree -----------------------------------------------------------


@pytest.mark.parametrize("name", INSTANCES)
def test_even_route_matches_the_computed_route(name):
    P, pts = _points(name)
    sides = SideFibers(P)
    for u in pts:
        uf = tuple(Fraction(c) for c in u)
        for side in ("plus", "minus"):
            A = sides.fiber(side, u)[0]
            assert sides.even(side, u)[1] == "M2"
            cert = certify_split_pair(A, 2)
            field, verdict = certify_side_split(sides, side, u)
            assert verdict == cert.verdict == "M2xM2"
            assert describe_field(field) == describe_field(cert.field)
            # the discriminant certify_split_pair splits is f(u) itself
            f_u = P.det_curves().side(side).eval(uf)
            assert cert.field.radicands == QuadraticTower.create([f_u])[0].radicands
        T = ordinary_fiber(sides, u)
        field, verdict = certify_ordinary_m4(sides, u)
        assert verdict == certify_matrix_algebra(T, 4) == "M4"
        assert describe_field(field) == describe_field(T.field)


def _dd():
    return tensor_product(dual_numbers(), dual_numbers())


def _etale_pair():
    return tensor_product(quadratic_etale(1), quadratic_etale(2))


@pytest.mark.parametrize("left", [m2_algebra, _dd, _etale_pair])
@pytest.mark.parametrize("right", [m2_algebra, _dd, _etale_pair])
def test_tensor_verdict_from_factors_matches_the_built_table(left, right):
    A, B = left(), right()
    T = tensor_product(A, B)
    flat = FinAlg(T.field, T.table, T.unit, gens=T.gens)
    want = certify_matrix_algebra(flat, 4)
    assert certify_tensor_product([A, B], 4) == want
    # radical and center dimensions do not move under a base change
    K, _ = QuadraticTower.create([3, 5])
    assert certify_tensor_product([A.map_field(K), B.map_field(K)], 4) == want
    assert certify_tensor_product([A], 4) == "fail:dim-4"


# -- the verdicts come from the even part -----------------------------------------


def test_even_verdicts_come_from_the_even_part(monkeypatch):
    """Mutant: the plus side's even part replaced by D⊗D (radical 3).
    prop3.17 then reads fail:radical-12 (16 − 1·4) off the two factors,
    and prop3.18 fail:radical-6 (twice 3) over Q, while the computed route
    still certifies the real fiber."""
    P = cached_pencil(42)
    sides = SideFibers(P)
    u = _points("42", 1)[1][0]
    A_plus = sides.fiber("plus", u)[0]
    real = fiber.even_subalgebra
    monkeypatch.setattr(fiber, "even_subalgebra",
                        lambda A: _dd() if A is A_plus else real(A))
    field, verdict = certify_ordinary_m4(sides, u)
    assert verdict == "fail:radical-12"
    assert describe_field(field).count("sqrt") == 2
    field, verdict = certify_side_split(sides, "plus", u)
    assert (describe_field(field), verdict) == ("Q", "fail:radical-6")
    assert sides.even("plus", u)[1] == "fail:radical-3"
    assert certify_split_pair(A_plus, 2).verdict == "M2xM2"


def test_even_part_is_built_once_per_point():
    P = cached_pencil(42)
    sides = SideFibers(P)
    u = _points("42", 1)[1][0]
    C0, verdict = sides.even("plus", u)
    assert verdict == "M2" and C0.dim == 4 and C0.proof == "even"
    assert sides.even("plus", u)[0] is C0
    assert sides.even("minus", u)[0] is not C0
    # a table without a proof is checked on all basis triples first
    A, dvec, fval = sides.fiber("plus", u)
    bare = FinAlg(A.field, A.table, A.unit, gens=A.gens)
    assert even_part(bare, dvec, fval).table == C0.table
    assert bare.proof == "checked"


def test_wrong_square_fails_the_identity():
    """Mutant: the central element doubled, so its fibers square to
    4f(u); the pointwise identity catches it and both checks fail."""
    P = cached_pencil(42)
    ctx = CheckContext(P, points=1)
    alg, res = ctx.sides.central("plus")
    ctx.sides._central["plus"] = (alg, replace(res, element=res.element * 2))
    for cid in FIBER_CHECKS:
        r = run_single(ctx, cid)
        assert r.status == "fail"
        assert r.witnesses == [{"error": "FiberError: d·d is not f(u)·1"}]


def test_curve_point_raises_and_the_oracle_fails():
    """At a curve point f(u) = 0, so C₀·d is not all of C₁: the even route
    raises, and the computed route finds the radical."""
    sides = SideFibers(diag_pencil())
    with pytest.raises(FiberError, match="determinant curve"):
        certify_side_split(sides, "plus", (1, 1, 0))
    with pytest.raises(FiberError, match="determinant curve"):
        certify_ordinary_m4(sides, (1, 1, 0))
    assert not sides._evens
    cert = certify_split_pair(sides.fiber("plus", (1, 1, 0))[0], 2)
    assert cert.verdict.startswith("fail:radical-")


# -- the even subalgebra ------------------------------------------------------------


def _group_algebra(op):
    """Q[G] on the eight group elements 0..7 with product op."""
    t = QuadraticTower(())
    table = [[tuple(t.one if k == op(i, j) else t.zero for k in range(8))
              for j in range(8)] for i in range(8)]
    return FinAlg(t, table, tuple(t.one if k == 0 else t.zero for k in range(8)))


def test_even_subalgebra_provenance_and_closure():
    P = cached_pencil(42)
    u = _points("42", 1)[1][0]
    A = side_fiber(SideFibers(P), "minus", u)[0]
    C0 = even_subalgebra(A)
    assert C0.proof == "even"
    C0._verify_unit()
    assert C0.check_associativity()
    # no claim on the table: even_part proves A first, so the subalgebra
    # refuses it
    xor = _group_algebra(lambda i, j: i ^ j)
    assert xor.proof is None
    with pytest.raises(ValueError, match="needs a table with a proof"):
        even_subalgebra(xor)
    xor.check_associativity()
    assert even_subalgebra(xor).proof == "even"
    # Z/8 with masks as residues: e_3·e_6 = e_1 leaves the even masks
    z8 = _group_algebra(lambda i, j: (i + j) % 8)
    z8.check_associativity()
    with pytest.raises(ValueError, match="not closed"):
        even_subalgebra(z8)


# -- the odd central elements are built once per run --------------------------------


def test_central_elements_are_solved_once_per_run(monkeypatch):
    P = cached_pencil(42)
    solved = []
    for module in (fiber, clifford):
        real = module.central_odd

        def counted(alg, _real=real):
            solved.append(alg.variant)
            return _real(alg)

        monkeypatch.setattr(module, "central_odd", counted)
    proofs = []
    real_proof = CliffordAlgebra.verify_associativity

    def proof(self):
        proofs.append(self.variant)
        return real_proof(self)

    monkeypatch.setattr(CliffordAlgebra, "verify_associativity", proof)
    ctx = CheckContext(P, points=1)
    assert run_single(ctx, "prop3.12-dplus-square").status == "pass"
    assert (solved, proofs) == (["plus"], [])
    for cid in ("prop3.9-phi", "prop3.12-dminus-square", *FIBER_CHECKS,
                "prop4.7-annihilator"):
        assert run_single(ctx, cid).status == "pass"
    assert sorted(solved) == sorted(proofs) == ["minus", "plus"]


# -- fiber tables from integer structure constants ----------------------------------


def _fraction_block_algebra():
    R = PolyRing(QQ, ("u1", "u2", "u3"))
    u1, u2 = R.var("u1"), R.var("u2")
    q = SymMatrix(R, [[u1 * R.const(Fraction(1, 2)), u2, R.zero()],
                      [u2, u1, R.zero()],
                      [R.zero(), R.zero(), u1 + u2]])
    return CliffordAlgebra(R, "plus", q_plus=q)


@pytest.mark.parametrize("field", [QuadraticTower(()), PrimeField(101)],
                         ids=["Q", "F101"])
def test_clifford_fiber_matches_polynomial_evaluation(field):
    algs = [CliffordAlgebra.from_pencil(cached_pencil(42), side)
            for side in ("plus", "minus")] + [_fraction_block_algebra()]
    assert [a.integral_structure() for a in algs] == [True, True, False]
    for alg in algs:
        for u in ((1, 2, 3), (-4, 0, 7), (Fraction(1, 2), Fraction(-3, 5), 2)):
            uf = tuple(Fraction(c) for c in u)
            A = clifford_fiber(alg, uf, field, proof="clifford")
            for i in range(8):
                for j in range(8):
                    want = [field.zero] * 8
                    for mask, poly in alg.mask_mul(i, j):
                        want[mask] = field.coerce(poly.eval(uf))
                    assert A.table[i][j] == tuple(want)
