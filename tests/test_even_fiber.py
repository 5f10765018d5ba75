"""The even-part certificates of prop3.17 and prop3.18.

Off its curve a side fiber is C(q_u) = C₀(q_u) ⊗ Q[x]/(x² − f(u)).  The
checks prove it at every such u from Gram identities over Z[a] on the
generic block, which a ↦ q±(u) carries to both blocks
(fiber.even_certificate); the per-point route that checked even_part at
sampled points is the oracle in conftest.py.  Over Q[u] the same theorem
says that right multiplication by the odd central element d maps the even
masks onto the odd masks with determinant f².  These tests check that
identity on three instances, that the Gram certificate agrees with the
per-point oracle, and that the route through C₀ gives the same verdicts and
field witnesses as the computed route (certify_split_pair and the
16-dimensional tensor table, oracles in test_fiber).
"""

from fractions import Fraction
from itertools import permutations

import pytest

from quadclif import checks, clifford, fiber
from quadclif.checks import CheckContext, run_single
from quadclif.clifford import CliffordAlgebra, central_odd
from quadclif.exactalg import PolyRing, SymMatrix, evaluator
from quadclif.fiber import (
    EVEN_MASKS,
    ODD_MASKS,
    FiberError,
    FinAlg,
    QuadraticTower,
    clifford_fiber,
    even_certificate,
    sample_invertible_points,
    side_fiber,
    tensor_product,
)
from quadclif.pencil import _derived_rng

import conftest
from conftest import (
    QQ,
    PrimeField,
    cached_pencil,
    certify_matrix_algebra,
    certify_ordinary_m4,
    certify_side_split,
    certify_tensor_product,
    even_part,
    even_subalgebra,
    from_pencil,
    map_field,
    poly_bareiss_det,
    seeded_pencil,
    side_even,
)
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
    ctx = CheckContext(P)
    alg = from_pencil(P, side)
    res = central_odd(alg)
    f = P.det_curves().side(side)
    assert right_mul_det(alg, res.element) == f * f
    assert res.square == f
    # at each point the fiber's own 4×4 block has determinant f(u)² ≠ 0
    for u in pts:
        A, dvec = side_fiber(ctx, side, u, QuadraticTower(()))
        fval = A.field.coerce(evaluator(u)(f))
        block = [[A.mul(A.basis_vec(m), dvec)[o] for o in ODD_MASKS]
                 for m in EVEN_MASKS]
        assert all(not A.mul(A.basis_vec(m), dvec)[e]
                   for m in EVEN_MASKS for e in EVEN_MASKS)
        assert _leibniz_det([[x.rational_value() for x in row] for row in block]) \
            == fval.rational_value() ** 2 != 0
        assert even_part(A, dvec, fval).dim == 4


def test_identity_rejects_a_wrong_central_element():
    P = cached_pencil(42)
    alg = from_pencil(P, "plus")
    f = P.det_curves().f_plus
    d = central_odd(alg).element
    assert right_mul_det(alg, d * 2) == f * f * 16
    assert right_mul_det(alg, d + 1) is None  # e_0·(d + 1) has an even part


# -- the two routes agree -----------------------------------------------------------


@pytest.mark.parametrize("name", INSTANCES)
def test_even_route_matches_the_computed_route(name):
    P, pts = _points(name)
    ctx = CheckContext(P)
    for u in pts:
        uf = tuple(Fraction(c) for c in u)
        for side in ("plus", "minus"):
            A = side_fiber(ctx, side, u, QuadraticTower(()))[0]
            assert side_even(ctx, side, u)[1] == "M2"
            cert = certify_split_pair(A, 2)
            field, verdict = certify_side_split(ctx, side, u)
            assert verdict == cert.verdict == "M2xM2"
            assert field.name == cert.field.name
            # the discriminant certify_split_pair splits is f(u) itself
            f_u = evaluator(uf)(P.det_curves().side(side))
            assert cert.field.radicands == QuadraticTower.create([f_u])[0].radicands
        T = ordinary_fiber(ctx, u)
        field, verdict = certify_ordinary_m4(ctx, u)
        assert verdict == certify_matrix_algebra(T, 4) == "M4"
        assert field.name == T.field.name


# -- the Gram certificate against the per-point oracle ------------------------------


def test_gram_certificate_agrees_with_the_per_point_oracle():
    """Both checks PASS from the generic identities over Z[a] (c = −256
    and c′ = −4096) on seeds 42 and 7, the diagonal and
    seeded_pencil(0..9), and at 2 sampled points of each the per-point
    route certifies M4 and M2xM2 on both sides."""
    named = [cached_pencil(42), cached_pencil(7), diag_pencil()]
    for P in named + [seeded_pencil(i) for i in range(10)]:
        ctx = CheckContext(P, points=2)
        m4, split = (run_single(ctx, cid) for cid in FIBER_CHECKS)
        assert (m4.status, split.status) == ("pass", "pass")
        assert m4.witnesses[0] == split.witnesses[0]
        assert (m4.witnesses[0]["c"], m4.witnesses[0]["c_prime"]) == (-256, -4096)
        for u in ctx.fiber_points():
            assert certify_ordinary_m4(ctx, u)[1] == "M4"
            for side in ("plus", "minus"):
                assert certify_side_split(ctx, side, u)[1] == "M2xM2"


def test_certificate_witness_names_every_condition():
    P = cached_pencil(42)
    ok, wit = even_certificate(CheckContext(P))
    assert ok and wit == {
        "certificate": "generic", "f": "det(M)", "even_closed": True,
        "c": -256, "det_G_is_c_f2": True,
        "c_prime": -4096, "det_Gc_is_c_prime_f4": True,
        "d_odd": True, "d_maps_even_to_odd": True, "d_central": True,
        "d_square_is_f": True}
    r = run_single(CheckContext(P), "prop3.17-azumaya-m4")
    assert r.witnesses == [wit, {"claim": "M4", "locus": "f_plus*f_minus != 0"}]
    r = run_single(CheckContext(P), "prop3.18-split-m2")
    assert r.witnesses == [wit, {"claim": "M2xM2", "locus": {
        "plus": "f_plus != 0", "minus": "f_minus != 0"}}]


def test_even_table_refuses_an_odd_product(monkeypatch):
    """A product of even masks with an odd mask leaves C₀ unclosed: the
    table is None, no Gram matrix is built, and the certificate fails."""
    ctx = CheckContext(cached_pencil(42))
    alg = ctx.algebra("plus")
    assert sorted(fiber.even_table(alg)) == [(a, b) for a in EVEN_MASKS
                                             for b in EVEN_MASKS]
    real = alg.mask_mul
    monkeypatch.setattr(alg, "mask_mul", lambda a, b: (
        ((1, alg.ring.one()),) if (a, b) == (3, 5) else real(a, b)))
    assert fiber.even_table(alg) is None
    ok, wit = even_certificate(ctx)
    assert not ok and wit["even_closed"] is False and "c" not in wit


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
    assert certify_tensor_product([map_field(A, K), map_field(B, K)], 4) == want
    assert certify_tensor_product([A], 4) == "fail:dim-4"


# -- the verdicts come from the even part -----------------------------------------


def test_even_verdicts_come_from_the_even_part(monkeypatch):
    """Mutant: the plus side's even part replaced by D⊗D (radical 3).
    prop3.17 then reads fail:radical-12 (16 − 1·4) off the two factors,
    and prop3.18 fail:radical-6 (twice 3) over Q, while the computed route
    still certifies the real fiber."""
    P = cached_pencil(42)
    ctx = CheckContext(P)
    u = _points("42", 1)[1][0]
    A_plus = side_fiber(ctx, "plus", u, QuadraticTower(()))[0]
    real = conftest.even_subalgebra
    monkeypatch.setattr(conftest, "even_subalgebra",
                        lambda A: _dd() if A.table == A_plus.table else real(A))
    field, verdict = certify_ordinary_m4(ctx, u)
    assert verdict == "fail:radical-12"
    assert field.name.count("sqrt") == 2
    field, verdict = certify_side_split(ctx, "plus", u)
    assert (field.name, verdict) == ("Q", "fail:radical-6")
    assert side_even(ctx, "plus", u)[1] == "fail:radical-3"
    assert certify_split_pair(A_plus, 2).verdict == "M2xM2"


def test_even_part_is_built_once_per_point():
    P = cached_pencil(42)
    ctx = CheckContext(P)
    u = _points("42", 1)[1][0]
    C0, verdict = side_even(ctx, "plus", u)
    assert verdict == "M2" and C0.dim == 4 and C0.proof == "even"
    assert side_even(ctx, "plus", u)[0] is C0
    assert side_even(ctx, "minus", u)[0] is not C0
    # a table without a proof is checked on all basis triples first
    A, dvec = side_fiber(ctx, "plus", u, QuadraticTower(()))
    fval = A.field.coerce(evaluator(u)(P.det_curves().f_plus))
    bare = FinAlg(A.field, A.table, A.unit, gens=A.gens)
    assert even_part(bare, dvec, fval).table == C0.table
    assert bare.proof == "checked"


def test_wrong_square_fails_the_identity():
    """Mutant: the generic central element doubled, so it squares to 4f;
    the identity d² = f over Z[a] catches it, both checks fail, and every
    other condition still holds."""
    P = cached_pencil(42)
    ctx = CheckContext(P, points=1)
    res = ctx.central()
    ctx._cache["central"] = res._replace(element=res.element * 2)
    for cid in FIBER_CHECKS:
        r = run_single(ctx, cid)
        assert r.status == "fail"
        cert, _ = r.witnesses
        assert [k for k, v in cert.items() if not v] == ["d_square_is_f"]
    # the per-point oracle refuses the same element
    u = _points("42", 1)[1][0]
    with pytest.raises(FiberError, match=r"d·d is not f\(u\)·1"):
        side_even(ctx, "plus", u)


def test_curve_point_raises_and_the_oracle_fails():
    """At a curve point f(u) = 0, so C₀·d is not all of C₁: the even route
    raises, and the computed route finds the radical."""
    ctx = CheckContext(diag_pencil())
    with pytest.raises(FiberError, match="determinant curve"):
        certify_side_split(ctx, "plus", (1, 1, 0))
    with pytest.raises(FiberError, match="determinant curve"):
        certify_ordinary_m4(ctx, (1, 1, 0))
    assert not [key for key in ctx._cache if key[0] == "side-even"]
    cert = certify_split_pair(
        side_fiber(ctx, "plus", (1, 1, 0), QuadraticTower(()))[0], 2)
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
    A = side_fiber(CheckContext(P), "minus", u, QuadraticTower(()))[0]
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
    for module in (checks, clifford):
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
    # one generic solve and one associativity proof serve both blocks:
    # d₋ and the minus side are the plus side's with a and b exchanged
    for cid in ("prop3.9-phi", "prop3.12-dminus-square", *FIBER_CHECKS,
                "prop4.7-annihilator"):
        assert run_single(ctx, cid).status == "pass"
    assert solved == proofs == ["plus"]


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
    algs = [from_pencil(cached_pencil(42), side)
            for side in ("plus", "minus")] + [_fraction_block_algebra()]
    assert [a.integral_structure() for a in algs] == [True, True, False]
    for alg in algs:
        for u in ((1, 2, 3), (-4, 0, 7), (Fraction(1, 2), Fraction(-3, 5), 2)):
            uf = tuple(Fraction(c) for c in u)
            A = clifford_fiber(alg, uf, field, proof="clifford")
            value = evaluator(uf)
            for i in range(8):
                for j in range(8):
                    want = [field.zero] * 8
                    for mask, poly in alg.mask_mul(i, j):
                        want[mask] = field.coerce(value(poly))
                    assert A.table[i][j] == tuple(want)
