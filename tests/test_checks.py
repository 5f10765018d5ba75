"""The named-check registry: vocabulary, statuses, witnesses, caching."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import (
    SCALED_Q_PLUS,
    cached_pencil,
    commutant_dims,
    flip_six_generator_step,
    flip_step,
    from_pencil,
    hilbert_dims_center,
    mutate_identities,
    seeded_pencil,
    with_q_plus,
)
from quadclif import checks, clifford, exactalg, fiber, geometry
from quadclif.checks import (
    CHECK_ORDER,
    CheckContext,
    INSTANCE_FREE,
    UnknownCheckError,
    run_all,
    run_single,
)
from quadclif.cli import main
from quadclif.fiber import sample_invertible_points
from quadclif.pencil import InvariantPencil


DIAGONAL_FAILS = {
    "prop2.2-smoothness", "prop2.2-transversality", "def2.1-rank4",
    "prop2.5-nine-points", "prop3.18-corank1-m2",
    "prop4.2-adjugate-double-line", "prop4.3-singular-locus",
}


def fails(*ids):
    """Mark a TestRegistryMutants case with the check ids it makes FAIL."""
    def mark(test):
        test.fails = ids
        return test
    return mark


def diag_instance():
    def basis(k):
        m = [[0] * 3 for _ in range(3)]
        m[k][k] = 1
        return tuple(tuple(r) for r in m)

    mats = tuple(basis(k) for k in range(3))
    return InvariantPencil(q_plus=mats, q_minus=mats, seed=0, coeff_bound=1)


class TestRegistry:
    def test_vocabulary(self):
        assert len(CHECK_ORDER) == 20
        assert len(set(CHECK_ORDER)) == 20
        assert INSTANCE_FREE < set(CHECK_ORDER)

    def test_unknown_id(self):
        ctx = CheckContext(None)
        with pytest.raises(UnknownCheckError):
            run_single(ctx, "prop0.0-nope")

    def test_instance_required(self):
        ctx = CheckContext(None)
        with pytest.raises(ValueError):
            run_single(ctx, "prop2.2-smoothness")

    def test_flag_validation(self):
        with pytest.raises(ValueError):
            CheckContext(None, points=0)
        # the center check has no weight bound to set
        with pytest.raises(TypeError):
            CheckContext(None, max_degree=6)

    def test_center_check_names_its_point_and_basis(self):
        r = run_single(CheckContext(cached_pencil(42)), "prop3.13-center")
        assert r.status == "pass"
        lower, bound = r.witnesses
        assert lower == {"basis": ["1", "d_plus", "d_minus", "d_plus*d_minus"],
                         "certificate": "generic", "weights": [0, 3, 3, 6],
                         "masks": [0, 7, 56, 63], "unit_diagonal": True}
        assert bound == {"point": [1, 2, 3], "columns": 64, "kernel_dim": 4,
                         "top_masks": [0, 7, 56, 63]}

    def test_prime_and_point_limits(self):
        # the scan primes are a constant, and the scans take no prime knob
        assert (checks.SCAN_PRIMES, checks.MAX_POINTS) == ((101, 103, 107), 200)
        with pytest.raises(TypeError):
            CheckContext(None, primes=(101,))
        with pytest.raises(ValueError, match="points must be at most 200, got 201"):
            CheckContext(None, points=201)
        assert CheckContext(None, points=200).points == 200

    def test_crash_becomes_fail(self, monkeypatch):
        def boom(ctx):
            raise ZeroDivisionError("synthetic")

        monkeypatch.setitem(checks._CHECK_FUNCS, "prop4.9-segre", boom)
        r = run_single(CheckContext(None), "prop4.9-segre")
        assert r.status == "fail"
        assert r.witnesses == [{"error": "ZeroDivisionError: synthetic"}]


class TestRegistryMutants:
    """Checks made to FAIL through run_single by a mutated engine step,
    table, determinant or module; `fails` names each case's check ids."""

    @staticmethod
    def graft(monkeypatch, word):
        """Append the term (word, 1) to the first defining relation."""
        relations = checks.defining_relations

        def grafted(alg):
            rels = relations(alg)
            return [rels[0] + [(word, alg.ring.one())]] + rels[1:]

        monkeypatch.setattr(checks, "defining_relations", grafted)

    @fails("prop3.5-grading")
    def test_grading_fails_on_a_grafted_odd_word(self, monkeypatch):
        self.graft(monkeypatch, (0,))
        r = run_single(CheckContext(cached_pencil(42)), "prop3.5-grading")
        assert r.status == "fail"
        assert [(w["variant"], w["inhomogeneous"]) for w in r.witnesses] == [
            ("ordinary", 1), ("super", 1)]

    @fails("prop3.19-equivariance")
    def test_equivariance_fails_on_a_wrong_scaling(self, monkeypatch):
        # a stray constant scales by 1 where the rest of v1² + q11 scales
        # by λ² = 4
        self.graft(monkeypatch, ())
        r = run_single(CheckContext(cached_pencil(42)), "prop3.19-equivariance")
        assert r.status == "fail"
        assert [(w["variant"], w["single_scalar"]) for w in r.witnesses] == [
            ("ordinary", False), ("super", False)]

    @fails("prop3.5-grading", "prop3.19-equivariance", "prop3.9-phi",
           "prop3.13-center")
    @pytest.mark.parametrize("step", [(19, 4), (6, 0), (3, 1)])
    def test_graded_algebra_checks_fail_on_a_step_flipped_in_both_engines(
            self, monkeypatch, step):
        # both six-generator engines alike, the sides intact: every check
        # passed on these steps until the tensor-product certificate
        flip_six_generator_step(monkeypatch, step)
        ctx = CheckContext(cached_pencil(42), points=1)
        for cid, variant in (("prop3.5-grading", "ordinary"),
                             ("prop3.19-equivariance", "ordinary"),
                             ("prop3.9-phi", "super"),
                             ("prop3.13-center", "ordinary")):
            r = run_single(ctx, cid)
            assert (r.status, r.witnesses) == ("fail", [{
                "error": "ValueError: tensor product fails on the "
                         f"{variant} step e_{step[0]}·v_{step[1]}"}]), cid

    @fails("prop3.18-corank1-m2")
    @pytest.mark.parametrize("side", ["plus"])
    def test_corank1_fails_on_a_flipped_step(self, monkeypatch, side):
        # a negated v2·v1 step breaks the generic side engine, which serves
        # both blocks; its associativity proof fails before any identity is
        # read (there is no minus engine: a flipped minus-block step is a
        # (T₋) step of a six-generator engine, which corank1 does not read)
        flip_step(monkeypatch, side, (0b010, 0))
        r = run_single(CheckContext(cached_pencil(42), points=1),
                       "prop3.18-corank1-m2")
        assert r.status == "fail"
        assert r.witnesses == [
            {"error": "ValueError: associativity fails on (e_1 e_2) v_0"}]

    @fails("prop3.18-corank1-m2")
    def test_corank1_fails_on_an_adjugate_mutant_with_the_counts(
            self, monkeypatch):
        # adj(M)₀₁ negated: wⱼ no longer pairs with the generators as
        # M·adj M = f·I says, and the mutant's adj(adj M) misses f·M
        def mutant(m):
            adj = exactalg.adjugate3(m)
            adj[0][1] = -adj[0][1]
            return adj

        monkeypatch.setattr(fiber, "adjugate3", mutant)
        r = run_single(CheckContext(cached_pencil(42), points=1),
                       "prop3.18-corank1-m2")
        assert r.status == "fail"
        assert r.witnesses[2] == {"certificate": "generic",
                                  "A": {"held": 6, "total": 9},
                                  "B": {"held": 2, "total": 3},
                                  "C": {"held": 5, "total": 9}}

    @fails("prop3.13-center")
    def test_center_fails_on_a_flipped_step(self, monkeypatch):
        # a negated e_{v1v2}·v3 step of the ordinary engine is no longer
        # the plus side's step: the tensor-product certificate names it
        # before any kernel is taken
        flip_step(monkeypatch, "ordinary", (0b011, 2))
        r = run_single(CheckContext(cached_pencil(42)), "prop3.13-center")
        assert (r.status, r.witnesses) == ("fail", [{
            "error": "ValueError: tensor product fails on the ordinary step e_3·v_2"}])

    @fails("prop3.13-center")
    def test_center_fails_when_no_point_bounds_the_kernel(self):
        # q₋ = 0: at a₀ = (q₊(u₀), 0) the algebra is C(q₊(u₀)) ⊗ Λ(V₋),
        # whose center has dimension 2·5 (Λ(V₋)'s even part and top
        # degree): no point bounds the rank, and the check claims no center
        zero = tuple(tuple((0,) * 3 for _ in range(3)) for _ in range(3))
        P = InvariantPencil(q_plus=cached_pencil(42).q_plus, q_minus=zero,
                            seed=0, coeff_bound=5)
        r = run_single(CheckContext(P), "prop3.13-center")
        assert r.status == "fail"
        lower, *bounds = r.witnesses
        assert lower["weights"] == [0, 3, 3, 6] and lower["unit_diagonal"]
        assert [(b["point"], b["kernel_dim"]) for b in bounds] == [
            ([1, 2, 3], 10), ([2, -1, 5], 10)]

    @fails("prop3.9-phi", "prop3.13-center")
    def test_flipped_step_outside_the_center_fails_phi(self, monkeypatch):
        # a negated e_{v2v3}·v1 step touches only the column of mask 0b110,
        # where no central element has a coefficient, so the kernel at a
        # point does not see it; the tensor-product certificate names it in
        # both checks
        flip_step(monkeypatch, "ordinary", (0b110, 0))
        ctx = CheckContext(cached_pencil(42))
        for cid in ("prop3.9-phi", "prop3.13-center"):
            r = run_single(ctx, cid)
            assert (r.status, r.witnesses) == ("fail", [{
                "error": "ValueError: tensor product fails on the ordinary "
                         "step e_6·v_0"}]), cid

    @fails("prop3.18-corank1-m2")
    def test_corank1_fails_on_the_diagonal_with_the_discriminants(self):
        # Δ₊ = Δ₋ = 0 allows corank-2 points, so no curve point is tried
        r = run_single(CheckContext(diag_instance(), points=1),
                       "prop3.18-corank1-m2")
        assert r.status == "fail"
        assert r.witnesses == [{"kind": "discriminant", "side": side, "delta": 0}
                               for side in ("plus", "minus")]

    @fails("prop3.18-corank1-m2",
           "prop4.2-adjugate-double-line",
           "prop4.3-singular-locus",
           "prop3.17-azumaya-m4",
           "prop3.18-split-m2")
    def test_curve_checks_fail_on_a_vanishing_cubic_with_its_witness(self):
        # q₋ = 0 makes f₋ vanish identically: the exact report has no Δ, and
        # the checks gated by _curve_verdict name the degenerate cubic
        zero = tuple(tuple((0,) * 3 for _ in range(3)) for _ in range(3))
        P = InvariantPencil(q_plus=cached_pencil(42).q_plus, q_minus=zero,
                            seed=0, coeff_bound=5)
        degenerate = {"kind": "degenerate_determinant"}
        for cid in ("prop3.18-corank1-m2", "prop4.2-adjugate-double-line",
                    "prop4.3-singular-locus"):
            r = run_single(CheckContext(P, points=1), cid)
            assert r.status != "pass"
            assert degenerate in r.witnesses, (cid, r.witnesses)
        # no point lies off a vanishing cubic: the fiber checks and prop4.2
        # FAIL with that witness alone
        for cid in ("prop3.17-azumaya-m4", "prop3.18-split-m2",
                    "prop4.2-adjugate-double-line"):
            r = run_single(CheckContext(P, points=1), cid)
            assert (r.status, r.witnesses) == ("fail", [degenerate]), cid

    @fails("prop4.9-segre")
    def test_segre_fails_on_a_doubled_plus_coordinate(self, monkeypatch):
        mutate_identities(monkeypatch, "doubled-plus-coordinate")
        r = run_single(CheckContext(None), "prop4.9-segre")
        assert r.status == "fail"
        assert r.witnesses[0]["failures"][0] == "plus-family-not-isotropic"

    @fails("prop4.9-segre")
    def test_segre_fails_on_an_unsigned_wedge(self, monkeypatch):
        # w_j = y ∧ e_j without its minus sign: Σ y_j·w_j = 2·(y_k·y_l)
        mutate_identities(monkeypatch, "unsigned-wedge")
        r = run_single(CheckContext(None), "prop4.9-segre")
        assert r.status == "fail"
        assert "w-relation" in r.witnesses[0]["failures"]

    @fails("prop4.8-m0-matrix")
    def test_m0_fails_on_a_doubled_entry(self, monkeypatch):
        # entry (0, 0) doubled breaks the relation and the a0³ minor
        mutate_identities(monkeypatch, "doubled-m0-entry")
        r = run_single(CheckContext(None), "prop4.8-m0-matrix")
        assert r.status == "fail"
        assert r.witnesses[0]["failures"] == ["relation", "cube-minor-a0"]

    @fails("prop4.8-m0-matrix")
    def test_m0_fails_when_the_contraction_rows_vanish(self, monkeypatch):
        # the relation still holds and every 4×4 minor vanishes, but the
        # a1³, a2³ and a3³ minors use the contraction rows
        mutate_identities(monkeypatch, "zeroed-contractions")
        r = run_single(CheckContext(None), "prop4.8-m0-matrix")
        assert r.status == "fail"
        assert r.witnesses[0]["failures"] == [
            "cube-minor-a1", "cube-minor-a2", "cube-minor-a3"]

    @fails("prop2.2-transversality", "prop2.5-nine-points")
    def test_tangent_curves_fail_only_the_resultant_checks(self, tmp_path):
        """seeded_pencil(72) has Δ₊Δ₋ ≠ 0, but its curves are tangent, so
        the resultant has a repeated root from every center: the two checks
        it decides FAIL with that witness, and the two that Δ decides PASS,
        plain and under python -O."""
        ids = ("prop2.2-smoothness", "prop2.2-transversality",
               "def2.1-rank4", "prop2.5-nine-points")
        resultant = {"kind": "resultant", "center": [2, 3, 1], "degree": 9,
                     "squarefree": False}
        P = seeded_pencil(72)
        ctx = CheckContext(P, points=1)
        plain = {}
        for cid in ids:
            r = run_single(ctx, cid)
            plain[cid] = [r.status, r.witnesses]
            if cid in ("prop2.2-transversality", "prop2.5-nine-points"):
                assert r.status == "fail" and resultant in r.witnesses, cid
            else:
                assert r.status == "pass", (cid, r.witnesses)
        inst = tmp_path / "inst.json"
        inst.write_bytes(P.canonical_bytes())
        script = ("import json, sys\n"
                  "from quadclif.checks import CheckContext, run_single\n"
                  "from quadclif.pencil import load_instance\n"
                  "ctx = CheckContext(load_instance(sys.argv[1]), points=1)\n"
                  "rs = [run_single(ctx, cid) for cid in sys.argv[2:]]\n"
                  "print(json.dumps({r.id: [r.status, r.witnesses] for r in rs}))\n")
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script, str(inst), *ids],
            capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=str(src)))
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == json.loads(json.dumps(plain))


    @fails("prop3.12-dplus-square", "prop3.12-dminus-square")
    def test_d_square_fails_on_a_determinant_of_the_wrong_sign(self,
                                                               monkeypatch):
        # det(q) negated: d² = det M still holds, but as −det(q), so the
        # solver records the sign −1, and the negated det M at a = q(u) is
        # −f, not the cubic pencil.det_cubic computes on its own
        det = exactalg.SymMatrix.det
        monkeypatch.setattr(exactalg.SymMatrix, "det", lambda m: -det(m))
        ctx = CheckContext(cached_pencil(42), points=1)
        for side in ("plus", "minus"):
            r = run_single(ctx, f"prop3.12-d{side}-square")
            assert (r.status, r.witnesses) == ("fail", [
                {"side": side, "certificate": "generic", "sign": -1,
                 "det_M_at_q_is_f": False, "solution": "unique monic"}])

    @fails("prop3.12-dplus-square", "prop3.12-dminus-square")
    def test_d_square_fails_when_the_cubics_are_not_the_blocks_determinants(
            self):
        # f₊ and f₋ exchanged in the instance's stored curves: d² = det M
        # still holds on the generic side, but det M at a = q±(u) is no
        # longer the stored f±
        P = cached_pencil(42)
        curves = P.det_curves()
        Q = InvariantPencil(P.q_plus, P.q_minus, P.seed, P.coeff_bound)
        object.__setattr__(Q, "_det_curves", curves._replace(
            f_plus=curves.f_minus, f_minus=curves.f_plus))
        ctx = CheckContext(Q, points=1)
        for side in ("plus", "minus"):
            r = run_single(ctx, f"prop3.12-d{side}-square")
            assert (r.status, r.witnesses) == ("fail", [
                {"side": side, "certificate": "generic", "sign": 1,
                 "det_M_at_q_is_f": False, "solution": "unique monic"}])

    @fails("prop2.3-stabilizers", "prop2.8-stabilizers")
    def test_stabilizers_fail_on_a_dropped_element(self, monkeypatch):
        # the closed-form table loses the last element of the stabilizer of
        # a point with y₊ = y₋ = 0, which the brute force still finds
        closed = geometry.stabilizer

        def dropped(yp, ym, group):
            s = closed(yp, ym, group)
            if yp and ym:
                s = s._replace(elements=s.elements[:-1])
            return s

        monkeypatch.setattr(geometry, "stabilizer", dropped)
        for cid, elements in (("prop2.3-stabilizers", [1]),
                              ("prop2.8-stabilizers", [[1, 1], [1, -1], [-1, 1]])):
            r = run_single(CheckContext(None), cid)
            assert r.status == "fail"
            assert [w["matches_bruteforce"] for w in r.witnesses] == [
                True, True, True, False]
            assert r.witnesses[-1]["elements"] == elements

    @fails("prop4.7-annihilator")
    def test_annihilator_fails_on_perturbed_module_matrices(self, monkeypatch):
        """ρ(v₁) with 1 added to one entry is no longer a module matrix.
        prop4.7 recounts the Clifford relations and traces from the
        matrices and the block, reads the broken ones, and FAILs with the
        counts as its witnesses, one per side and nothing else: off the
        diagonal the three relations with v₁ break, on it the trace as
        well."""
        module_rep = checks.module_rep
        for entry, relations, traceless in (((0, 1), 3, 3), ((0, 0), 3, 2)):

            def perturbed(ctx, side, u):
                rep = module_rep(ctx, side, u)
                rho = [list(row) for row in rep.matrices[0]]
                rho[entry[0]][entry[1]] += rep.tower.one
                return rep._replace(matrices=(
                    tuple(map(tuple, rho)), *rep.matrices[1:]))

            monkeypatch.setattr(checks, "module_rep", perturbed)
            r = run_single(CheckContext(cached_pencil(42), points=1),
                           "prop4.7-annihilator")
            assert r.status == "fail"
            assert [(w["side"], w["relations"], w["traceless"])
                    for w in r.witnesses] == [("plus", relations, traceless),
                                              ("minus", relations, traceless)]
            assert [set(w) for w in r.witnesses] == [
                {"side", "point", "field", "relations", "traceless"}] * 2


def test_registry_mutants_and_the_diagonal_cover_every_check():
    """Every check id has a tier-1 FAIL path through run_single: a case of
    TestRegistryMutants, or the diagonal control's seven."""
    covered = set(DIAGONAL_FAILS)
    for name in dir(TestRegistryMutants):
        covered.update(getattr(getattr(TestRegistryMutants, name), "fails", ()))
    assert covered == set(CHECK_ORDER)


class TestInstanceFree:
    def test_all_pass_without_instance(self):
        ctx = CheckContext(None)
        for cid in sorted(INSTANCE_FREE):
            r = run_single(ctx, cid)
            assert r.status == "pass", (cid, r.witnesses)
            json.dumps(r.to_json_dict())

    def test_segre_residual_hash_stable(self):
        ctx = CheckContext(None)
        a = run_single(ctx, "prop4.9-segre").witnesses[0]["residual_sha256"]
        b = run_single(ctx, "prop4.9-segre").witnesses[0]["residual_sha256"]
        assert a == b and len(a) == 64

    def test_stabilizer_witnesses(self):
        ctx = CheckContext(None)
        r = run_single(ctx, "prop2.8-stabilizers")
        rows = {(w["y_plus_zero"], w["y_minus_zero"]): w["subgroup"]
                for w in r.witnesses}
        assert rows[(False, False)] == "trivial"
        assert rows[(True, False)] == "Z2_lambda"
        assert rows[(False, True)] == "Z2_s"
        assert rows[(True, True)] == "Z2xZ2"
        r = run_single(ctx, "prop2.3-stabilizers")
        rows = {(w["y_plus_zero"], w["y_minus_zero"]): w["subgroup"]
                for w in r.witnesses}
        assert rows[(True, True)] == "Z2_lambda"
        assert rows[(False, False)] == "trivial"


class TestOnInstance:
    def test_full_run_passes(self):
        P = cached_pencil(42)
        ctx = CheckContext(P, points=3)
        results = run_all(ctx)
        assert [r.id for r in results] == list(CHECK_ORDER)
        bad = [(r.id, r.witnesses) for r in results if r.status != "pass"]
        assert not bad, bad
        payload = json.dumps([r.to_json_dict() for r in results])
        assert "Fraction" not in payload

    def test_center_verdict_agrees_with_the_weight_oracle(self):
        """The one-point certificate against the weight-by-weight commutant
        it replaced, on weights 0..6."""
        named = [cached_pencil(42), cached_pencil(7), diag_instance()]
        oracle = hilbert_dims_center(6)
        for P in named + [seeded_pencil(i) for i in range(20)]:
            r = run_single(CheckContext(P), "prop3.13-center")
            alg = from_pencil(P, "ordinary")
            assert r.status == "pass"
            assert commutant_dims(alg, 6) == oracle

    def test_point_sample_is_shared_and_deterministic(self):
        P = cached_pencil(42)
        ctx = CheckContext(P, points=3)
        pts1 = ctx.fiber_points()
        assert pts1 is ctx.fiber_points()
        ctx2 = CheckContext(P, points=3)
        assert ctx2.fiber_points() == pts1

    def test_point_sample_draws_only_the_points_read(self):
        # prop4.2 reads three points and prop4.7 one; the sampler stops at
        # its count, so the first three of any longer sample are the same
        P = cached_pencil(42)
        longest = CheckContext(P).fiber_points()
        assert len(longest) == 3
        for n in (1, 2, 4, 20, 200):
            ctx = CheckContext(P, points=n)
            assert ctx.fiber_points() == sample_invertible_points(
                P, ctx.rng("fiber-points"), n)[:3] == longest[:n]

    def test_each_algebra_is_built_once_per_run(self, monkeypatch):
        """Each of the three generic engines is built once and proven once
        per run: the plus side by verify_associativity, the ordinary and
        super algebras by verify_tensor_product against it; no engine and
        no proof exists for the minus side, which is the plus side under
        a ↔ b.  Both prop3.12 checks read d without a proof, and prop3.18
        proves the plus side alone."""
        calls = []
        Alg = clifford.CliffordAlgebra
        assert not hasattr(Alg, "verify_swap")
        names = ("__init__", "verify_associativity", "verify_tensor_product")
        for name in names:
            def counting(alg, *args, _name=name, _real=getattr(Alg, name), **kw):
                out = _real(alg, *args, **kw)
                calls.append((_name, alg.variant))
                return out
            monkeypatch.setattr(Alg, name, counting)

        def counts(run):
            calls.clear()
            results = run(CheckContext(cached_pencil(42), points=1))
            assert {r.status for r in results} == {"pass"}
            return {name: sorted(v for n, v in calls if n == name)
                    for name in names}

        assert counts(run_all) == {
            "__init__": ["ordinary", "plus", "super"],
            "verify_associativity": ["plus"],
            "verify_tensor_product": ["ordinary", "super"]}
        for cid in ("prop3.12-dplus-square", "prop3.12-dminus-square"):
            assert counts(lambda ctx: [run_single(ctx, cid)]) == {
                "__init__": ["plus"], "verify_associativity": [],
                "verify_tensor_product": []}, cid
        assert counts(lambda ctx: [run_single(ctx, "prop3.18-corank1-m2")]) == {
            "__init__": ["plus"], "verify_associativity": ["plus"],
            "verify_tensor_product": []}

    def test_each_curve_compiles_once_per_run(self, monkeypatch):
        """f₊ of SCALED_Q_PLUS vanishes mod 101, so its ReducedCurve raises
        ScanError there.  CheckContext.curve keeps the error, so one run
        compiles each (side, prime) once: six compile_poly calls, and the
        same verdicts, witnesses and notes as a run whose every curve
        lookup builds its curve afresh."""
        P = with_q_plus(SCALED_Q_PLUS)
        compiled = []
        real = geometry.compile_poly

        def counting(f, p):
            compiled.append((next(side for side in ("plus", "minus")
                                  if f == P.det_curves().side(side)), p))
            return real(f, p)

        def stripped(run):
            return [(r.id, r.status, r.witnesses) for r in run]

        monkeypatch.setattr(geometry, "compile_poly", counting)
        kept = stripped(run_all(CheckContext(P, points=1)))
        assert sorted(compiled) == sorted(
            (side, p) for side in ("plus", "minus") for p in checks.SCAN_PRIMES)
        monkeypatch.setattr(CheckContext, "curve", lambda ctx, side, p:
                            geometry.ReducedCurve(P.det_curves().side(side),
                                                  P.side_mats(side), p))
        compiled.clear()
        assert stripped(run_all(CheckContext(P, points=1))) == kept
        assert compiled.count(("plus", 101)) > 1
        assert any(w.get("note") == "bad reduction mod 101: Delta_plus != 0 over Q"
                   for _, _, wit in kept for w in wit)

    def test_diagonal_fails_smoothness_with_witness_points(self):
        P = diag_instance()
        ctx = CheckContext(P, points=3)
        r = run_single(ctx, "prop2.2-smoothness")
        assert r.status == "fail"
        pts = [tuple(w["point"]) for w in r.witnesses if w.get("point")]
        for corner in [(1, 0, 0), (0, 1, 0), (0, 0, 1)]:
            assert corner in pts

    def test_diagonal_control_fails_exactly_its_seven_checks(self):
        """f± = u1·u2·u3: three lines meeting in three singular points,
        corank 2 there, and a resultant that vanishes identically.  The
        seven curve checks FAIL with Δ± = 0 or the resultant behind them,
        and the scans, which agree, carry no bad-reduction note."""
        run = run_all(CheckContext(diag_instance(), points=1))
        assert {r.id for r in run if r.status != "pass"} == DIAGONAL_FAILS
        results = {r.id: r.witnesses for r in run}
        delta = [{"kind": "discriminant", "side": side, "delta": 0}
                 for side in ("plus", "minus")]
        resultant = {"kind": "resultant", "center": [1, 1, 1], "degree": -1,
                     "squarefree": False}
        for cid in ("prop2.2-smoothness", "def2.1-rank4",
                    "prop4.2-adjugate-double-line", "prop4.3-singular-locus"):
            assert results[cid][:2] == delta
        for cid in ("prop2.2-transversality", "prop2.5-nine-points"):
            assert results[cid][0] == resultant
        assert {"kind": "e_plus_singular", "prime": 101,
                "point": [1, 0, 0]} in results["prop2.2-smoothness"]
        assert {"kind": "tangency", "prime": 107,
                "point": [1, 0, 0]} in results["prop2.2-transversality"]
        assert {"kind": "corank", "prime": 103, "point": None,
                "value": 2} in results["def2.1-rank4"]
        assert results["prop2.5-nine-points"][1]["notes"][-1] \
            == "resultant identically zero"
        assert results["prop3.18-corank1-m2"] == delta
        assert {"side": "minus", "prime": 101, "violation_at": [1, 0, 0]} \
            in results["prop4.2-adjugate-double-line"]
        assert {"side": "plus", "prime": 107,
                "violation": "corank >= 2 at (1, 0, 0) mod 107"} \
            in results["prop4.3-singular-locus"]
        assert not any("note" in w for cid in DIAGONAL_FAILS
                       for w in results[cid])

    def test_double_resultant_root_fails_exactly_the_resultant_checks(
            self, tmp_path, capsys):
        # seeded_pencil(94) is tangent at (1:0:0), so u2² ∥ R: the
        # resultant is not squarefree and only its two checks FAIL
        P = seeded_pencil(94)
        resultant = ('{"center": [2, 3, 1], "degree": 9, "kind": "resultant", '
                     '"squarefree": false}')
        ids = {"prop2.2-transversality", "prop2.5-nine-points"}

        def resultant_witnesses(witnesses):
            return [json.dumps(w, sort_keys=True) for w in witnesses
                    if w.get("kind") == "resultant"]

        ctx = CheckContext(P, points=1)
        for cid in sorted(ids):
            res = run_single(ctx, cid)
            assert res.status == "fail"
            assert resultant_witnesses(res.witnesses) == [resultant]
        inst, report = tmp_path / "inst.json", tmp_path / "report.json"
        inst.write_bytes(P.canonical_bytes())
        assert main(["check", str(inst), "--points", "1",
                     "--report", str(report)]) == 1
        capsys.readouterr()
        rep = json.loads(report.read_text())
        assert [c["id"] for c in rep["checks"]] == list(CHECK_ORDER)
        assert {c["id"] for c in rep["checks"] if c["status"] != "pass"} == ids
        for c in rep["checks"]:
            if c["id"] in ids:
                assert resultant_witnesses(c["witnesses"]) == [resultant]

    def test_corank1_proves_the_three_identities(self):
        P = cached_pencil(42)
        ctx = CheckContext(P, points=2)
        r = run_single(ctx, "prop3.18-corank1-m2")
        assert r.status == "pass"
        plus, minus, *sides, summary = r.witnesses
        assert [plus["kind"], minus["kind"]] == ["discriminant"] * 2
        # held/total of (A), (B) and (C) on the generic side, over Z[a]:
        # no point, no line, no prime and no field
        assert sides == [{"certificate": "generic", "A": {"held": 9, "total": 9},
                          "B": {"held": 3, "total": 3},
                          "C": {"held": 9, "total": 9}}]
        assert summary["claim"] == "M2 radical quotient"
        assert summary["locus"] == {"plus": "f_plus = 0", "minus": "f_minus = 0"}
        assert set(summary["identities"]) == {"A", "B", "C"}
        text = json.dumps(r.witnesses)
        for word in ("line", "section", "prime", "field", "point"):
            assert word not in text, word

    def test_corank1_needs_no_cubic_field(self, monkeypatch):
        # the line walk and the cubic field stay in fiber for the
        # benchmark's probes only: a default check never reaches them
        def refuse(*args, **kwargs):
            raise AssertionError("the check path built a cubic-field point")

        monkeypatch.setattr(fiber, "cubic_section_point", refuse)
        monkeypatch.setattr(fiber, "CubicField", refuse)
        run = run_all(CheckContext(cached_pencil(42)))
        assert [r.id for r in run] == list(CHECK_ORDER)
        assert {r.status for r in run} == {"pass"}

    def test_adjugate_scan_counts(self):
        P = cached_pencil(42)
        ctx = CheckContext(P, points=3)
        r = run_single(ctx, "prop4.2-adjugate-double-line")
        assert r.status == "pass"
        scans = [w for w in r.witnesses if "points_scanned" in w]
        assert len(scans) == 2
        for w in scans:
            assert set(w) == {"side", "prime", "points_scanned", "rank3",
                              "double_lines"}
            assert w["prime"] == 101
            assert w["points_scanned"] == 101 * 101 + 101 + 1
            assert w["double_lines"] > 0
            assert w["rank3"] + w["double_lines"] == w["points_scanned"]
        assert r.witnesses[-1] == {"certificate": "exact discriminants"}
