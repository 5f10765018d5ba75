"""Command-line surface: exit codes, report schema, determinism."""

import ast
import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from quadclif import __version__
from quadclif.checks import CHECK_ORDER
from quadclif.cli import main
from quadclif.pencil import MAX_COEFF_BOUND, U_VARS, load_instance

from conftest import (
    BAD_REDUCTION_Q_PLUS,
    SCALED_Q_PLUS,
    SINGULAR_OFF_FP_Q_PLUS,
    VANISHING_PARTIAL_Q_PLUS,
    cached_pencil,
    center_matrix,
    coordinate_change,
    macaulay_resultant,
    poly_sylvester_resultant,
    squarefree_by_gcd,
    total_degree,
    with_q_plus,
)
from test_checks import diag_instance


def save_instance(P, path):
    payload = P.canonical_bytes()
    with open(path, "wb") as fh:
        fh.write(payload)
    return hashlib.sha256(payload).hexdigest()

# Pinned output of `gen --seed 42 --bound 5`; the instance format and the
# generator are both frozen, so this digest must never drift.
SEED42_DIGEST = "b0b63425e0f60cbaeaf492a2dfe51db1359208f7968fe5c080b8a75b5cb336d4"

# SHA-256 of the compact, key-sorted JSON of the `seconds`-stripped report
# of `check --points 2` on that instance: every verdict and witness of the
# full run is pinned byte for byte.  It last changed when
# prop4.7-annihilator took its verdict from the module's relation and
# trace counts alone and its witnesses lost "lines", "round_trip" and
# "injective" (before: faa217af…5639893b54); before that, when the Clifford
# layer (prop3.5, 3.19, 3.9, 3.12±, 3.13, 3.17 and 3.18) moved to one
# certificate over generic blocks, whose witnesses say "generic", state
# c and c′ once and carry det M's specialization to f±, and prop3.9 lost
# its "failing_pairs" (before: a978c549…84ebf005); before that, when
# prop3.18-corank1-m2 moved from the M2 quotient at one cubic-field point
# per side to the identities (A)-(C) over Z[u], with held/total counts per
# side (before: e17bbe71…98b92541); before that, when prop3.13-center
# dropped its "central" list, which the tensor-product certificate of
# CheckContext.algebra now implies (before: 8e0600e4…39836d80b); before
# that, when prop4.8-m0-matrix and prop4.9-segre began to name their kernel
# relation and rank minors (before: daaed7e5…ed88803e3); before that, when the witnesses of
# prop4.7-annihilator began to count the module's Clifford relations and
# traces (before: b5366b8b…e436b78); before that, when the genericity and
# curve checks began to carry Δ±, the resultant's center and their
# certificate names in place of "randomized", and the report lost its
# top-level primes (e7c3ef98…78da2f0); and before that, through the
# witnesses of prop3.17-azumaya-m4 and prop3.18-split-m2, which moved from
# verdicts at sampled points to Gram identities over Z[u] (0c3a7664…8ee4).
FULL_RUN_SHA256 = "64383a6d9eb95e24a61724338c2c87a3b938f31dced6ebbcb9b7f0f04577bb90"

# SHA-256 of everything `gen` prints (one digest line each) for seeds 7 and
# 42 at bound 5, then seeds 1..25 at bound 3 and seeds 1..25 at bound 9.
GEN_DIGESTS_SHA256 = "2489f7c1665a018f375cc9f36e71e95fb0fcfb35147af8f084b826a164b4ba00"
GEN_JOBS = ((7, 5), (42, 5)) + tuple((s, b) for b in (3, 9) for s in range(1, 26))


def gen(tmp_path, seed=42, bound=5, name="inst.json"):
    out = tmp_path / name
    rc = main(["gen", "--seed", str(seed), "--bound", str(bound),
               "-o", str(out)])
    assert rc == 0
    return out


def stripped(report_path):
    rep = json.loads(report_path.read_text())
    for c in rep["checks"]:
        del c["seconds"]
    return rep


def float_paths(node, path="report"):
    """Paths of the float values in a JSON report, the timing fields
    (`seconds`) aside: every verdict and witness is exact."""
    if isinstance(node, float):
        return [path]
    if isinstance(node, dict):
        return [p for k, v in node.items() if k != "seconds"
                for p in float_paths(v, f"{path}.{k}")]
    if isinstance(node, list):
        return [p for i, v in enumerate(node) for p in float_paths(v, f"{path}[{i}]")]
    return []


class TestGen:
    def test_digest_pinned_and_reproducible(self, tmp_path, capsys):
        out = gen(tmp_path)
        assert capsys.readouterr().out.strip() == SEED42_DIGEST
        data = out.read_bytes()
        out2 = gen(tmp_path, name="again.json")
        assert out2.read_bytes() == data
        assert load_instance(str(out)).digest() == SEED42_DIGEST

    def test_gen_digests_pinned(self, tmp_path, capsys):
        for seed, bound in GEN_JOBS:
            gen(tmp_path, seed, bound)
        out = capsys.readouterr().out
        assert len(out.splitlines()) == len(GEN_JOBS)
        assert hashlib.sha256(out.encode()).hexdigest() == GEN_DIGESTS_SHA256

    def test_different_seed_different_instance(self, tmp_path, capsys):
        gen(tmp_path, seed=7, name="a.json")
        d7 = capsys.readouterr().out.strip()
        assert d7 != SEED42_DIGEST and len(d7) == 64

    def test_bad_bound(self, tmp_path, capsys):
        rc = main(["gen", "--seed", "1", "--bound", "0",
                   "-o", str(tmp_path / "x.json")])
        assert rc == 2
        assert "error" in capsys.readouterr().err
        # one above the ceiling is refused before any matrix is drawn
        rc = main(["gen", "--seed", "1", "--bound", str(MAX_COEFF_BOUND + 1),
                   "-o", str(tmp_path / "x.json")])
        assert rc == 2
        assert (capsys.readouterr().err.strip()
                == "quadclif: error: --bound must be at most 1000000")
        assert not (tmp_path / "x.json").exists()

    def test_unwritable_out(self, tmp_path, capsys):
        rc = main(["gen", "--seed", "1", "--bound", "3",
                   "-o", str(tmp_path / "no" / "dir" / "x.json")])
        assert rc == 2


class TestCheckUsage:
    def test_missing_instance_file(self, tmp_path, capsys):
        rc = main(["check", str(tmp_path / "absent.json")])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_unknown_check_id(self, tmp_path):
        inst = gen(tmp_path, seed=1, bound=3)
        assert main(["check", "prop9.9-nope", str(inst)]) == 2

    def test_instance_file_named_like_a_check_id(self, tmp_path, capsys,
                                                 monkeypatch):
        # an existing file is the instance even when its name has the shape
        # of an id; an id-shaped name that is no file stays an unknown id
        gen(tmp_path, name="prop42.json")
        monkeypatch.chdir(tmp_path)
        assert main(["check", "prop3.12-dplus-square", "prop42.json"]) == 0
        assert "PASS prop3.12-dplus-square" in capsys.readouterr().out
        assert main(["check", "prop42.json", "--points", "1"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "overall: pass"
        assert main(["check", "prop43.json"]) == 2
        assert "unknown check id: prop43.json" in capsys.readouterr().err

    def test_two_instance_paths(self, tmp_path):
        inst = gen(tmp_path, seed=1, bound=3)
        assert main(["check", str(inst), str(inst)]) == 2

    def test_instance_needed_but_missing(self):
        assert main(["check", "prop2.2-smoothness"]) == 2

    def test_two_check_ids(self, tmp_path):
        inst = gen(tmp_path, seed=1, bound=3)
        assert main(["check", "prop3.13-center", "prop4.8-m0-matrix",
                     str(inst)]) == 2

    def test_prime_and_point_limits(self, tmp_path, capsys):
        path = tmp_path / "diag.json"
        save_instance(diag_instance(), str(path))
        rc = main(["check", "prop4.9-segre", str(path), "--points", "201"])
        assert rc == 2
        assert "error: points must be at most 200, got 201" in capsys.readouterr().err
        # the bound itself is accepted
        assert main(["check", "prop2.2-smoothness", str(path),
                     "--points", "200"]) == 1
        assert main(["check", "prop4.9-segre", str(path),
                     "--points", "200"]) == 0

    def test_bad_flags(self, tmp_path):
        inst = gen(tmp_path, seed=1, bound=3)
        assert main(["check", "prop4.9-segre", str(inst),
                     "--points", "0"]) == 2

    def test_max_degree_is_an_unknown_flag(self, tmp_path, capsys):
        # the center check covers every weight, so there is no bound to set
        inst = gen(tmp_path, seed=1, bound=3)
        with pytest.raises(SystemExit) as exc:
            main(["check", "prop3.13-center", str(inst), "--max-degree", "6"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --max-degree 6" in capsys.readouterr().err

    def test_primes_is_an_unknown_flag(self, tmp_path, capsys):
        # the F_p witness scans run at the fixed checks.SCAN_PRIMES
        inst = gen(tmp_path, seed=1, bound=3)
        with pytest.raises(SystemExit) as exc:
            main(["check", "prop2.2-smoothness", str(inst), "--primes", "101"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --primes 101" in capsys.readouterr().err

    def test_corrupt_instance_json(self, tmp_path, capsys):
        good = json.loads(cached_pencil(42).canonical_bytes())
        k, i, j = next((k, i, j) for k in range(3) for i in range(3)
                       for j in range(3) if good["q_plus"][k][i][j] == 1)
        with_true = json.loads(json.dumps(good))
        with_true["q_plus"][k][i][j] = with_true["q_plus"][k][j][i] = True
        texts = ["{\"not\": \"an instance\"}",
                 # bool is an int subclass; true must not pass as 1
                 json.dumps(with_true),
                 # no silent truncation or parsing of the header fields
                 json.dumps(dict(good, coeff_bound=5.9)),
                 json.dumps(dict(good, seed="12")),
                 # too deep for the JSON parser: a usage error, not a crash
                 "[" * 200_000]
        bad = tmp_path / "bad.json"
        for text in texts:
            bad.write_text(text)
            assert main(["check", bad.as_posix()]) == 2
            assert "malformed instance" in capsys.readouterr().err
        # a coefficient bound at the ceiling loads, one above it does not
        bad.write_text(json.dumps(dict(good, coeff_bound=MAX_COEFF_BOUND)))
        assert main(["check", "prop3.12-dplus-square", bad.as_posix()]) == 0
        bad.write_text(json.dumps(dict(good, coeff_bound=MAX_COEFF_BOUND + 1)))
        capsys.readouterr()
        assert main(["check", bad.as_posix()]) == 2
        err = capsys.readouterr().err
        assert "malformed instance" in err
        assert "coeff_bound must be at most 1000000, got 1000001" in err


    @pytest.mark.parametrize("field,value,message", [
        ("q_plus", 5, "q_plus must be a list of 3 matrices, not int"),
        ("q_plus", [1, 2, 3], "q_plus[0] must be a list of 3 rows, not int"),
        ("q_minus", [[1, 2, 3]] * 3, "q_minus[0][0] must be a list of 3 entries, not int"),
        ("q_plus", [[[0, 0], [0, 0], [0, 0]]] * 3,
         "q_plus[0][0] must be a list of 3 entries, not 2"),
        ("q_plus", [], "q_plus must be a list of 3 matrices, not 0"),
        ("seed", "9" * 5000, "malformed instance data: an integer with 5000 digits is too long"),
        ("seed", "-" + "9" * 5000,
         "malformed instance data: an integer with 5000 digits is too long"),
        ("seed", None, "malformed instance data: missing key seed"),
        ("extra", 1, "malformed instance data: unknown key extra"),
    ], ids=["block-int", "matrix-int", "row-int", "short-row", "no-matrices",
            "long-seed", "long-negative-seed", "missing-key", "unknown-key"])
    def test_malformed_instance_names_what_is_wrong(self, tmp_path, capsys, field,
                                                     value, message):
        """A block, matrix or row that is not a list of three is named, a
        missing or unknown key is named, and an integer too long for int()
        gets a plain message, never Python's own error text (exit 2)."""
        good = json.loads(cached_pencil(42).canonical_bytes())
        if value is None:  # the key left out
            text = json.dumps({k: v for k, v in good.items() if k != field})
        elif isinstance(value, str):  # a bare JSON integer literal
            text = json.dumps(dict(good, **{field: 0})).replace(
                f'"{field}": 0', f'"{field}": {value}')
        else:
            text = json.dumps(dict(good, **{field: value}))
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        assert main(["check", bad.as_posix()]) == 2
        err = capsys.readouterr().err
        assert err.startswith("quadclif: error: malformed instance ")
        assert err.rstrip().endswith(message)
        assert "len()" not in err and "set_int_max_str_digits" not in err
        assert "'" not in err


class TestCheckRuns:
    @pytest.mark.parametrize("text", ["[1, 2]", "3"], ids=["list", "number"])
    def test_instance_top_level_must_be_an_object(self, tmp_path, capsys,
                                                  text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        assert main(["check", bad.as_posix()]) == 2
        err = capsys.readouterr().err
        assert err.startswith("quadclif: error: malformed instance ")
        assert err.rstrip().endswith(
            "malformed instance data: the top level must be a JSON object")

    @pytest.mark.parametrize("check_id", [
        "prop4.9-segre", "prop3.5-grading", "prop3.19-equivariance", "prop3.9-phi"])
    def test_instance_free_without_instance(self, capsys, check_id):
        rc = main(["check", check_id])
        assert rc == 0
        out = capsys.readouterr().out
        assert f"PASS {check_id}" in out
        assert "overall: pass" in out

    def test_single_check_on_instance(self, tmp_path, capsys):
        inst = gen(tmp_path)
        rc = main(["check", "prop3.12-dplus-square", str(inst)])
        assert rc == 0
        assert "PASS prop3.12-dplus-square" in capsys.readouterr().out

    def test_diagonal_instance_fails(self, tmp_path, capsys):
        path = tmp_path / "diag.json"
        save_instance(diag_instance(), str(path))
        report = tmp_path / "r.json"
        rc = main(["check", "prop2.2-smoothness", str(path),
                   "--report", str(report)])
        assert rc == 1
        out = capsys.readouterr().out
        assert "FAIL prop2.2-smoothness" in out
        assert "overall: fail" in out
        rep = json.loads(report.read_text())
        assert rep["overall"] == "fail"
        pts = [tuple(w["point"]) for w in rep["checks"][0]["witnesses"]
               if w.get("point")]
        assert (1, 0, 0) in pts

    def test_report_schema_and_determinism(self, tmp_path, capsys):
        inst = gen(tmp_path)
        r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
        argv = ["check", "prop3.13-center", str(inst)]
        assert main(argv + ["--report", str(r1)]) == 0
        assert main(argv + ["--report", str(r2)]) == 0
        capsys.readouterr()
        rep = stripped(r1)
        assert rep == stripped(r2)
        assert rep["schema"] == 1
        assert rep["tool"] == {"name": "quadclif", "version": __version__}
        assert rep["instance"]["digest"] == SEED42_DIGEST
        assert rep["instance"]["seed"] == 42
        assert "primes" not in rep
        assert rep["flags"] == {"points": 20}
        ids = [c["id"] for c in rep["checks"]]
        assert ids == ["prop3.13-center"]

    def test_center_check_reports_its_point_kernel(self, tmp_path, capsys):
        inst = gen(tmp_path)
        report = tmp_path / "r.json"
        assert main(["check", "prop3.13-center", str(inst),
                     "--report", str(report)]) == 0
        capsys.readouterr()
        rep = stripped(report)
        assert rep["flags"] == {"points": 20}
        lower, bound = rep["checks"][0]["witnesses"]
        assert lower["weights"] == [0, 3, 3, 6] and lower["unit_diagonal"]
        assert bound == {"point": [1, 2, 3], "columns": 64, "kernel_dim": 4,
                         "top_masks": [0, 7, 56, 63]}
        assert "error" not in json.dumps(rep) and float_paths(rep) == []

    def test_full_run(self, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        save_instance(cached_pencil(42), str(inst))
        report = tmp_path / "full.json"
        rc = main(["check", str(inst), "--points", "2",
                   "--report", str(report)])
        assert rc == 0
        lines = [ln for ln in capsys.readouterr().out.splitlines() if ln]
        assert lines[-1] == "overall: pass"
        assert [ln.split()[1] for ln in lines[:-1]] == list(CHECK_ORDER)
        rep = stripped(report)
        assert [c["id"] for c in rep["checks"]] == list(CHECK_ORDER)
        assert all(c["status"] == "pass" for c in rep["checks"])
        payload = json.dumps(rep, sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(payload.encode()).hexdigest() == FULL_RUN_SHA256

    def test_exact_certificates_recompute_from_the_instance(self, tmp_path,
                                                             capsys):
        """Every Δ± and resultant witness of the seed-42 report is re-derived
        from the instance by the test oracles: Δ = 512·Res of the partials
        by Macaulay's quotient, and R = Res_u3 of the cubics moved to the
        reported center by MultiPoly elimination, read as a binary form and
        tested by the two-path gcd."""
        inst = gen(tmp_path)
        report = tmp_path / "r.json"
        assert main(["check", str(inst), "--points", "1",
                     "--report", str(report)]) == 0
        capsys.readouterr()
        exact = [w for c in stripped(report)["checks"] for w in c["witnesses"]
                 if w.get("kind") in ("discriminant", "resultant")]
        deltas = {w["side"]: w["delta"] for w in exact
                  if w["kind"] == "discriminant"}
        (resultant,) = {json.dumps(w, sort_keys=True) for w in exact
                        if w["kind"] == "resultant"}
        resultant = json.loads(resultant)
        assert deltas == {"plus": 6985432436106805936128,
                          "minus": -6731478357171826471905471234048}
        assert resultant == {"kind": "resultant", "center": [0, 0, 1],
                             "degree": 9, "squarefree": True}
        curves = load_instance(str(inst)).det_curves()
        for side, delta in deltas.items():
            f = curves.side(side)
            assert delta == 512 * macaulay_resultant(
                *(f.derivative(v) for v in U_VARS))
        M = center_matrix(resultant["center"])
        R = poly_sylvester_resultant(coordinate_change(curves.f_plus, M),
                                     coordinate_change(curves.f_minus, M), "u3")
        assert total_degree(R) == resultant["degree"]
        h = [R.terms.get((i, 9 - i, 0), 0) for i in range(10)]
        assert len(R.terms) == sum(1 for c in h if c) and h[8:] != [0, 0]
        assert squarefree_by_gcd(h)[0] == resultant["squarefree"]


class TestNoFloats:
    @pytest.mark.parametrize("name, points", [("42", None), ("7", 6),
                                              ("diagonal", 1)])
    def test_reports_hold_no_float_but_the_timings(self, tmp_path, capsys,
                                                   name, points):
        P = diag_instance() if name == "diagonal" else cached_pencil(int(name))
        inst, report = tmp_path / "inst.json", tmp_path / "r.json"
        save_instance(P, str(inst))
        flags = [] if points is None else ["--points", str(points)]
        rc = main(["check", str(inst), *flags, "--report", str(report)])
        capsys.readouterr()
        assert rc == (1 if name == "diagonal" else 0)
        rep = json.loads(report.read_text())
        assert all(type(c["seconds"]) is float for c in rep["checks"])
        assert float_paths(rep) == []
        # a float anywhere else is seen
        rep["checks"][0]["witnesses"] = [{"value": 0.5}]
        assert float_paths(rep) == ["report.checks[0].witnesses[0].value"]


class TestOptimizedInterpreter:
    """Certificate invariants are explicit raises, so `python -O`, which
    strips assert statements, checks exactly as much."""

    def test_no_assert_statements_in_src(self):
        src = Path(__file__).resolve().parents[1] / "src" / "quadclif"
        for path in sorted(src.glob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            lines = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Assert)]
            assert not lines, f"assert statements in {path.name} at {lines}"

    def test_same_verdicts_under_python_O(self, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        save_instance(cached_pencil(42), str(inst))
        for check_id, flags in (("prop2.2-smoothness", []),
                                ("prop4.3-singular-locus", []),
                                ("prop3.17-azumaya-m4", ["--points", "1"]),
                                ("prop3.18-split-m2", ["--points", "1"]),
                                ("prop3.18-corank1-m2", ["--points", "1"]),
                                ("prop3.12-dplus-square", []),
                                ("prop3.5-grading", []),
                                ("prop3.9-phi", []),
                                ("prop3.13-center", [])):
            plain, optimized = tmp_path / "plain.json", tmp_path / "opt.json"
            rc = main(["check", check_id, str(inst), *flags,
                       "--report", str(plain)])
            proc = subprocess.run(
                [sys.executable, "-O", "-m", "quadclif", "check", check_id,
                 str(inst), *flags, "--report", str(optimized)],
                capture_output=True, text=True,
            )
            assert proc.returncode == rc == 0, proc.stderr
            assert stripped(optimized) == stripped(plain)
        capsys.readouterr()

    def _full_check_both_ways(self, tmp_path, capsys, P, points=4):
        """(exit code, stripped report) of `check --points N` in-process,
        after asserting that `python -O` gives the same code and bytes."""
        inst = tmp_path / "inst.json"
        save_instance(P, str(inst))
        plain, optimized = tmp_path / "plain.json", tmp_path / "opt.json"
        rc = main(["check", str(inst), "--points", str(points),
                   "--report", str(plain)])
        capsys.readouterr()
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "quadclif", "check", str(inst),
             "--points", str(points), "--report", str(optimized)],
            capture_output=True, text=True,
        )
        assert proc.returncode == rc, proc.stderr
        assert stripped(optimized) == stripped(plain)
        assert float_paths(json.loads(plain.read_text())) == []
        return rc, stripped(plain)

    def test_singular_net_invisible_mod_p_fails(self, tmp_path, capsys):
        """f₊ = u1·(u1u2 − 29u2² − u3²) is singular off every F_p-point the
        scans see; Δ₊ = 0 FAILs exactly the five checks that need it."""
        rc, rep = self._full_check_both_ways(
            tmp_path, capsys, with_q_plus(SINGULAR_OFF_FP_Q_PLUS))
        assert rc == 1 and rep["overall"] == "fail"
        fails = {c["id"]: c["witnesses"] for c in rep["checks"]
                 if c["status"] != "pass"}
        assert set(fails) == {"prop2.2-smoothness", "def2.1-rank4",
                              "prop3.18-corank1-m2",
                              "prop4.2-adjugate-double-line",
                              "prop4.3-singular-locus"}
        for witnesses in fails.values():
            assert {"kind": "discriminant", "side": "plus", "delta": 0} in witnesses

    def test_bad_reduction_net_passes(self, tmp_path, capsys):
        """A smooth f₊ with a singular point mod 101: all twenty checks
        PASS, and every scan witness that contradicts a verdict carries a
        bad-reduction note naming 101."""
        rc, rep = self._full_check_both_ways(
            tmp_path, capsys, with_q_plus(BAD_REDUCTION_Q_PLUS))
        assert rc == 0 and rep["overall"] == "pass"
        assert [c["status"] for c in rep["checks"]] == ["pass"] * 20
        notes = {c["id"]: [w["note"] for w in c["witnesses"]
                           if w.get("note", "").startswith("bad reduction")]
                 for c in rep["checks"]}
        assert {cid for cid, n in notes.items() if n} == {
            "prop2.2-smoothness", "def2.1-rank4",
            "prop4.2-adjugate-double-line", "prop4.3-singular-locus"}
        assert all(n.startswith("bad reduction mod 101:")
                   for ns in notes.values() for n in ns)

    @pytest.mark.parametrize("q_plus", [SCALED_Q_PLUS, VANISHING_PARTIAL_Q_PLUS],
                             ids=["scaled", "vanishing-partial"])
    def test_scan_errors_at_a_witness_prime_are_noted(self, tmp_path, capsys,
                                                      q_plus):
        """Δ₊ ≠ 0, but f₊ or one of its partials vanishes mod 101, so some
        scans cannot run there.  Each such scan gives a witness with a
        bad-reduction note, never a crash, and all twenty checks PASS:
        prop3.18-corank1-m2 reads no scan prime."""
        _, rep = self._full_check_both_ways(
            tmp_path, capsys, with_q_plus(q_plus), points=1)
        results = {c["id"]: c for c in rep["checks"]}
        for cid in ("prop2.2-smoothness", "def2.1-rank4",
                    "prop4.2-adjugate-double-line", "prop4.3-singular-locus"):
            assert results[cid]["status"] == "pass"
            assert any(w.get("note", "").startswith("bad reduction mod 101")
                       for w in results[cid]["witnesses"]), cid
        assert [c["status"] for c in results.values()] == ["pass"] * 20
        assert not any("error" in w for c in results.values()
                       for w in c["witnesses"])


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        out = tmp_path / "m.json"
        proc = subprocess.run(
            [sys.executable, "-m", "quadclif", "gen", "--seed", "3",
             "--bound", "4", "-o", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert len(proc.stdout.strip()) == 64
        assert out.exists()

    def test_import_loads_no_introspection_modules(self):
        """Importing the CLI pulls in no dataclasses, typing or the
        modules dataclasses needs (inspect, ast, dis, tokenize), and builds
        no parser; main builds it once per process."""
        src = Path(__file__).resolve().parents[1] / "src"
        script = (
            "import sys\n"
            f"sys.path.insert(0, {str(src)!r})\n"
            "before = set(sys.modules)\n"
            "import quadclif.cli as cli\n"
            "print(*sorted(set(sys.modules) - before))\n"
            "print(cli._build_parser.cache_info().currsize)\n")
        proc = subprocess.run([sys.executable, "-S", "-c", script],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        loaded, built = proc.stdout.splitlines()
        loaded = set(loaded.split())
        assert {"quadclif.cli", "quadclif.checks", "argparse"} <= loaded
        assert loaded.isdisjoint(
            {"dataclasses", "inspect", "ast", "dis", "tokenize", "typing"})
        assert built == "0"

    def test_main_builds_one_parser(self, tmp_path, capsys):
        from quadclif import cli

        parser = cli._build_parser()
        assert main(["gen", "--seed", "3", "--bound", "4",
                     "-o", str(tmp_path / "a.json")]) == 0
        assert cli._build_parser() is parser

    def test_usage_error_on_no_subcommand(self):
        proc = subprocess.run(
            [sys.executable, "-m", "quadclif"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2
