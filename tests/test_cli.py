"""Command-line surface: exit codes, report schema, determinism."""

import ast
import hashlib
import json
import subprocess
import sys
from pathlib import Path

from quadclif import __version__
from quadclif.checks import CHECK_ORDER
from quadclif.cli import main
from quadclif.clifford import hilbert_dims_center
from quadclif.exactalg import is_prime
from quadclif.pencil import load_instance

from conftest import cached_pencil
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
# full run is pinned byte for byte.
FULL_RUN_SHA256 = "06e7670e6f4baf7ddd8a612f3a3509e117848c68f5e871d5ce2395673f34e4de"

# SHA-256 of everything `gen` prints (one digest line each) for seeds 7 and
# 42 at bound 5, then seeds 1..25 at bound 3 and seeds 1..25 at bound 9.
GEN_DIGESTS_SHA256 = "1a732b621be775acd66c6923bd60ba5d7276652bca618641d33c435c0c501c32"
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

    def test_two_instance_paths(self, tmp_path):
        inst = gen(tmp_path, seed=1, bound=3)
        assert main(["check", str(inst), str(inst)]) == 2

    def test_instance_needed_but_missing(self):
        assert main(["check", "prop2.2-smoothness"]) == 2

    def test_two_check_ids(self, tmp_path):
        inst = gen(tmp_path, seed=1, bound=3)
        assert main(["check", "prop3.13-center", "prop4.8-m0-matrix",
                     str(inst)]) == 2

    def test_composite_primes(self, tmp_path, capsys):
        path = tmp_path / "diag.json"
        save_instance(diag_instance(), str(path))
        rc = main(["check", "prop2.2-smoothness", str(path),
                   "--primes", "121,143"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error: primes must each be a prime >= 17, got 121" in err

    def test_prime_and_point_limits(self, tmp_path, capsys):
        path = tmp_path / "diag.json"
        save_instance(diag_instance(), str(path))
        # the bound is tested before primality, so even a 31-digit value
        # is refused at once
        for primes, bad in (("1013", 1013), ("101,2003", 2003),
                            ("1000000000000000000000000000057",
                             1000000000000000000000000000057)):
            rc = main(["check", "prop2.2-smoothness", str(path),
                       "--primes", primes])
            assert rc == 2
            err = capsys.readouterr().err
            assert f"error: primes must each be at most 1009, got {bad}" in err
        rc = main(["check", "prop4.9-segre", str(path), "--points", "201"])
        assert rc == 2
        assert "error: points must be at most 200, got 201" in capsys.readouterr().err
        for primes, message in (("101,103,101", "primes must be distinct, got 101"),
                                (",".join(["101"] * 17), "at most 16 primes, got 17"),
                                (",".join(["2003"] * 10 ** 4),
                                 "at most 16 primes, got 10000")):
            rc = main(["check", "prop2.2-smoothness", str(path),
                       "--primes", primes])
            assert rc == 2
            assert f"error: {message}" in capsys.readouterr().err
        # the bounds themselves are accepted
        assert main(["check", "prop2.2-smoothness", str(path),
                     "--primes", "1009", "--points", "200"]) == 1
        assert main(["check", "prop4.9-segre", str(path),
                     "--points", "200"]) == 0
        sixteen = [str(p) for p in range(17, 200) if is_prime(p)][:16]
        assert main(["check", "prop4.9-segre", str(path),
                     "--primes", ",".join(sixteen)]) == 0

    def test_bad_flags(self, tmp_path):
        inst = gen(tmp_path, seed=1, bound=3)
        assert main(["check", str(inst), "--primes", "101,frog"]) == 2
        assert main(["check", str(inst), "--primes", "7"]) == 2
        assert main(["check", "prop4.9-segre", str(inst),
                     "--points", "0"]) == 2
        assert main(["check", "prop4.9-segre", str(inst),
                     "--max-degree", "9"]) == 2

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


class TestCheckRuns:
    def test_instance_free_without_instance(self, capsys):
        rc = main(["check", "prop4.9-segre"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "PASS prop4.9-segre" in out
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
        assert rep["primes"] == [101, 103, 107]
        assert rep["flags"] == {"points": 20, "max_degree": 6}
        ids = [c["id"] for c in rep["checks"]]
        assert ids == ["prop3.13-center"]

    def test_max_degree_8_reaches_the_center_check(self, tmp_path, capsys):
        inst = gen(tmp_path)
        report = tmp_path / "r.json"
        assert main(["check", "prop3.13-center", str(inst), "--max-degree", "8",
                     "--report", str(report)]) == 0
        capsys.readouterr()
        rep = stripped(report)
        assert rep["flags"] == {"points": 20, "max_degree": 8}
        (w,) = rep["checks"][0]["witnesses"]
        assert w["weights"] == "0..8"
        assert len(w["commutant_dims"]) == 9
        assert w["commutant_dims"] == w["free_module_oracle"] == hilbert_dims_center(8)

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
                                ("prop3.18-corank1-m2", ["--points", "1"]),
                                ("prop3.12-dplus-square", [])):
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

    def test_usage_error_on_no_subcommand(self):
        proc = subprocess.run(
            [sys.executable, "-m", "quadclif"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2
