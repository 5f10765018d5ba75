"""Benchmark of the quadclif verifier, run against the CLI from outside.

    python3 bench/run.py --workload check-pinned --seed 42 --seconds 45 --trace 0
    python3 bench/run.py --workload all      # every workload, one table

Every timed operation runs in a fresh process (PYTHONPATH=src, the
package is not installed), so no run sees caches a CLI user would not
have; CPU time and peak RSS are read per child with os.wait4.  Every
operation is checked against its known answer, and a diagonal instance
with a hand-derived fail set is checked as a negative control.  With
--trace 0 the last line of output is a JSON object with the end-to-end
metrics of BENCHMARK.json; with --trace 1 one untraced and two traced
operations (tracer.py) give the per-layer metrics.  bench/NOTES.md says
why each workload exists and what each metric means.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

DEADLINE_S = 170         # one invocation of one workload ends within this
SETUP_ROUND = 2         # set-ups before the first operation and after each
GEN_SEEDS_PER_OP = 25    # each at every bound: several operations per run
GEN_BOUNDS = (3, 9)
GEN_RECHECKED = 2        # instances per gen op re-run through genericity_check

# Known answer on every generated instance: all twenty checks pass.
CHECK_IDS = (
    "prop2.2-smoothness", "prop2.2-transversality", "def2.1-rank4",
    "prop2.5-nine-points", "prop3.5-grading", "prop3.19-equivariance",
    "prop3.9-phi", "prop3.12-dplus-square", "prop3.12-dminus-square",
    "prop3.13-center", "prop3.17-azumaya-m4", "prop3.18-split-m2",
    "prop3.18-corank1-m2", "prop2.3-stabilizers", "prop2.8-stabilizers",
    "prop4.2-adjugate-double-line", "prop4.3-singular-locus",
    "prop4.7-annihilator", "prop4.8-m0-matrix", "prop4.9-segre",
)

# Negative control: q± = (E11, E22, E33), so f± = u1·u2·u3.  Its three
# lines are singular where they meet and tangent to each other, the
# blocks drop to corank 2 at the coordinate points, and the resultant
# vanishes identically; everything that does not look at the curves passes.
_DIAGONAL = [[[1 if i == j == k else 0 for j in range(3)] for i in range(3)]
             for k in range(3)]
CONTROL_INSTANCE = {"seed": 0, "coeff_bound": 1,
                    "q_plus": _DIAGONAL, "q_minus": _DIAGONAL}
CONTROL_FAILS = frozenset({
    "prop2.2-smoothness", "prop2.2-transversality", "def2.1-rank4",
    "prop2.5-nine-points", "prop3.18-corank1-m2",
    "prop4.2-adjugate-double-line", "prop4.3-singular-locus",
})


# check-pinned checks the ROADMAP's pinned instance (gen --seed 42
# --bound 5) in coordinates chosen by the benchmark seed.  A fresh instance
# per seed would not do: from one generated instance to the next the check
# time moves by up to 30%, more than any bound a regression gate can use.
# 4 fiber points instead of the default 20 make one check short enough that
# a run times two or three of them and averages them, and keep a full
# evaluation (48 runs) inside its 3420 s budget; each point costs the same
# either way.
PINNED_SEED = 42
PINNED_BOUND = 5
CHECK_FLAGS = ("--points", "4")

# workload name -> kind of operation
WORKLOADS = {"check-pinned": "check", "gen-batch": "gen"}


class SetupError(RuntimeError):
    pass


@dataclass
class Usage:
    wall: float
    cpu: float
    rss_mib: float
    rc: int


def spawn(argv, out_path, deadline):
    """Run argv to its exit with the working tree on PYTHONPATH.  CPU time
    and peak RSS are this child's own (wait4), not RUSAGE_CHILDREN, whose
    maximum RSS covers every child so far."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(out_path, "wb") as out, open(f"{out_path}.err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([str(a) for a in argv], stdout=out, stderr=err,
                                env=env, cwd=ROOT)
        timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Usage(wall, usage.ru_utime + usage.ru_stime,
                 usage.ru_maxrss / 1024, proc.returncode)


def python(*args):
    return [sys.executable, *args]


def canonical(inst):
    """Instance bytes as quadclif writes them, so digests agree."""
    return (json.dumps(inst, sort_keys=True, separators=(",", ":"))
            + "\n").encode()


def relabeled(inst, seed):
    """The same pencil in coordinates chosen by seed: u1..u3 permuted,
    the x-coordinates of each block permuted (q -> P^T q P), and the two
    blocks possibly swapped.  Every check is invariant under these
    relabelings, so the instance-level cost stays that of the pinned
    instance; the digest changes, and with it the fiber points and the
    curve-search lines that quadclif derives from it."""
    rng = random.Random(seed)
    sigma = rng.sample(range(3), 3)
    blocks = [inst["q_plus"], inst["q_minus"]]
    if rng.random() < 0.5:
        blocks.reverse()
    out = []
    for mats in blocks:
        pi = rng.sample(range(3), 3)
        out.append([[[mats[sigma[k]][pi[i]][pi[j]] for j in range(3)]
                     for i in range(3)] for k in range(3)])
    return dict(inst, q_plus=out[0], q_minus=out[1])


# ---------------------------------------------------------------------------
# known answers
# ---------------------------------------------------------------------------

def _has_error(x):
    if isinstance(x, dict):
        return "error" in x or any(_has_error(v) for v in x.values())
    if isinstance(x, list):
        return any(_has_error(v) for v in x)
    return False


def read_report(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def report_problems(report, rc, digest):
    """Differences between a check report and the all-pass known answer."""
    if report is None:
        return [f"no readable report (exit {rc})"]
    problems = [] if rc == 0 else [f"exit code {rc}"]
    checks = report.get("checks", [])
    ids = tuple(c.get("id") for c in checks)
    if ids != CHECK_IDS:
        problems.append(f"check ids {ids}")
    problems += [f"{c.get('id')}: {c.get('status')}" for c in checks
                 if c.get("status") != "pass"]
    problems += [f"{c.get('id')}: error witness" for c in checks
                 if _has_error(c.get("witnesses"))]
    if report.get("overall") != "pass":
        problems.append(f"overall {report.get('overall')}")
    if (report.get("instance") or {}).get("digest") != digest:
        problems.append("report names another instance")
    return problems


def stripped(report):
    """Report bytes without the timing fields."""
    clean = dict(report, checks=[{k: v for k, v in c.items() if k != "seconds"}
                                 for c in report["checks"]])
    return json.dumps(clean, sort_keys=True)


def instance_problems(path, seed, bound, digest):
    try:
        data = Path(path).read_bytes()
        inst = json.loads(data)
    except (OSError, ValueError):
        return [f"{path}: unreadable"]
    problems = []
    if hashlib.sha256(data).hexdigest() != digest:
        problems.append(f"{path}: printed digest does not match the file")
    if inst.get("seed") != seed or inst.get("coeff_bound") != bound:
        problems.append(f"{path}: wrong seed or bound")
    for side in ("q_plus", "q_minus"):
        for m in inst.get(side, ()):
            for i in range(3):
                for j in range(3):
                    if m[i][j] != m[j][i] or abs(m[i][j]) > bound:
                        problems.append(f"{path}: {side} not symmetric "
                                        "within the bound")
    return problems


def still_generic(path):
    """Re-run the genericity suite on an accepted instance, in this process."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from quadclif.pencil import genericity_check, load_instance

    return genericity_check(load_instance(path)).all_ok()


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------

class Run:
    def __init__(self, name, seed, seconds, work):
        self.name = name
        self.kind = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.deadline = time.monotonic() + DEADLINE_S
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.instance = work / "instance.json"
        self.digest = None       # of the check instance, once set up
        self.pinned = None       # bytes gen wrote for the pinned seed
        self.setup_times = []
        (work / "control.json").write_text(json.dumps(CONTROL_INSTANCE))

    def note(self, problems):
        self.problems += problems
        return not problems

    # -- set-up ---------------------------------------------------------------

    def setup(self):
        """One round of SETUP_ROUND set-ups, each timed into
        self.setup_times.  check-pinned generates its instance (every
        repeat must write the same bytes), gen-batch only imports the
        package.  Each is a fresh process, so it includes a cold
        `import quadclif`."""
        generated = self.work / "generated.json"
        for _ in range(SETUP_ROUND):
            i = len(self.setup_times)
            if self.kind == "check":
                argv = python("-m", "quadclif", "gen", f"--seed={PINNED_SEED}",
                              f"--bound={PINNED_BOUND}", "-o", generated)
            else:
                argv = python("-c", "import quadclif.cli")
            u = spawn(argv, self.work / f"setup-{i}.out", self.deadline)
            if u.rc != 0:
                raise SetupError(f"set-up step exited with {u.rc}: {argv}")
            self.setup_times.append(u.wall)
            if self.kind == "check":
                data = generated.read_bytes()
                if self.pinned is not None and data != self.pinned:
                    raise SetupError("gen wrote different bytes for one seed")
                self.pinned = data
        if self.kind == "check" and self.digest is None:
            data = canonical(relabeled(json.loads(self.pinned), self.seed))
            self.instance.write_bytes(data)
            self.digest = hashlib.sha256(data).hexdigest()

    # -- operations -----------------------------------------------------------

    def check_op(self, tag, spans=None):
        """One `quadclif check` process; (usage, report)."""
        report = self.work / f"report-{tag}.json"
        args = ["check", self.instance, *CHECK_FLAGS, "--report", report]
        argv = (python("-m", "quadclif", *args) if spans is None
                else python(BENCH / "child.py", "--trace", spans, *args))
        u = spawn(argv, self.work / f"op-{tag}.out", self.deadline)
        rep = read_report(report)
        self.attempted += 1
        if not self.note(report_problems(rep, u.rc, self.digest)):
            self.failed += 1
        return u, rep

    def gen_op(self, tag, k, spans=None):
        """One process generating GEN_SEEDS_PER_OP seeds at every bound;
        (usage, printed digests)."""
        outdir = self.work / f"gen-{tag}"
        outdir.mkdir()
        jobs = [[self.seed * 1000 + GEN_SEEDS_PER_OP * k + j, bound,
                 str(outdir / f"{bound}-{j}.json")]
                for bound in GEN_BOUNDS for j in range(GEN_SEEDS_PER_OP)]
        jobs_path = self.work / f"jobs-{tag}.json"
        jobs_path.write_text(json.dumps(jobs))
        trace = [] if spans is None else ["--trace", spans]
        out = self.work / f"op-{tag}.out"
        u = spawn(python(BENCH / "child.py", *trace, "gen-batch", jobs_path),
                  out, self.deadline)
        lines = out.read_text().splitlines()
        digests = []
        step = max(len(jobs) // GEN_RECHECKED, 1)
        for i, (seed, bound, path) in enumerate(jobs):
            self.attempted += 1
            rc, _, digest = (lines[i] if i < len(lines) else "missing").partition(" ")
            problems = ([f"gen seed {seed} bound {bound}: exit {rc}"]
                        if rc != "0" else
                        instance_problems(path, seed, bound, digest))
            if not problems and i % step == step - 1 and not still_generic(path):
                problems = [f"{path}: accepted but not generic"]
            if not self.note(problems):
                self.failed += 1
            digests.append(digest)
        if u.rc != 0:
            self.note([f"gen-batch process exited with {u.rc}"])
        return u, digests

    def op(self, tag, k=0, spans=None):
        if self.kind == "check":
            return self.check_op(tag, spans)
        return self.gen_op(tag, k, spans)

    def control(self):
        """The diagonal instance must fail exactly CONTROL_FAILS."""
        report = self.work / "report-control.json"
        u = spawn(python("-m", "quadclif", "check", self.work / "control.json",
                         "--points", "1", "--report", report),
                  self.work / "op-control.out", self.deadline)
        rep = read_report(report)
        self.attempted += 1
        if rep is None:
            problems = [f"negative control: no report (exit {u.rc})"]
        else:
            status = {c["id"]: c["status"] for c in rep["checks"]}
            fails = {cid for cid, s in status.items() if s != "pass"}
            problems = []
            if tuple(status) != CHECK_IDS or fails != CONTROL_FAILS or u.rc != 1:
                problems = [f"negative control failed {sorted(fails)} "
                            f"with exit {u.rc}"]
        if not self.note(problems):
            self.failed += 1

    def another_op(self, start, walls):
        """Whether to start one more operation: at least one runs, and
        another starts if, as long as the median so far, at least half of
        it falls within the measuring time, so that a run measures about
        that long whatever an operation takes.  None starts that would
        end near the deadline."""
        if not walls:
            return True
        now, op = time.monotonic(), statistics.median(walls)
        return now + op / 2 - start <= self.seconds and now + op < self.deadline - 5

    # -- the two kinds of run -------------------------------------------------

    def end_to_end(self):
        """Operations back to back for the measuring time, with a round of
        set-ups before the first and after each one, so that the set-ups
        sample the whole run as the operations do.  Times are means over
        the run's operations: gen-batch operations differ in work (each
        generates other seeds), and the mean is the run's total work over
        its operations."""
        self.setup()
        ops = []
        start = time.monotonic()
        while self.another_op(start, [u.wall for u, _ in ops]):
            ops.append(self.op(str(len(ops)), len(ops)))
            self.setup()
        self.control()
        walls = [u.wall for u, _ in ops]
        print(f"{self.name}: operation walls {[round(w, 3) for w in walls]} s, "
              f"set-ups {[round(t, 3) for t in self.setup_times]} s")
        return {
            "wall_s": statistics.mean(walls),
            "cpu_s": statistics.mean(u.cpu for u, _ in ops),
            "peak_rss_mib": max(u.rss_mib for u, _ in ops),
            "setup_s": statistics.median(self.setup_times),
        }

    def per_layer(self):
        import tracer

        self.setup()
        base, base_out = self.op("untraced")
        traced = []
        for i in range(2):
            spans = self.work / f"spans-{i}.json"
            u, out = self.op(f"traced-{i}", spans=spans)
            try:
                traced.append((u, out, *tracer.layer_metrics(spans)))
            except (OSError, ValueError):
                self.note([f"traced operation {i} wrote no readable spans"])
                return {}
        self.control()

        outputs = [base_out] + [out for _, out, _, _ in traced]
        if self.kind == "check":
            same = None not in outputs and len({stripped(r) for r in outputs}) == 1
            check_s = {c["id"]: c["seconds"] for c in (base_out or {}).get("checks", [])}
        else:
            same = outputs.count(base_out) == len(outputs)
            check_s = {}
        if not same:
            self.note(["untraced and traced operations gave different outputs "
                       "(reports compared without their seconds fields)"])

        (_, _, first, gone), (_, _, second, _) = traced
        metrics = {}
        for name, value in first.items():
            if name in tracer.COUNT_METRICS:
                if value != second[name]:
                    self.note([f"count {name} differs between runs: "
                               f"{value} != {second[name]}"])
                metrics[name] = value
            else:
                metrics[name] = (value + second[name]) / 2
        for cid in CHECK_IDS:
            metrics[f"checks.{cid}_s"] = check_s.get(cid, 0.0)
        traced_wall = statistics.mean(u.wall for u, _, _, _ in traced)
        metrics["trace.overhead_ratio"] = traced_wall / base.wall
        print(f"{self.name}: untraced wall {base.wall:.3f} s, traced walls "
              f"{[round(u.wall, 3) for u, _, _, _ in traced]} s")
        if gone:
            print(f"missing per-layer metrics (probes gone): {', '.join(gone)}")
        return metrics


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def context():
    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True,
                                 check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return {"git_sha": sha, "python": platform.python_version(),
            "nproc": os.cpu_count(), "loadavg": os.getloadavg()}


def run_workload(name, seed, seconds, trace):
    """(correct, attempted, failed, {metric: value}) of one workload."""
    work = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        run = Run(name, seed, seconds, work)
        values = run.per_layer() if trace else run.end_to_end()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            work.parent.rmdir()
    for problem in run.problems:
        print(f"{name}: {problem}")
    return not run.problems and run.failed == 0, run.attempted, run.failed, values


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float,
                        help="measuring time (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated benchmark still kills and reaps its child (see spawn)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "quadclif" / "__init__.py").is_file():
        print(f"run.py: no quadclif package under {SRC}", file=sys.stderr)
        return 2
    spec = load_spec()
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]

    ctx_start = context()
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        try:
            ok, att, fail, values = run_workload(name, args.seed, seconds,
                                                 args.trace)
        except SetupError as exc:
            print(f"run.py: {name}: set-up failed: {exc}", file=sys.stderr)
            return 1
        correct, attempted, failed = correct and ok, attempted + att, failed + fail
        print(f"{name} (seed {args.seed}, {att} operations, {fail} failed, "
              f"failed_share {fail / att:.4f} ratio)")
        for metric, unit in units.items():
            if metric in values:
                print(f"  {metric:40s} {values[metric]:.6g} {unit}")
                key = metric if len(names) == 1 else f"{name}.{metric}"
                metrics[key] = {"value": values[metric], "unit": unit}
    print("context: " + json.dumps({"start": ctx_start, "end": context()}))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
