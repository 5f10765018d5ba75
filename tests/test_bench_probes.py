"""The benchmark's layer probes still find every function they wrap.

bench/tracer.py wraps quadclif functions by name and drops a per-layer
metric when a probe is missing or a keyed probe's key function no longer
fits the signature; a traced benchmark run then reports fewer metrics
than BENCHMARK.json declares.  These tests run bench/child.py --trace on
one small operation of each workload and read the span files the same
way bench/run.py does.  They only read bench/.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import cached_pencil
from quadclif.checks import CHECK_ORDER

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


@pytest.fixture(scope="module")
def tracer():
    sys.path.insert(0, str(BENCH))
    try:
        import tracer as module
    finally:
        sys.path.remove(str(BENCH))
    return module


def _traced(tmp_path, *args):
    """Run one traced child operation; the span file's path."""
    spans = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), "--trace", str(spans), *args],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, (proc.stdout, proc.stderr)
    return spans, proc.stdout


def _assert_full_metric_set(tracer, spans):
    assert json.loads(spans.read_text())["missing"] == []
    metrics, gone = tracer.layer_metrics(spans)
    assert gone == []
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    names = (set(metrics) | {f"checks.{cid}_s" for cid in CHECK_ORDER}
             | {"trace.overhead_ratio"})
    assert names == {m["name"] for m in declared}


def test_traced_check_keeps_every_layer_metric(tmp_path, tracer):
    inst = tmp_path / "instance.json"
    inst.write_bytes(cached_pencil(42).canonical_bytes())
    report = tmp_path / "report.json"
    spans, _ = _traced(tmp_path, "check", str(inst), "--points", "1",
                       "--report", str(report))
    assert {c["status"] for c in json.loads(report.read_text())["checks"]} == {"pass"}
    _assert_full_metric_set(tracer, spans)


def test_traced_gen_batch_keeps_every_layer_metric(tmp_path, tracer):
    jobs = tmp_path / "jobs.json"
    jobs.write_text(json.dumps([[42, 5, str(tmp_path / "gen.json")]]))
    spans, out = _traced(tmp_path, "gen-batch", str(jobs))
    assert out.split()[0] == "0"
    _assert_full_metric_set(tracer, spans)


def test_traced_benchmark_run_ends_with_its_json_result():
    """The benchmark as it is run: bench/run.py on check-pinned with the
    tracer, for about one operation.  It must exit 0 with nothing on
    stderr and end with the JSON result line, correct, with no failed
    operation and exactly the per-layer metrics BENCHMARK.json declares."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "check-pinned",
         "--trace", "1", "--seconds", "1"],
        cwd=ROOT, capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, (proc.stdout, proc.stderr)
    assert proc.stderr == ""
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    # every side fiber of the run is built once
    assert result["metrics"]["fiber.side_fibers_per_point"]["value"] == 1.0
