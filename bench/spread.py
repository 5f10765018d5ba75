"""Run-to-run spread of the quadclif benchmark over several seeds.

    python3 bench/spread.py --workload gen-batch --seeds 1-10 [--out a.json]
    python3 bench/spread.py --workload gen-batch --seeds 1-10 --against a.json

Runs bench/run.py once per seed, one after another, and prints for each
end-to-end metric its median, its quartiles (statistics.quantiles, n=4)
and the distance between them as a share of the median, next to the
metric's bound in BENCHMARK.json.  With --against it also prints how far
each median moved from an earlier summary, as a share of the earlier
median and in the metric's worse direction.  The run context (git SHA,
Python, nproc, load average) of every run is kept in the summary.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"seed {seed}: run.py exited {proc.returncode}\n"
                         f"{proc.stderr}")
    context = next((json.loads(line.partition(": ")[2]) for line in lines
                    if line.startswith("context: ")), None)
    return json.loads(lines[-1]), context


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the summary JSON here")
    parser.add_argument("--against", help="an earlier summary to compare with")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m for m in
                spec["per_layer" if args.trace else "end_to_end"]}
    runs = []
    for seed in args.seeds:
        result, context = run_once(args.workload, seed, spec["run_seconds"],
                                   args.trace)
        runs.append({"seed": seed, "result": result, "context": context})
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']}", flush=True)

    summary = {"workload": args.workload, "trace": args.trace, "runs": runs,
               "metrics": {}}
    earlier = (json.loads(Path(args.against).read_text())["metrics"]
               if args.against else {})
    for name, meta in declared.items():
        values = [r["result"]["metrics"][name]["value"] for r in runs
                  if name in r["result"]["metrics"]]
        if len(values) < 2:
            continue
        q1, med, q3 = statistics.quantiles(values, n=4)
        share = (q3 - q1) / med if med else 0.0
        summary["metrics"][name] = {"median": med, "q1": q1, "q3": q3,
                                    "spread": share, "values": values}
        line = (f"{name:32s} median {med:.6g} {meta['unit']}  "
                f"q1 {q1:.6g}  q3 {q3:.6g}  spread {share:.3f}")
        if "bound" in meta:
            line += f" (bound {meta['bound']})"
        if name in earlier and earlier[name]["median"]:
            before = earlier[name]["median"]
            worse = (med - before) / before
            if meta["better"] == "higher":
                worse = -worse
            line += f"  worse than earlier by {worse:+.3f}"
        print(line)
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if all(r["result"]["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
