"""One benchmark operation of quadclif, in a fresh process.

    python3 bench/child.py [--trace SPANS] check ARGS...
        runs `quadclif check ARGS...` through cli.main and exits with its code;
    python3 bench/child.py [--trace SPANS] gen-batch JOBS
        calls cli.main(["gen", ...]) for every [seed, bound, path] in the JSON
        file JOBS and prints one line "<exit code> <printed digest>" per job.

With --trace the layer probes of tracer.py are installed first and the
spans are written to SPANS when the operation ends.  Needs quadclif on
PYTHONPATH.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys


def _gen_batch(cli, jobs_path):
    with open(jobs_path, encoding="utf-8") as fh:
        jobs = json.load(fh)
    worst = 0
    for seed, bound, path in jobs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            try:
                rc = cli.main(["gen", f"--seed={seed}", f"--bound={bound}",
                               "-o", path])
            except SystemExit as exc:  # argparse rejected the arguments
                rc = exc.code if isinstance(exc.code, int) else 2
        print(rc, out.getvalue().strip(), flush=True)
        worst = max(worst, rc)
    return worst


def main(argv):
    spans_path = None
    if argv[:1] == ["--trace"]:
        spans_path, argv = argv[1], argv[2:]
    from quadclif import cli

    recorder = None
    if spans_path is not None:
        import tracer

        recorder = tracer.Recorder()
        recorder.install()
    try:
        if argv[:1] == ["gen-batch"] and len(argv) == 2:
            return _gen_batch(cli, argv[1])
        if argv[:1] == ["check"]:
            return cli.main(argv)
        print("usage: child.py [--trace SPANS] (check ARGS... | gen-batch JOBS)",
              file=sys.stderr)
        return 2
    finally:
        if recorder is not None:
            recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
