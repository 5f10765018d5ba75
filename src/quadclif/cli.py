"""Command-line front end: deterministic instance generation and the
named verification checks, with a JSON report as the source of truth.

Exit codes: 0 all checks pass, 1 at least one check fails, 2 on usage or
I/O errors (bad flags, unknown check id, unreadable instance, a coefficient
bound above pencil.MAX_COEFF_BOUND).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys

from . import __version__
from .checks import (
    CHECK_ORDER,
    MAX_POINTS,
    CheckContext,
    INSTANCE_FREE,
    run_all,
    run_single,
)
from .pencil import MAX_COEFF_BOUND, GenerationError, generate, load_instance

_ID_SHAPE = re.compile(r"^(prop|def)\d")


@functools.cache  # one parser per process: main may be called many times
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="quadclif",
        description="exact verification of invariant quadric pencils and "
                    "their Clifford-algebra geometry",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a generic instance")
    g.add_argument("--seed", type=int, required=True,
                   help="seed for the deterministic rejection sampling")
    g.add_argument("--bound", type=int, required=True,
                   help="coefficient bound for the integer matrices "
                        f"(1..{MAX_COEFF_BOUND})")
    g.add_argument("-o", "--out", required=True, metavar="PATH",
                   help="where to write the canonical instance JSON")

    c = sub.add_parser("check", help="run verification checks")
    c.add_argument("target", nargs="*", metavar="[ID] [INSTANCE]",
                   help="optional check id and/or instance file; with no id "
                        "every check runs, and a few identity checks need "
                        "no instance at all")
    c.add_argument("--points", type=int, default=20,
                   help="number of off-curve base points "
                        f"(1..{MAX_POINTS}); prop4.2 reads up to 3 of "
                        "them and prop4.7 one, so at most 3 are sampled")
    c.add_argument("--report", metavar="PATH",
                   help="write the JSON report here")
    return parser


def _fail_usage(message):
    print(f"quadclif: error: {message}", file=sys.stderr)
    return 2


def cmd_gen(args):
    if args.bound < 1:
        return _fail_usage("--bound must be >= 1")
    if args.bound > MAX_COEFF_BOUND:
        return _fail_usage(f"--bound must be at most {MAX_COEFF_BOUND}")
    try:
        P = generate(args.seed, args.bound)
    except GenerationError as exc:
        return _fail_usage(str(exc))
    try:
        with open(args.out, "wb") as fh:
            fh.write(P.canonical_bytes())
    except OSError as exc:
        return _fail_usage(f"cannot write {args.out}: {exc}")
    print(P.digest())
    return 0


def _split_target(target):
    """The check subcommand takes up to two positionals, a check id and an
    instance path, in either order; a known id or id-shaped non-file is the id."""
    check_id = None
    inst_path = None
    for t in target:
        if t in CHECK_ORDER or (_ID_SHAPE.match(t) and not os.path.isfile(t)):
            if check_id is not None:
                raise ValueError("more than one check id given")
            check_id = t
        else:
            if inst_path is not None:
                raise ValueError("more than one instance file given")
            inst_path = t
    return check_id, inst_path


def _report_dict(args, P, results, overall):
    return {
        "schema": 1,
        "tool": {"name": "quadclif", "version": __version__},
        "instance": None if P is None else {
            "digest": P.digest(),
            "seed": P.seed,
            "coeff_bound": P.coeff_bound,
        },
        "seed": None if P is None else P.seed,
        "flags": {"points": args.points},
        "checks": [r.to_json_dict() for r in results],
        "overall": overall,
    }


def cmd_check(args):
    try:
        check_id, inst_path = _split_target(args.target)
    except ValueError as exc:
        return _fail_usage(str(exc))
    if check_id is not None and check_id not in CHECK_ORDER:
        return _fail_usage(f"unknown check id: {check_id}")

    P = None
    if inst_path is not None:
        try:
            P = load_instance(inst_path)
        except OSError as exc:
            return _fail_usage(f"cannot read {inst_path}: {exc}")
        except ValueError as exc:
            return _fail_usage(f"malformed instance {inst_path}: {exc}")
    elif check_id is None or check_id not in INSTANCE_FREE:
        return _fail_usage(
            "an instance file is required"
            if check_id is None
            else f"check {check_id} requires an instance file"
        )

    try:
        ctx = CheckContext(P, points=args.points)
    except ValueError as exc:
        return _fail_usage(str(exc))

    results = run_all(ctx) if check_id is None else [run_single(ctx, check_id)]

    for r in results:
        print(f"{r.status.upper():4s} {r.id} ({r.seconds:.2f}s)")
    overall = "pass" if all(r.status == "pass" for r in results) else "fail"
    print(f"overall: {overall}")

    if args.report:
        payload = json.dumps(_report_dict(args, P, results, overall),
                             sort_keys=True, indent=1) + "\n"
        try:
            with open(args.report, "w", encoding="utf-8") as fh:
                fh.write(payload)
        except OSError as exc:
            return _fail_usage(f"cannot write {args.report}: {exc}")

    return 0 if overall == "pass" else 1


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "gen":
        return cmd_gen(args)
    return cmd_check(args)


if __name__ == "__main__":
    sys.exit(main())
