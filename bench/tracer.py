"""Outside-in tracer for the quadclif layers.

A probe names one function or method of a quadclif module.  `Recorder.
install()` replaces each probed function with a wrapper that records a
span (probe, parent span, start, end, key) and rebinds every quadclif
module attribute that referred to the original, so callers that imported
the name directly (`from .fiber import center_basis` in checks.py and
plucker.py) are traced as well.  Spans stay in memory until `dump()`
writes them out when the traced process ends; `layer_metrics()` turns a
span file into the per-layer metrics.

A probe whose function no longer exists is listed as missing instead of
failing the run, and a metric whose probes are all missing is left out.
Per-point helpers such as `geometry.adj3_mod` (hundreds of thousands of
calls) are never probed; the number of points a sweep visits is computed
from its prime instead.
"""

from __future__ import annotations

import functools
import json
import sys
import time


def _point_key(P, side, u, *args, **kwargs):
    return [side, [str(c) for c in u]]


def _sweep_key(compiled, p, *args, **kwargs):
    return [p, repr(compiled)]


def _adjugate_sweep_key(ctx, side, p, *args, **kwargs):
    return [p, side]


def _cache_key(ctx, key, *args, **kwargs):
    return [id(ctx), repr(key)]


# (probe, module, attribute, key function).  The layer is the part of the
# probe name before the dot; the adjugate sweep lives in checks.py but is
# an exhaustive F_p scan, so it is charged to geometry.
PROBES = (
    ("cli.main", "cli", "main", None),
    ("checks.run_single", "checks", "run_single", None),
    ("checks.cached", "checks", "CheckContext.cached", _cache_key),
    ("fiber.assoc", "fiber", "FinAlg.check_associativity", None),
    ("fiber.center", "fiber", "center_basis", None),
    ("fiber.corner", "fiber", "corner_algebra", None),
    ("fiber.tensor", "fiber", "tensor_product", None),
    ("fiber.radical", "fiber", "radical_dim", None),
    ("fiber.table", "fiber", "clifford_fiber", None),
    ("fiber.side_fiber", "fiber", "side_fiber", _point_key),
    ("fiber.corank1", "fiber", "corank1_quotient", None),
    ("fiber.curve_point_search", "fiber", "rational_curve_point", None),
    ("geometry.sweep", "geometry", "_zero_set", _sweep_key),
    ("geometry.curve_points", "geometry", "curve_points", None),
    ("geometry.smooth", "geometry", "ff_scan_smooth", None),
    ("geometry.transversal", "geometry", "ff_scan_transversal", None),
    ("geometry.corank", "geometry", "ff_scan_corank", None),
    ("geometry.singular_locus", "geometry", "singular_locus_C", None),
    ("geometry.adjugate_sweep", "checks", "_adjugate_scan", _adjugate_sweep_key),
    ("pencil.generate", "pencil", "generate", None),
    ("pencil.genericity", "pencil", "genericity_check", None),
    ("pencil.resultant", "pencil", "resultant_nine_points", None),
    ("pencil.det_curves", "pencil", "InvariantPencil.det_curves", None),
    ("exactalg.kernel", "exactalg", "mat_kernel", None),
    ("exactalg.rank", "exactalg", "mat_rank", None),
    ("exactalg.solve", "exactalg", "mat_solve", None),
    ("exactalg.int_kernel", "exactalg", "kernel_int_sparse", None),
    ("exactalg.resultant", "exactalg", "sylvester_resultant", None),
    ("exactalg.squarefree", "exactalg", "squarefree_univariate", None),
    ("clifford.phi", "clifford", "phi", None),
    ("clifford.central_odd", "clifford", "central_odd", None),
    ("clifford.commutant", "clifford", "commutant_basis", None),
    ("clifford.algebra", "clifford", "CliffordAlgebra.__init__", None),
    ("plucker.segre_identity", "plucker", "segre_identity_check", None),
    ("plucker.transform_identity", "plucker", "transform_identity_check", None),
    ("plucker.m0_identity", "plucker", "m0_identity_check", None),
    ("plucker.module", "plucker", "module_rep", None),
    ("plucker.adjugate", "plucker", "adjugate_double_line", None),
)

GEOMETRY_SCANS = ("geometry.sweep", "geometry.curve_points", "geometry.smooth",
                  "geometry.transversal", "geometry.corank",
                  "geometry.singular_locus", "geometry.adjugate_sweep")

# Self time in seconds, summed over the listed probes.
SELF_TIME = {
    "cli.self_s": ("cli.main",),
    "checks.self_s": ("checks.run_single", "checks.cached"),
    "fiber.assoc_s": ("fiber.assoc",),
    "fiber.center_s": ("fiber.center",),
    "fiber.corner_s": ("fiber.corner",),
    "fiber.tensor_s": ("fiber.tensor",),
    "fiber.radical_s": ("fiber.radical",),
    "fiber.table_s": ("fiber.table",),
    "fiber.corank1_s": ("fiber.corank1",),
    "fiber.curve_point_search_s": ("fiber.curve_point_search",),
    "geometry.scan_s": GEOMETRY_SCANS,
    "pencil.genericity_s": ("pencil.genericity",),
    "pencil.resultant_s": ("pencil.resultant",),
    "pencil.det_curves_s": ("pencil.det_curves",),
    "exactalg.kernel_s": ("exactalg.kernel",),
    "exactalg.rank_s": ("exactalg.rank",),
    "exactalg.solve_s": ("exactalg.solve",),
    "exactalg.int_kernel_s": ("exactalg.int_kernel",),
    "exactalg.resultant_s": ("exactalg.resultant",),
    "exactalg.squarefree_s": ("exactalg.squarefree",),
    "clifford.phi_s": ("clifford.phi",),
    "clifford.central_odd_s": ("clifford.central_odd",),
    "clifford.commutant_s": ("clifford.commutant",),
    "plucker.identities_s": ("plucker.segre_identity",
                             "plucker.transform_identity",
                             "plucker.m0_identity"),
    "plucker.module_s": ("plucker.module",),
    "plucker.adjugate_s": ("plucker.adjugate",),
}

# Number of calls, summed over the listed probes.
CALLS = {
    "cli.main_calls": ("cli.main",),
    "fiber.assoc_calls": ("fiber.assoc",),
    "fiber.side_fiber_calls": ("fiber.side_fiber",),
    "geometry.sweeps": ("geometry.sweep",),
    "pencil.det_curves_calls": ("pencil.det_curves",),
    "exactalg.kernel_calls": ("exactalg.kernel",),
    "exactalg.rank_calls": ("exactalg.rank",),
    "exactalg.solve_calls": ("exactalg.solve",),
    "exactalg.int_kernel_calls": ("exactalg.int_kernel",),
    "exactalg.resultant_calls": ("exactalg.resultant",),
    "exactalg.squarefree_calls": ("exactalg.squarefree",),
    "clifford.algebras_built": ("clifford.algebra",),
}

# Counts and ratios of counts derived from span keys and parents:
# metric -> probes it needs.
DERIVED = {
    "checks.cache_hits": ("checks.cached",),
    "checks.cache_misses": ("checks.cached",),
    "fiber.side_fibers_per_point": ("fiber.side_fiber",),
    "geometry.sweeps_per_curve": ("geometry.sweep",),
    "geometry.points_scanned": ("geometry.sweep", "geometry.adjugate_sweep"),
    "pencil.accept_ratio": ("pencil.generate", "pencil.genericity"),
}

COUNT_METRICS = tuple(CALLS) + tuple(DERIVED)


class Recorder:
    """Span store shared by every wrapper of one traced process."""

    def __init__(self):
        self.names = [name for name, _, _, _ in PROBES]
        self.spans = []   # [probe index, parent span index, start, end, key]
        self.missing = []
        self._stack = []

    def _wrap(self, index, fn, key_fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            key = None
            if key_fn is not None:
                try:
                    key = key_fn(*args, **kwargs)
                except (TypeError, AttributeError):
                    key = None  # changed signature: the derived count is dropped
            span = [index, stack[-1] if stack else -1, clock(), 0.0, key]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()

        return traced

    def install(self):
        """Wrap every probe that exists in the loaded quadclif modules."""
        import quadclif.cli  # noqa: F401  (loads every layer)

        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "quadclif" or n.startswith("quadclif.")]
        for index, (name, module, attr, key_fn) in enumerate(PROBES):
            owner = sys.modules.get(f"quadclif.{module}")
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            raw = vars(owner).get(leaf) if owner is not None else None
            if not callable(raw):
                self.missing.append(name)
                continue
            wrapped = self._wrap(index, raw, key_fn)
            setattr(owner, leaf, wrapped)
            if path:
                continue
            for mod in modules:
                for alias in [k for k, v in vars(mod).items() if v is raw]:
                    setattr(mod, alias, wrapped)
        return self.missing

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"probes": self.names, "missing": self.missing,
                       "spans": self.spans}, fh)


def layer_metrics(path):
    """Per-layer metric values of one span file, and the names left out
    because the probes they need are missing."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    names = data["probes"]
    missing = set(data["missing"])
    spans = data["spans"]

    child = [0.0] * len(spans)
    for _, parent, start, end, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    self_s = {}
    calls = {}
    keys = {}
    for i, (probe, _, start, end, key) in enumerate(spans):
        name = names[probe]
        self_s[name] = self_s.get(name, 0.0) + (end - start) - child[i]
        calls[name] = calls.get(name, 0) + 1
        keys.setdefault(name, []).append(key)

    # a keyed probe that lost its key on some call cannot give derived counts
    keyed = {name for name, _, _, key_fn in PROBES if key_fn is not None}
    missing |= {name for name in keyed & set(keys)
                if any(k is None for k in keys[name])}

    def distinct(name):
        return len({json.dumps(k) for k in keys.get(name, ())})

    def ratio(num, den):
        return num / den if den else 0.0

    def accept_ratio():
        generate = names.index("pencil.generate")
        attempts = sum(1 for probe, parent, _, _, _ in spans
                       if names[probe] == "pencil.genericity" and parent >= 0
                       and spans[parent][0] == generate)
        return ratio(calls.get("pencil.generate", 0), attempts)

    derived = {
        "checks.cache_hits":
            lambda: calls.get("checks.cached", 0) - distinct("checks.cached"),
        "checks.cache_misses": lambda: distinct("checks.cached"),
        "fiber.side_fibers_per_point": lambda: ratio(
            calls.get("fiber.side_fiber", 0), distinct("fiber.side_fiber")),
        "geometry.sweeps_per_curve": lambda: ratio(
            calls.get("geometry.sweep", 0), distinct("geometry.sweep")),
        "geometry.points_scanned": lambda: sum(
            k[0] * k[0] + k[0] + 1
            for name in DERIVED["geometry.points_scanned"]
            for k in keys.get(name, ())),
        "pencil.accept_ratio": accept_ratio,
    }

    out = {}
    gone = []
    for metric, probes in {**SELF_TIME, **CALLS}.items():
        if all(p in data["missing"] for p in probes):
            gone.append(metric)
        elif metric in SELF_TIME:
            out[metric] = sum(self_s.get(p, 0.0) for p in probes)
        else:
            out[metric] = sum(calls.get(p, 0) for p in probes)
    for metric, probes in DERIVED.items():
        if any(p in missing for p in probes):
            gone.append(metric)
        else:
            out[metric] = derived[metric]()
    return out, sorted(gone)
