"""Acceptance gate: nine criteria, one printed pass/fail line each.

Every comparison is exact (Fraction or F_p arithmetic), so the pinned
tolerance is zero throughout: equalities must hold on the nose.  Each
criterion collects its violations first and prints its verdict line
before asserting, so the line appears in captured output either way.
Run as a script to get the nine lines and a process exit code.
"""

import json
import subprocess
import sys
import time
from functools import lru_cache

from conftest import (
    annihilator_round_trip,
    cached_pencil,
    central_odd_pencil,
    central_pair,
    certify_ordinary_m4,
    certify_side_split,
    commutant_dims,
    corank1_quotient_at,
    equivariance_check,
    from_pencil,
    hilbert_dims_center,
    phi_pair,
)
from test_checks import diag_instance

from quadclif.checks import CheckContext, run_single
from quadclif.clifford import (
    CliffordAlgebra,
    defining_relations,
    lift,
    phi,
    terms_homogeneous,
)
from quadclif.fiber import cubic_section_point, sample_invertible_points
from quadclif.geometry import stabilizer, stabilizer_bruteforce
from quadclif.pencil import generate, genericity_check, resultant_nine_points
from quadclif.plucker import m0_identity_check, module_rep, segre_identity_check


@lru_cache(maxsize=None)
def inst(seed):
    return generate(seed, 3)


def verdict(n, slug, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"criterion {n} ({slug}): {status}")
    assert not failures, failures[:5]


def test_criterion_1_central_odd_recovery():
    failures = []
    start = time.perf_counter()
    for seed in range(1, 26):
        P = inst(seed)
        curves = P.det_curves()
        for side, f in (("plus", curves.f_plus), ("minus", curves.f_minus)):
            res = central_odd_pencil(P, side)
            if res.sign != 1:
                failures.append((seed, side, "sign", res.sign))
            if res.square != f:
                failures.append((seed, side, "square != det cubic"))
    elapsed = time.perf_counter() - start
    if elapsed >= 10.0:
        failures.append(("runtime", elapsed))
    verdict(1, "central odd elements on 25 instances", failures)


def test_criterion_2_center_dimensions():
    failures = []
    oracle = hilbert_dims_center(6)
    if oracle != [1, 0, 3, 2, 6, 6, 11]:
        failures.append(("oracle", oracle))
    for seed in range(1, 6):
        alg = from_pencil(inst(seed), "ordinary")
        dims = commutant_dims(alg, 6)
        if dims != oracle:
            failures.append((seed, dims))
    verdict(2, "commutant weights 0..6 on 5 instances", failures)


def test_criterion_3_phi_multiplicative():
    failures = []
    even = [m for m in range(64) if bin(m).count("1") % 2 == 0]
    for seed in range(1, 4):
        P = inst(seed)
        sup, ordn = phi_pair(P)
        images = {m: phi(sup.from_mask(m), ordn) for m in even}
        for ma in even:
            a = sup.from_mask(ma)
            for mb in even:
                got = phi(a * sup.from_mask(mb), ordn)
                if got != images[ma] * images[mb]:
                    failures.append((seed, ma, mb))
        pair = central_pair(*(central_odd_pencil(P, side)
                              for side in ("plus", "minus")))
        sup6 = from_pencil(P, "super")
        ord6 = from_pencil(P, "ordinary")
        dps = lift(pair.d_plus, sup6, "plus")
        dms = lift(pair.d_minus, sup6, "minus")
        if not (dps * dms + dms * dps).is_zero():
            failures.append((seed, "super pair fails to anticommute"))
        dpo = lift(pair.d_plus, ord6, "plus")
        dmo = lift(pair.d_minus, ord6, "minus")
        if not (dpo * dmo - dmo * dpo).is_zero():
            failures.append((seed, "ordinary pair fails to commute"))
    verdict(3, "phi multiplicative on all even pairs, 3 instances", failures)


def test_criterion_4_grading_with_negative_control():
    failures = []
    P = inst(1)
    for variant in ("ordinary", "super"):
        alg = from_pencil(P, variant)
        rels = defining_relations(alg)
        for k, terms in enumerate(rels):
            if not terms_homogeneous(alg, terms):
                failures.append((variant, k, "inhomogeneous"))
        # negative control: graft an odd word onto an even relation
        corrupted = list(rels[0]) + [((0,), alg.ring.one())]
        if terms_homogeneous(alg, corrupted):
            failures.append((variant, "corruption not detected"))
        if not equivariance_check(alg):
            failures.append((variant, "equivariance"))
    verdict(4, "homogeneous relations, corruption detected", failures)


def test_criterion_5_fiberwise_matrix_algebras():
    """prop3.17 and prop3.18-split certify every point off the curves, and
    prop3.18-corank1-m2 every point on them, from identities over Z[a]
    that a ↦ q±(u) carries to both blocks;
    the per-point routes, the oracles in conftest.py, certify M4 and
    M2xM2 at 20 sampled points and M2 at one cubic-field curve point per
    side (three conjugate points each)."""
    failures = []
    ctx = CheckContext(cached_pencil(42), points=20)
    for cid in ("prop3.17-azumaya-m4", "prop3.18-split-m2"):
        r = run_single(ctx, cid)
        certs = [w for w in r.witnesses if w.get("certificate") == "generic"]
        if r.status != "pass" or len(certs) != 1 or not all(
                all(w.values()) for w in certs):
            failures.append((cid, r.status))
    points = sample_invertible_points(ctx.P, ctx.rng("fiber-points"), 20)
    m4 = sum(certify_ordinary_m4(ctx, u)[1] == "M4" for u in points)
    if m4 < 20:
        failures.append(("azumaya oracle", m4))
    split = sum(certify_side_split(ctx, side, u)[1] == "M2xM2"
                for u in points for side in ("plus", "minus"))
    if split < 40:
        failures.append(("split oracle", split))
    r = run_single(ctx, "prop3.18-corank1-m2")
    counts = [[w[k]["held"] for k in "ABC"] for w in r.witnesses if "A" in w]
    if r.status != "pass" or counts != [[9, 3, 9]]:
        failures.append(("corank1", r.status, counts))
    for side in ("plus", "minus"):
        _, _, K, u = cubic_section_point(ctx.P, side)
        if corank1_quotient_at(ctx, side, u, K)[1] != "M2":
            failures.append(("corank1 oracle", side))
    verdict(5, "M4 and split M2xM2 off the curves (oracle at 20 points), "
               "corank-1 M2 on them (oracle at 6 points)", failures)


def test_criterion_6_genericity_with_negative_control():
    failures = []
    P = cached_pencil(42)
    curves = P.det_curves()
    nine, degree, _, _ = resultant_nine_points(curves.f_plus, curves.f_minus)
    if not (nine and degree == 9):
        failures.append(("resultant", nine, degree))
    rep = genericity_check(P)
    for flag in ("e_plus_smooth", "e_minus_smooth", "nine_points"):
        if not getattr(rep, flag):
            failures.append((flag, rep.witnesses[:3]))
    bad = genericity_check(diag_instance())
    if bad.e_plus_smooth:
        failures.append("diagonal control passed smoothness")
    verdict(6, "nonzero discriminants, squarefree degree-9 resultant", failures)


def test_criterion_7_isotropic_geometry():
    failures = []
    cert = segre_identity_check()
    if not cert.ok or cert.failures:
        failures.append(("segre", cert.failures))
    if not m0_identity_check().ok:
        failures.append("m0 symbolic identities")
    ctx = CheckContext(cached_pencil(42), points=3)
    r = run_single(ctx, "prop4.7-annihilator")
    if r.status != "pass":
        failures.append(("annihilator", r.witnesses))
    else:
        for w in r.witnesses:
            if (w["relations"], w["traceless"]) != (6, 3):
                failures.append(("annihilator", w))
            rep = module_rep(ctx, w["side"], ctx.fiber_points()[0])
            if annihilator_round_trip(rep) != (True, True):
                failures.append(("annihilator round trip", w["side"]))
    r = run_single(ctx, "prop4.2-adjugate-double-line")
    if r.status != "pass":
        failures.append(("adjugate", r.witnesses))
    else:
        scans = [w for w in r.witnesses if "points_scanned" in w]
        for w in scans:
            if w["rank3"] + w["double_lines"] != w["points_scanned"]:
                failures.append(("adjugate", w))
    r = run_single(ctx, "prop4.3-singular-locus")
    if r.status != "pass":
        failures.append(("singular locus", r.witnesses))
    verdict(7, "Segre, M0, annihilators, adjugate strata", failures)


def test_criterion_8_stabilizer_tables():
    failures = []
    for group in ("Clambda", "G"):
        for yp in (False, True):
            for ym in (False, True):
                closed = stabilizer(yp, ym, group)
                brute = stabilizer_bruteforce(yp, ym, group)
                if (closed.subgroup != brute.subgroup
                        or closed.elements != brute.elements):
                    failures.append((group, yp, ym,
                                     closed.subgroup, brute.subgroup))
    verdict(8, "closed-form stabilizers match brute force", failures)


def strip_seconds(path):
    rep = json.loads(path.read_text() if hasattr(path, "read_text")
                     else open(path).read())
    for c in rep["checks"]:
        del c["seconds"]
    return json.dumps(rep, sort_keys=True).encode()


def test_criterion_9_end_to_end(tmp_path):
    failures = []
    inst_path = tmp_path / "inst.json"
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    start = time.perf_counter()
    g = subprocess.run(
        [sys.executable, "-m", "quadclif", "gen", "--seed", "42",
         "--bound", "5", "-o", str(inst_path)],
        capture_output=True, text=True,
    )
    c1 = subprocess.run(
        [sys.executable, "-m", "quadclif", "check", str(inst_path),
         "--report", str(r1)],
        capture_output=True, text=True,
    )
    elapsed = time.perf_counter() - start
    if g.returncode != 0:
        failures.append(("gen", g.returncode, g.stderr))
    if c1.returncode != 0:
        failures.append(("check", c1.returncode, c1.stdout, c1.stderr))
    if elapsed >= 60.0:
        failures.append(("runtime", elapsed))
    c2 = subprocess.run(
        [sys.executable, "-m", "quadclif", "check", str(inst_path),
         "--report", str(r2)],
        capture_output=True, text=True,
    )
    if c2.returncode != 0:
        failures.append(("second check", c2.returncode))
    elif strip_seconds(r1) != strip_seconds(r2):
        failures.append("report not deterministic modulo timing")
    verdict(9, "gen + check pipeline under 60s, deterministic", failures)


if __name__ == "__main__":
    import pytest
    raise SystemExit(pytest.main([__file__, "-q", "-s"]))
