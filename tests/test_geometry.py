"""Finite-field scans, stabilizer tables, singular locus of the fibration."""

import functools
import hashlib
import json
import random

import pytest

from quadclif import geometry
from quadclif.checks import (
    SCAN_PRIMES,
    CheckContext,
    _adjugate_scan,
    run_single,
)
from quadclif.exactalg import MultiPoly, adjugate3, evaluator, mat_kernel
from quadclif.geometry import (
    GenericityError,
    ReducedCurve,
    ScanError,
    StabilizerDescriptor,
    _zero_set,
    compile_poly,
    curve_points,
    ff_scan_corank,
    ff_scan_smooth,
    ff_scan_transversal,
    singular_locus_C,
    stabilizer,
    stabilizer_bruteforce,
)
from quadclif.pencil import URING, InvariantPencil, det_cubic, genericity_check

from conftest import (
    BAD_REDUCTION_Q_PLUS,
    FpElem,
    PrimeField,
    SCALED_Q_PLUS,
    VANISHING_PARTIAL_Q_PLUS,
    bare_curve,
    cached_pencil,
    compiled_gradient,
    det3_mod,
    eval_gradient,
    genericity_scans,
    kernel_column_by_adjugate,
    proj_points,
    rank_mod,
    reduced_curve,
    scan_smooth_by_compiled_gradient,
    scan_transversal_by_compiled_gradient,
    with_q_plus,
    zero_set_by_evaluation,
)


U1, U2, U3 = (URING.var(v) for v in URING.vars)


def test_proj_points_count():
    for p in (17, 101):
        pts = list(proj_points(p))
        assert len(pts) == p * p + p + 1
        assert len(set(pts)) == len(pts)


def sym(*rows):
    """A symmetric 3×3 matrix from its upper triangle, row by row."""
    (a, b, c), (d, e), (f,) = rows
    return ((a, b, c), (b, d, e), (c, e, f))


def diag(a, b, c):
    return sym((a, 0, 0), (b, 0), (c,))


def block_curve(mats, p=101):
    """det Σ uₖ mats[k] reduced mod p with its blocks, as
    CheckContext.curve builds it."""
    return ReducedCurve(det_cubic(mats), mats, p)


def max_corank(P, p):
    """ff_scan_corank on both reduced curves of P."""
    return ff_scan_corank(*(reduced_curve(P, side, p) for side in ("plus", "minus")))


# The scans read gradients off the block's adjugate, so they run on
# determinantal curves; bare polynomials (`bare_curve`) go through the
# compiled-gradient oracle only.
# [[u1, 0, u2], [0, u3, u1], [u2, u1, u3]]: u2²u3 = -u1(u1 - u3)(u1 + u3),
# a smooth Weierstrass cubic
SMOOTH = (sym((1, 0, 0), (0, 1), (0,)), sym((0, 0, 1), (0, 0), (0,)),
          sym((0, 0, 0), (1, 0), (1,)))
TRIANGLE = (diag(1, 0, 0), diag(0, 1, 0), diag(0, 0, 1))   # diag(u1, u2, u3)
# [[u3, 0, u1], [0, -u1, u2], [u1, u2, -u1]]: det = u1³ + u1²u3 - u2²u3,
# with a node at (0:0:1)
NODAL = (sym((0, 0, 1), (-1, 0), (-1,)), sym((0, 0, 0), (0, 1), (0,)),
         sym((1, 0, 0), (0, 0), (0,)))
# [[0, u3, u1], [u3, u2, u2], [u1, u2, u1 + t·u3]]: det = -u1²u2 + ... - t·u3³,
# so the two curves t = 0, 1 meet only on u3 = 0, with equal gradients there
TANGENT = tuple((sym((0, 0, 1), (0, 0), (1,)), sym((0, 0, 0), (1, 1), (0,)),
                 sym((0, 1, 0), (0, 0), (t,))) for t in (0, 1))
# diag(101u1 + u2, u2, u3): f = (101u1 + u2)u2u3, and ∂f/∂u1 = 101u2u3 is
# nonzero over Q but vanishes mod 101
VANISHING_PARTIAL = (diag(101, 0, 0), diag(1, 1, 0), diag(0, 0, 1))


def test_scan_smooth_fermat_and_triangle():
    fermat = U1 ** 3 + U2 ** 3 + U3 ** 3
    assert scan_smooth_by_compiled_gradient(bare_curve(fermat, 101)) == []
    smooth = block_curve(SMOOTH)
    assert smooth.f == U1 * U3 ** 2 - U1 ** 3 - U2 ** 2 * U3
    assert ff_scan_smooth(smooth) == [] == scan_smooth_by_compiled_gradient(smooth)
    triangle = block_curve(TRIANGLE)
    assert triangle.f == U1 * U2 * U3
    bad = set(ff_scan_smooth(triangle))
    assert {(1, 0, 0), (0, 1, 0), (0, 0, 1)} <= bad
    assert ff_scan_smooth(triangle) == scan_smooth_by_compiled_gradient(triangle)


def test_scan_smooth_rejects_zero_poly():
    with pytest.raises(ScanError):
        compile_poly(101 * U1 ** 3, 101)
    with pytest.raises(ScanError):
        ff_scan_smooth(block_curve((diag(101, 1, 1), diag(0, 0, 0), diag(0, 0, 0))))


def test_scan_smooth_nodal_cubic():
    # u2^2*u3 = u1^2*(u1 + u3) has a node at (0:0:1)
    nodal = U2 ** 2 * U3 - U1 ** 3 - U1 ** 2 * U3
    assert (0, 0, 1) in scan_smooth_by_compiled_gradient(bare_curve(nodal, 101))
    curve = block_curve(NODAL)
    assert curve.f == -nodal
    assert (0, 0, 1) in ff_scan_smooth(curve)
    assert ff_scan_smooth(curve) == scan_smooth_by_compiled_gradient(curve)


def test_scan_transversal_detects_tangency():
    f_plus = U1 ** 3 + U2 ** 3 + U3 ** 3
    f_minus = U1 ** 3 + U2 ** 3 + 2 * U3 ** 3
    for bad in (scan_transversal_by_compiled_gradient(bare_curve(f_plus, 101),
                                                      bare_curve(f_minus, 101)),
                ff_scan_transversal(*map(block_curve, TANGENT))):
        assert bad
        # every common point has u3 = 0 and is a tangency point
        for pt in bad:
            assert pt[2] == 0
    plus, minus = map(block_curve, TANGENT)
    assert plus.f - minus.f == U3 ** 3
    assert ff_scan_transversal(plus, minus) == [(1, 0, 0), (0, 1, 0)]


def test_scan_transversal_identical_curves():
    f = U1 ** 3 + U2 ** 3 + U3 ** 3
    bad = scan_transversal_by_compiled_gradient(bare_curve(f, 101),
                                                bare_curve(f, 101))
    assert len(bad) == len(curve_points(f, 101))
    bad = ff_scan_transversal(block_curve(SMOOTH), block_curve(SMOOTH))
    assert bad == list(block_curve(SMOOTH).points)


def test_scan_transversal_generic(pencil42):
    for p in (101, 103, 107):
        assert ff_scan_transversal(reduced_curve(pencil42, "plus", p),
                                   reduced_curve(pencil42, "minus", p)) == []


def test_curve_points_match_bruteforce_small():
    f = U1 ** 3 + 2 * U2 ** 3 + 3 * U3 ** 3 + U1 * U2 * U3
    p = 17
    fast = set(curve_points(f, p))
    slow = {
        pt for pt in proj_points(p)
        if evaluator([pt[0], pt[1], pt[2]])(f).numerator % p == 0
    }
    assert fast == slow


def test_adjugate_corank_consistency_exhaustive_random():
    # adj = 0 and det = 0 iff corank >= 2, checked over F_17 random matrices
    rng = random.Random(99)
    p = 17
    seen_coranks = set()
    for _ in range(400):
        m = [[0] * 3 for _ in range(3)]
        for i in range(3):
            for j in range(i, 3):
                m[i][j] = m[j][i] = rng.randrange(p)
        adj = adjugate3(m)
        det = det3_mod(m, p, adj)
        corank = 3 - rank_mod(m, p)
        seen_coranks.add(corank)
        adj_zero = all(x % p == 0 for row in adj for x in row)
        if corank == 0:
            assert det != 0
        if corank == 1:
            assert det == 0 and not adj_zero
        if corank >= 2:
            assert det == 0 and adj_zero
    assert {0, 1} <= seen_coranks


def test_corank_scan_generic(pencil42):
    for p in (101, 103, 107):
        assert max_corank(pencil42, p) == 1


def test_corank_scan_crafted_degenerate():
    # q_u = diag(u1, u1, u2) has corank 2 at (0:0:1)... the curve is
    # u1^2*u2, and at u = (0:1:0) the block is diag(0,0,1)? -- walk the
    # actual degeneracies: at (0:0:1) the block is 0 (corank 3), along
    # u1 = 0 it is diag(0,0,u2) with corank 2
    d = lambda a, b, c: ((a, 0, 0), (0, b, 0), (0, 0, c))
    q_plus = (d(1, 1, 0), d(0, 0, 1), d(0, 0, 0))
    q_minus = (d(1, 0, 0), d(0, 1, 0), d(0, 0, 1))
    P = InvariantPencil(q_plus=q_plus, q_minus=q_minus, seed=0, coeff_bound=1)
    assert max_corank(P, 101) >= 2


def test_singular_locus_counts_and_certificates(pencil42):
    p = 101
    for side in ("plus", "minus"):
        f = pencil42.det_curves().side(side)
        pts = singular_locus_C(reduced_curve(pencil42, side, p))
        assert len(pts) == len(curve_points(f, p))
        for u, x0 in pts:
            m = pencil42.block_at(u, side)
            for i in range(3):
                assert sum(int(m[i][j]) * x0[j] for j in range(3)) % p == 0


def test_singular_locus_rejects_corank2():
    d = lambda a, b, c: ((a, 0, 0), (0, b, 0), (0, 0, c))
    q = (d(1, 1, 0), d(0, 0, 1), d(0, 0, 0))
    P = InvariantPencil(q_plus=q, q_minus=q, seed=0, coeff_bound=1)
    with pytest.raises(GenericityError):
        singular_locus_C(reduced_curve(P, "plus", 101))


def test_scan_gradient_vanishing_mod_p_is_a_scan_error():
    # ∂f/∂u1 = 101·u2·u3 is nonzero over Q but vanishes mod 101
    bare = bare_curve(U2 ** 3 + U3 ** 3 + 101 * U1 * U2 * U3, 101)
    fermat = bare_curve(U1 ** 3 + U2 ** 3 + U3 ** 3, 101)
    with pytest.raises(ScanError):
        scan_smooth_by_compiled_gradient(bare)
    with pytest.raises(ScanError):
        scan_transversal_by_compiled_gradient(bare, fermat)
    curve = block_curve(VANISHING_PARTIAL)
    assert curve.f == (101 * U1 + U2) * U2 * U3
    with pytest.raises(ScanError):
        scan_smooth_by_compiled_gradient(curve)
    with pytest.raises(ScanError):
        ff_scan_smooth(curve)
    for pair in ((curve, block_curve(SMOOTH)), (block_curve(SMOOTH), curve)):
        with pytest.raises(ScanError):
            ff_scan_transversal(*pair)
    # the pass itself does not raise: the corank scan still reads it
    assert len(curve.kernel_columns) == len(curve.points)


def test_one_sweep_per_side_and_prime(pencil42, monkeypatch):
    """genericity_check, and so the run's genericity report, sweeps
    nothing; the scan-reading checks of one run share one sweep per
    (side, p), in the order of curve_points, through the run's one curve
    memo, and the smoothness scans alone sweep all six."""
    swept = []
    sweep = geometry._zero_set

    def counting(compiled, p):
        swept.append(p)
        return sweep(compiled, p)

    monkeypatch.setattr(geometry, "_zero_set", counting)
    P = pencil42
    primes = (101, 103, 107)
    assert genericity_check(P).all_ok()
    ctx = CheckContext(P, points=1)
    assert ctx.genericity().all_ok()
    assert swept == []
    assert run_single(ctx, "prop2.2-smoothness").status == "pass"
    assert sorted(swept) == sorted(primes * 2)
    for check_id in ("prop2.2-transversality", "def2.1-rank4",
                     "prop3.18-corank1-m2",
                     "prop4.2-adjugate-double-line", "prop4.3-singular-locus"):
        assert run_single(ctx, check_id).status == "pass"
    assert len(swept) == 6
    monkeypatch.setattr(geometry, "_zero_set", sweep)
    for side in ("plus", "minus"):
        for p in primes:
            curve = ctx.curve(side, p)
            assert ctx.curve(side, p) is curve
            assert list(curve.points) == curve_points(P.det_curves().side(side), p)


# -- the Horner sweep against brute-force evaluation ---------------------------


MONOMIALS = {d: [(i, j, d - i - j) for i in range(d + 1) for j in range(d + 1 - i)]
             for d in (1, 2, 3)}


def random_compiled(rng, p, degree):
    """A random form of the given degree mod p, as compile_poly lays it out."""
    while True:
        compiled = [(e, c) for e, c in
                    ((e, rng.randrange(p)) for e in MONOMIALS[degree]) if c]
        if compiled:
            return compiled


CONIC = U1 ** 2 + 3 * U2 * U3 - 5 * U3 ** 2 + U1 * U3

# (name, form, p, the line (1, a, ·) or (0, 1, ·) on which it vanishes)
SPECIAL_FORMS = (
    ("line-x-conic", (U2 - 3 * U1) * CONIC, 101, (1, 3)),
    ("infinity-x-conic", U1 * CONIC, 103, (0, 1)),
    # the chart line a = 0 is (b - 1)³, a triple root
    ("triple-root-line", (U3 - U1) ** 3 + U2 * (U1 ** 2 + U3 ** 2), 107, None),
    ("diagonal", U1 * U2 * U3, 101, (1, 0)),
)


def _random_corpus():
    rng = random.Random(2718)
    cases = [pytest.param(random_compiled(rng, p, d), p, id=f"deg{d}-{p}-{i}")
             for p in (17, 101, 103, 107) for d in (1, 2, 3) for i in range(4)]
    cases.append(pytest.param(random_compiled(rng, 1009, 3), 1009,
                              id="deg3-1009"))
    # no u3³ term, so no chart line (1, a, ·) is a cubic
    flat = [(e, c) for e, c in random_compiled(rng, 101, 3) if e != (0, 0, 3)]
    cases.append(pytest.param(flat, 101, id="deg3-f001-zero"))
    return cases


# The test names keep "horner_sweep" from when the Horner sweep was the
# oracle of a faster sweep; it is now the live sweep, checked by evaluation.
@pytest.mark.parametrize("compiled,p", _random_corpus())
def test_zero_set_matches_horner_sweep(compiled, p):
    assert _zero_set(compiled, p) == zero_set_by_evaluation(compiled, p)


@pytest.mark.parametrize("name,f,p,line", SPECIAL_FORMS,
                         ids=[case[0] for case in SPECIAL_FORMS])
def test_zero_set_special_forms(name, f, p, line):
    compiled = compile_poly(f, p)
    zeros = _zero_set(compiled, p)
    assert zeros == zero_set_by_evaluation(compiled, p)
    if line is not None:
        assert sum(pt[:2] == line for pt in zeros) == p
    if name == "triple-root-line":
        assert [pt for pt in zeros if pt[:2] == (1, 0)] == [(1, 0, 1)]


ORACLE_PENCILS = ([f"seed{s}-bound{b}" for s in range(1, 26) for b in (3, 9)]
                  + ["pencil42", "pencil7", "diagonal"])


def _oracle_pencil(name):
    if name == "diagonal":
        return _diag_pencil()
    if name.startswith("pencil"):
        return cached_pencil(int(name[6:]))
    seed, bound = name[4:].split("-bound")
    return cached_pencil(int(seed), int(bound))


@pytest.mark.parametrize("name", ORACLE_PENCILS)
def test_zero_set_matches_horner_sweep_on_pencils(name):
    """The sweep equals brute-force evaluation on both cubics at the first
    default prime."""
    P = _oracle_pencil(name)
    curves = P.det_curves()
    p = SCAN_PRIMES[0]
    for side in ("plus", "minus"):
        compiled = compile_poly(curves.side(side), p)
        assert _zero_set(compiled, p) == zero_set_by_evaluation(compiled, p)


# pencil42 with a third q_plus matrix of determinant 101: f₊ has the u3³
# coefficient 101, so at p = 101 no chart line (1, a, ·) is a cubic
FLAT_AT_101 = ((-4, 1, -4), (1, 0, -4), (-4, -4, -5))


def test_zero_set_where_the_u3_cube_vanishes_mod_p(pencil42, monkeypatch):
    """With d3 ≡ 0 mod 101 but not over Q, the sweep of f₊ at 101 is the
    brute-force zero set, and the scan witnesses are those of the
    compiled-gradient scans: none."""
    def pencil():
        return InvariantPencil(q_plus=pencil42.q_plus[:2] + (FLAT_AT_101,),
                               q_minus=pencil42.q_minus, seed=42, coeff_bound=5)

    P = pencil()
    assert P.det_curves().f_plus.terms[(0, 0, 3)] == 101
    curve = reduced_curve(P, "plus", 101)
    assert list(curve.points) == zero_set_by_evaluation(curve.compiled, 101)
    rep = genericity_scans(CheckContext(P), genericity_check(P))
    assert rep.all_ok() and rep.witnesses[3:] == ()
    monkeypatch.setattr(geometry, "ff_scan_smooth", scan_smooth_by_compiled_gradient)
    monkeypatch.setattr(geometry, "ff_scan_transversal",
                        scan_transversal_by_compiled_gradient)
    P = pencil()
    assert genericity_scans(CheckContext(P), genericity_check(P)) == rep


def test_curve_pass_rechecks_the_determinant():
    """The pass refuses a block that is regular at a swept point: here
    the points of f₊ meet the blocks of q₋."""
    P = cached_pencil(42)
    curve = ReducedCurve(P.det_curves().f_plus, P.q_minus, 101)
    with pytest.raises(AssertionError, match="block eval disagree"):
        curve.gradients


# -- the adjugate pass against the exhaustive P²(F_p) sweep ---------------------


def _diag_pencil():
    e = lambda k: tuple(
        tuple(1 if i == j == k else 0 for j in range(3)) for i in range(3))
    q = (e(0), e(1), e(2))
    return InvariantPencil(q_plus=q, q_minus=q, seed=0, coeff_bound=1)


def _crafted_corank2_pencil():
    # the pencil of test_corank_scan_crafted_degenerate
    d = lambda a, b, c: ((a, 0, 0), (0, b, 0), (0, 0, c))
    return InvariantPencil(q_plus=(d(1, 1, 0), d(0, 0, 1), d(0, 0, 0)),
                           q_minus=(d(1, 0, 0), d(0, 1, 0), d(0, 0, 1)),
                           seed=0, coeff_bound=1)


def _block_mod(P, side, pt, p):
    return [[x % p for x in row] for row in P.block_at(pt, side)]


def exhaustive_adjugate_sweep(P, side, p):
    """The adjugate at every point of P²(F_p), in enumeration order:
    ({"rank3", "double_line"}, None), or (None, first point where the
    block is singular and its adjugate is not rank one)."""
    rank3 = double = 0
    for pt in proj_points(p):
        m = _block_mod(P, side, pt, p)
        adj = adjugate3(m)
        if det3_mod(m, p, adj):
            rank3 += 1
            continue
        if rank_mod(adj, p) != 1:
            return None, list(pt)
        double += 1
    return {"rank3": rank3, "double_line": double}, None


def exhaustive_max_corank(P, p):
    """Max corank of the blocks over all of P²(F_p), by elimination."""
    return max(3 - rank_mod(_block_mod(P, side, pt, p), p)
               for side in ("plus", "minus") for pt in proj_points(p))


def exhaustive_kernel_lines(P, side, p):
    """(u, x0) at every point where the block is singular, x0 its kernel
    line by elimination, scaled to lead with 1; ("corank", u) instead at
    the first point of corank >= 2."""
    out = []
    for u in proj_points(p):
        m = _block_mod(P, side, u, p)
        if det3_mod(m, p, adjugate3(m)):
            continue
        ker = mat_kernel([[FpElem(x, p) for x in row] for row in m], 3,
                         PrimeField(p))
        if len(ker) != 1:
            return ("corank", u)
        v = [c.r for c in ker[0]]
        inv = pow(next(c for c in v if c), p - 2, p)
        out.append((u, tuple(c * inv % p for c in v)))
    return out


# Values at the commit before the shared adjugate pass: max corank, and
# per side the singular locus (count and SHA-256 prefix of its repr, or
# the error it raised) and the prop4.2 scan result.
PARENT_SCANS = {
    ("pencil42", 101): (1, {
        "plus": ((102, "1608824ab189c9d6"), (10201, 102)),
        "minus": ((116, "8f027656de759cff"), (10187, 116))}),
    ("pencil42", 17): (1, {
        "plus": ((20, "75de6eac93a7c742"), (287, 20)),
        "minus": ((20, "c224ad596c406945"), (287, 20))}),
    ("diag", 101): (2, {
        "plus": ("corank >= 2 at (1, 0, 0) mod 101", [1, 0, 0]),
        "minus": ("corank >= 2 at (1, 0, 0) mod 101", [1, 0, 0])}),
    ("crafted", 101): (3, {
        "plus": ("corank >= 2 at (0, 1, 0) mod 101", [0, 1, 0]),
        "minus": ("corank >= 2 at (1, 0, 0) mod 101", [1, 0, 0])}),
}


@pytest.mark.parametrize("name,p", sorted(PARENT_SCANS))
def test_adjugate_pass_matches_exhaustive_sweep(name, p, pencil42):
    P = {"pencil42": pencil42, "diag": _diag_pencil(),
         "crafted": _crafted_corank2_pencil()}[name]
    corank, sides = PARENT_SCANS[name, p]
    ctx = CheckContext(P, points=1)
    assert (ff_scan_corank(ctx.curve("plus", p), ctx.curve("minus", p))
            == corank == exhaustive_max_corank(P, p))
    for side in ("plus", "minus"):
        singular, adjugate = sides[side]
        scan = _adjugate_scan(ctx, side, p)
        assert scan == exhaustive_adjugate_sweep(P, side, p)
        oracle = exhaustive_kernel_lines(P, side, p)
        if isinstance(singular, str):
            assert scan == (None, adjugate)
            with pytest.raises(GenericityError) as err:
                singular_locus_C(ctx.curve(side, p))
            assert str(err.value) == singular
            assert oracle == ("corank", tuple(adjugate))
        else:
            assert scan == ({"rank3": adjugate[0], "double_line": adjugate[1]},
                            None)
            found = singular_locus_C(ctx.curve(side, p))
            digest = hashlib.sha256(repr(found).encode()).hexdigest()[:16]
            assert (len(found), digest) == singular
            assert found == oracle


def test_one_adjugate_per_curve_point(pencil42, monkeypatch):
    """The scan witnesses, the corank scan, the singular locus and prop4.2
    build each curve point's block exactly once per (side, p), in one pass
    taken only at the curve points, and the scans differentiate
    nothing."""
    built, derived = [], []
    curve_pass, derivative = ReducedCurve._pass.func, MultiPoly.derivative

    # the pass builds one block per curve point in its loop, so each call
    # counts as one build at each of the curve's points
    def counting_pass(curve):
        built.extend((curve.mats, pt, curve.p) for pt in curve.points)
        return curve_pass(curve)

    def counting_derivative(poly, name):
        derived.append(name)
        return derivative(poly, name)

    counting = functools.cached_property(counting_pass)
    counting.__set_name__(ReducedCurve, "_pass")
    monkeypatch.setattr(ReducedCurve, "_pass", counting)
    monkeypatch.setattr(MultiPoly, "derivative", counting_derivative)
    P = pencil42
    ctx = CheckContext(P, points=1)
    rep = genericity_check(P)
    derived.clear()
    assert genericity_scans(ctx, rep).witnesses[3:] == ()
    assert derived == []
    curves = [ctx.curve(side, p)
              for side in ("plus", "minus") for p in SCAN_PRIMES]
    expected = sorted((c.mats, pt, c.p) for c in curves for pt in c.points)
    assert sorted(built) == expected
    for c in curves:
        side = "plus" if c.f is P.det_curves().f_plus else "minus"
        assert list(c.blocks) == [
            tuple(m[i][j] % c.p for i in range(3) for j in range(i, 3))
            for m in (P.block_at(pt, side) for pt in c.points)]
    for p in SCAN_PRIMES:
        assert ff_scan_corank(ctx.curve("plus", p), ctx.curve("minus", p)) == 1
        for side in ("plus", "minus"):
            singular_locus_C(ctx.curve(side, p))
            _adjugate_scan(ctx, side, p)
    assert len(built) == len(expected)


# -- the curve pass against compiled gradients and the full adjugate ----------


@pytest.mark.parametrize("name", ORACLE_PENCILS)
def test_curve_pass_matches_compiled_gradients_and_adjugate(name):
    """At every curve point, the Jacobi gradient equals the compiled
    derivatives of f and the kernel column equals adjugate3's, integer for
    integer; the scans that read them give the compiled-gradient lists."""
    P = _oracle_pencil(name)
    for p in SCAN_PRIMES:
        for side in ("plus", "minus"):
            curve = reduced_curve(P, side, p)
            grads = compiled_gradient(curve)
            assert len(curve.gradients) == len(curve.points) > 0
            for pt, g, col in zip(curve.points, curve.gradients,
                                  curve.kernel_columns):
                assert list(g) == eval_gradient(grads, pt, p)
                assert col == kernel_column_by_adjugate(P, side, pt, p)
            assert ff_scan_smooth(curve) == scan_smooth_by_compiled_gradient(curve)
        plus, minus = reduced_curve(P, "plus", p), reduced_curve(P, "minus", p)
        assert (ff_scan_transversal(plus, minus)
                == scan_transversal_by_compiled_gradient(plus, minus))


# The diagonal control's exact genericity report; its scan witnesses at
# the scan primes, hashed with the resultant witness and notes of the
# exact report.  Both hash the report as it was laid out when it still had
# the fields transversal (= nine_points) and rank_ge_4 (= e_plus_smooth
# and e_minus_smooth).  Both changed when the resultant witness gained its
# center and the exact witnesses lost their prime and point keys (before:
# 00e04e5d…312bf72 and 8491189e…0cac5aa3).
DIAG_GENERICITY_SHA256 = \
    "22f8c36059b56ebef96c93d42307a298fab5a0b42af75f0f2c64957b5085f4da"
DIAG_SCAN_GENERICITY_SHA256 = \
    "5dd995f312fc7243eea02e9d8c81be20a509c9d74fe22781a18401b8ca3b1d45"


def _sha256(rep):
    fields = dict(rep._asdict(), transversal=rep.nine_points,
                  rank_ge_4=rep.e_plus_smooth and rep.e_minus_smooth)
    blob = json.dumps(fields, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def test_genericity_witnesses_are_pinned(pencil42):
    P = _diag_pencil()
    rep = genericity_check(P)
    assert _sha256(rep) == DIAG_GENERICITY_SHA256
    assert rep.witnesses == (
        {"kind": "discriminant", "side": "plus", "delta": 0},
        {"kind": "discriminant", "side": "minus", "delta": 0},
        {"kind": "resultant", "center": [1, 1, 1], "degree": -1,
         "squarefree": False})
    scans = genericity_scans(CheckContext(P), rep).witnesses[3:]
    assert len(scans) == 954 and not any("note" in w for w in scans)
    assert _sha256(rep._replace(
        witnesses=scans + rep.witnesses[2:])) == DIAG_SCAN_GENERICITY_SHA256
    P = with_q_plus(BAD_REDUCTION_Q_PLUS)
    rep = genericity_check(P)
    assert rep.all_ok() and [w["kind"] for w in rep.witnesses] == [
        "discriminant", "discriminant", "resultant"]
    note = "bad reduction mod 101: Delta_plus != 0 over Q"
    assert genericity_scans(CheckContext(P), rep).witnesses[3:] == (
        {"kind": "e_plus_singular", "prime": 101, "point": [1, 25, 86],
         "note": note},
        {"kind": "corank", "prime": 101, "point": None, "value": 2,
         "note": "bad reduction mod 101: Delta_plus * Delta_minus != 0 over Q"})
    # f₊, or one of its partials, vanishes mod 101, so the smoothness scan
    # cannot run there; the corank scan reads 3, from the zero block at
    # (1:0:0) or, where f₊ itself vanishes, for want of a curve
    for q_plus in (SCALED_Q_PLUS, VANISHING_PARTIAL_Q_PLUS):
        P = with_q_plus(q_plus)
        rep = genericity_check(P)
        assert rep.all_ok() and genericity_scans(CheckContext(P), rep).witnesses[3:] == (
            {"kind": "e_plus_vanishes_mod_p", "prime": 101, "point": None,
             "note": note},
            {"kind": "corank", "prime": 101, "point": None, "value": 3,
             "note": "bad reduction mod 101: Delta_plus * Delta_minus != 0 over Q"})


# The witness kinds each genericity check printed when it filtered the
# scan-augmented report (the oracle genericity_scans), exact kinds first.
GENERICITY_CHECK_KINDS = {
    "prop2.2-smoothness": ("discriminant", "degenerate_determinant",
                           "e_plus_singular", "e_minus_singular",
                           "e_plus_vanishes_mod_p", "e_minus_vanishes_mod_p"),
    "prop2.2-transversality": ("resultant", "tangency"),
    "def2.1-rank4": ("discriminant", "corank"),
}


GENERICITY_PENCILS = {
    "seed42": lambda: cached_pencil(42),
    "seed7": lambda: cached_pencil(7),
    "diagonal": _diag_pencil,
    "bad-reduction": lambda: with_q_plus(BAD_REDUCTION_Q_PLUS),
    "scaled": lambda: with_q_plus(SCALED_Q_PLUS),
    "vanishing-partial": lambda: with_q_plus(VANISHING_PARTIAL_Q_PLUS),
}


@pytest.mark.parametrize("name", GENERICITY_PENCILS)
def test_each_genericity_check_prints_the_oracle_scan_witnesses(name):
    """Each genericity check, running its own scans, prints the oracle's
    witnesses of its kinds in the oracle's order, then its certificate;
    only seeds 42 and 7 have no scan witness."""
    P = GENERICITY_PENCILS[name]()
    oracle = genericity_scans(CheckContext(P), genericity_check(P)).witnesses
    ctx = CheckContext(P, points=1)
    scanned = 0
    for check_id, kinds in GENERICITY_CHECK_KINDS.items():
        got = run_single(ctx, check_id).witnesses
        assert got[:-1] == [w for w in oracle if w["kind"] in kinds], check_id
        assert got[-1]["scan_primes"] == list(SCAN_PRIMES)
        scanned += sum("prime" in w for w in got)
    assert scanned == len(oracle) - len(genericity_check(P).witnesses)
    assert (scanned > 0) == (name not in ("seed42", "seed7"))


def test_each_genericity_check_runs_only_its_own_scan(pencil42, monkeypatch):
    """On a fresh context the run's genericity report scans nothing:
    def2.1-rank4 runs only the corank scan, prop2.2-transversality only
    the tangency scan and prop2.2-smoothness only the singular-point scan,
    each once per scan prime (the smoothness scan once per side)."""
    calls = []
    for name in ("ff_scan_smooth", "ff_scan_transversal", "ff_scan_corank"):
        def counting(*curves, _scan=getattr(geometry, name), _name=name):
            calls.append(_name)
            return _scan(*curves)
        monkeypatch.setattr(geometry, name, counting)
    assert CheckContext(pencil42, points=1).genericity().all_ok()
    assert calls == []
    n = len(SCAN_PRIMES)
    for check_id, scan, count in (("def2.1-rank4", "ff_scan_corank", n),
                                  ("prop2.2-transversality", "ff_scan_transversal", n),
                                  ("prop2.2-smoothness", "ff_scan_smooth", 2 * n)):
        ctx = CheckContext(pencil42, points=1)
        assert run_single(ctx, check_id).status == "pass"
        assert calls == [scan] * count, check_id
        calls.clear()


# -- stabilizers ---------------------------------------------------------------


CASES = [(False, False), (True, False), (False, True), (True, True)]


def test_stabilizer_closed_form_vs_bruteforce():
    for group in ("Clambda", "G"):
        for yp0, ym0 in CASES:
            assert stabilizer(yp0, ym0, group) == \
                stabilizer_bruteforce(yp0, ym0, group)


def test_stabilizer_table_G():
    assert stabilizer(False, False, "G").subgroup == "trivial"
    s = stabilizer(True, False, "G")
    assert s.subgroup == "Z2_lambda" and set(s.elements) == {(1, 1), (-1, -1)}
    s = stabilizer(False, True, "G")
    assert s.subgroup == "Z2_s" and set(s.elements) == {(1, 1), (-1, 1)}
    s = stabilizer(True, True, "G")
    assert s.subgroup == "Z2xZ2" and len(s.elements) == 4


def test_stabilizer_table_Clambda():
    for yp0, ym0 in CASES:
        s = stabilizer(yp0, ym0, "Clambda")
        if yp0 and ym0:
            assert s.subgroup == "Z2_lambda" and set(s.elements) == {1, -1}
        else:
            assert s.subgroup == "trivial" and s.elements == (1,)


def test_stabilizer_bruteforce_rejects_bad_sample():
    with pytest.raises(ValueError):
        stabilizer_bruteforce(True, False, "G",
                              sample=((1, 0, 0), 3, 0))
