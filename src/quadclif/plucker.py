"""Isotropic geometry of the split six-dimensional quadric: the
line-Plücker model, the two rational families sweeping it out, rank-one
adjugates along the determinant curves, and the two-dimensional modules
attached to split fibers, with the count of the Clifford relations and
traces of their generator matrices (which alone give the bijection of
isotropic lines with module lines, see `checks._check_annihilator`).

Everything here is either fully symbolic (polynomial identities over Z;
the Plücker transform, whose matrix has entries ½, is checked through its
double) or exact at a chosen base point.
"""

from __future__ import annotations

import hashlib
import json
from collections import namedtuple
from fractions import Fraction
from itertools import combinations_with_replacement

from .exactalg import (
    ZZ,
    PolyRing,
    adjugate3,
    det_cofactor,
    evaluator,
    mat_rank,
    rref,
    span_coords,
)
from .clifford import block_point
from .fiber import FiberError, QuadraticTower, side_fiber
from .geometry import GenericityError

X_VARS = ("x1", "x2", "x3", "x4", "x5", "x6")
Z_VARS = ("z12", "z13", "z14", "z23", "z24", "z34")
A_VARS = ("a0", "a1", "a2", "a3")

# index pairs behind the z coordinates, in the fixed basis order
Z_PAIRS = ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))


# ---------------------------------------------------------------------------
# the line-Plücker model of the split quadric
# ---------------------------------------------------------------------------

def split_quadric_poly():
    """x1 x2 + x3² - x4² + x5 x6."""
    x = [PolyRing(ZZ, X_VARS).var(v) for v in X_VARS]
    return x[0] * x[1] + x[2] * x[2] - x[3] * x[3] + x[4] * x[5]


def plucker_quadric_poly():
    """z12 z34 - z13 z24 + z14 z23: the image of the wedge square."""
    z = [PolyRing(ZZ, Z_VARS).var(v) for v in Z_VARS]
    return z[0] * z[5] - z[1] * z[4] + z[2] * z[3]


def plucker_transform():
    """Invertible rational matrix M with x = M z carrying the Plücker
    quadric onto the split form: x3 and x4 are the half sum/difference of
    the two middle coordinates, the rest match up directly."""
    h = Fraction(1, 2)
    return (
        (Fraction(1), Fraction(0), Fraction(0), Fraction(0), Fraction(0), Fraction(0)),
        (Fraction(0), Fraction(0), Fraction(0), Fraction(0), Fraction(0), Fraction(1)),
        (Fraction(0), h, Fraction(0), Fraction(0), -h, Fraction(0)),
        (Fraction(0), h, Fraction(0), Fraction(0), h, Fraction(0)),
        (Fraction(0), Fraction(0), Fraction(1), Fraction(0), Fraction(0), Fraction(0)),
        (Fraction(0), Fraction(0), Fraction(0), Fraction(1), Fraction(0), Fraction(0)),
    )


def transform_identity_check():
    """Symbolic proof that the transform matches the two quadrics: M is
    invertible, and q(M·z) = P(z) for q the split quadric and P the
    Plücker quadric.  The identity is checked over Z[z] through the
    integer matrix T = 2M as q(T·z) = 4·P(z): both quadrics are
    homogeneous of degree 2, so q(T·z) = q(2·M·z) = 4·q(M·z), and the two
    identities are the same claim."""
    M = plucker_transform()
    if mat_rank([list(r) for r in M]) != 6:
        return False
    P = plucker_quadric_poly()
    z = [P.ring.var(v) for v in Z_VARS]
    images = [sum((zv * (2 * c) for c, zv in zip(row, z)), P.ring.zero())
              for row in M]
    return evaluator(images)(split_quadric_poly()) == P * 4


# ---------------------------------------------------------------------------
# the two Segre families and their common isotropic plane
# ---------------------------------------------------------------------------

def segre_points(ring):
    """The two isotropic curves (p₊, p₋) in Plücker coordinates, as
    polynomial 6-vectors in the family parameters a0..a3 of ring."""
    a0, a1, a2, a3 = (ring.var(v) for v in A_VARS[:4])
    zero = ring.zero()
    p_plus = (a0 * a0, a0 * a1, zero, zero, -(a0 * a1), -(a1 * a1))
    p_minus = (zero, a2 * a3, a2 * a2, a3 * a3, a2 * a3, zero)
    return p_plus, p_minus


def segre_y(ring):
    """The point of the three-space both families of lines pass through."""
    a0, a1, a2, a3 = (ring.var(v) for v in A_VARS[:4])
    return (a0 * a2, a0 * a3, a1 * a3, a1 * a2)


def wedge_with_basis(y, ring):
    """w_j = y ∧ e_j for j = 1..4, in the fixed z ordering: the pencil of
    lines through y, spanning the isotropic plane of the two families."""
    ws = []
    for j in range(1, 5):
        vec = []
        for (k, l) in Z_PAIRS:
            if l == j:
                vec.append(y[k - 1])
            elif k == j:
                vec.append(-y[l - 1])
            else:
                vec.append(ring.zero())
        ws.append(tuple(vec))
    return ws


def poly_residual_hash(polys):
    """Stable digest of a list of residual polynomials; all-zero residuals
    hash to a fixed value, so reports can pin the symbolic outcome."""
    payload = json.dumps([p.to_json_terms() for p in polys],
                         sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


IdentityCert = namedtuple("IdentityCert", "ok failures residual_sha256",
                          defaults=("",))


# Rows and columns of (w1 w2 w3 w4) whose 3×3 minor, −a0²·a1·a2³, bounds
# the rank of the plane from below.
SEGRE_MINOR = ((0, 1, 2), (0, 1, 2))


def segre_identity_check():
    """All the polynomial identities behind the two families at once:

    * both families land on the Plücker quadric;
    * the localized certificates writing a·p± inside the span of the w_j;
    * the kernel relation Σⱼ yⱼ·wⱼ = y ∧ y = 0 (`w-relation`), and the
      3×3 minor of the w's at SEGRE_MINOR is a nonzero polynomial
      (`w-minor`);
    * the Plücker quadric vanishes identically on that span.

    Over the function field Q(a): y = (a0a2, a0a3, a1a3, a1a2) ≠ 0 lies
    in the kernel of W = (w1 w2 w3 w4), so rank W ≤ 3; the certificates
    put a·p± in span(W) with a ≠ 0, so rank (W p₊ p₋) = rank W; the
    nonzero minor makes that rank exactly 3.  So every 4×4 minor of
    (W p₊ p₋) is the zero polynomial, and vanishes at every point: the
    span is an honest plane through both families.

    Every polynomial here has integer coefficients, so they are read over
    Z; an identity over Z holds over Q.
    """
    ring = PolyRing(ZZ, A_VARS)
    a0, a1, a2, a3 = (ring.var(v) for v in A_VARS[:4])
    p_plus, p_minus = segre_points(ring)
    q = plucker_quadric_poly()
    y = segre_y(ring)
    ws = wedge_with_basis(y, ring)

    failures = []
    residuals = []

    def expect_zero(name, polys):
        residuals.extend(polys)
        if not all(r.is_zero() for r in polys):
            failures.append(name)

    expect_zero("plus-family-not-isotropic", [evaluator(p_plus)(q)])
    expect_zero("minus-family-not-isotropic", [evaluator(p_minus)(q)])

    def scale(vec, c):
        return tuple(x * c for x in vec)

    def vadd(u, v):
        return tuple(x + y_ for x, y_ in zip(u, v))

    certs = [
        ("plus-cert-a2", scale(p_plus, a2), vadd(scale(ws[1], a0), scale(ws[2], a1))),
        ("plus-cert-a3", scale(p_plus, -a3), vadd(scale(ws[0], a0), scale(ws[3], a1))),
        ("minus-cert-a1", scale(p_minus, -a1), vadd(scale(ws[0], a2), scale(ws[1], a3))),
        ("minus-cert-a0", scale(p_minus, a0), vadd(scale(ws[2], a3), scale(ws[3], a2))),
    ]
    for name, lhs, rhs in certs:
        expect_zero(name, [x - y_ for x, y_ in zip(lhs, rhs)])

    expect_zero("w-relation", [sum((w[k] * yj for yj, w in zip(y, ws)), ring.zero())
                               for k in range(6)])
    rows, cols = SEGRE_MINOR
    if det_cofactor([[ws[c][r] for c in cols] for r in rows], ring).is_zero():
        failures.append("w-minor")

    big = PolyRing(ZZ, A_VARS + ("c1", "c2", "c3", "c4"))
    cs = [big.var(f"c{j}") for j in range(1, 5)]
    embed = evaluator(big.var(v) for v in A_VARS)
    span = [big.zero()] * 6
    for j, w in enumerate(ws):
        for k, comp in enumerate(w):
            if not comp.is_zero():
                span[k] = span[k] + embed(comp) * cs[j]
    expect_zero("span-not-isotropic", [evaluator(span)(q)])

    return IdentityCert(ok=not failures, failures=tuple(failures),
                        residual_sha256=poly_residual_hash(residuals))


# ---------------------------------------------------------------------------
# the 6×4 matrix of an even exterior element acting into the odd part
# ---------------------------------------------------------------------------

def _m0_rows(a, zero):
    """Matrix of v ↦ v·m on the odd basis (v1, v2, v3, v1∧v2∧v3), where
    m = a0 + a1 v2∧v3 + a2 v3∧v1 + a3 v1∧v2; the first three inputs act
    by wedging, the dual three by contraction."""
    a0, a1, a2, a3 = a
    # m on exterior masks (bit k = generator k+1)
    m = {0b000: a0, 0b110: a1, 0b101: -a2, 0b011: a3}
    odd_index = {0b001: 0, 0b010: 1, 0b100: 2, 0b111: 3}

    def wedge(i, mask):
        bit = 1 << i
        if mask & bit:
            return None
        below = bin(mask & (bit - 1)).count("1")
        return mask | bit, -1 if below % 2 else 1

    def contract(i, mask):
        bit = 1 << i
        if not mask & bit:
            return None
        below = bin(mask & (bit - 1)).count("1")
        return mask ^ bit, -1 if below % 2 else 1

    rows = []
    for k in range(6):
        action = wedge if k < 3 else contract
        i = k % 3
        out = {}
        for mask, coeff in m.items():
            hit = action(i, mask)
            if hit is None:
                continue
            tgt, sgn = hit
            val = coeff if sgn > 0 else -coeff
            out[tgt] = out.get(tgt, zero) + val
        row = [zero] * 4
        for tgt, val in out.items():
            row[odd_index[tgt]] = val
        rows.append(tuple(row))
    return tuple(rows)


def m0_matrix_symbolic():
    """The matrix with polynomial entries over Z, for identity checking;
    its value at a point is the entrywise evaluation."""
    ring = PolyRing(ZZ, A_VARS)
    a = tuple(ring.var(v) for v in A_VARS)
    return _m0_rows(a, ring.zero()), a


# (rows, columns) of the 3×3 minors of M0 equal to a0³, a1³, a2³, a3³.
M0_CUBE_MINORS = (
    ((0, 1, 2), (0, 1, 2)),
    ((0, 4, 5), (1, 2, 3)),
    ((1, 3, 5), (0, 2, 3)),
    ((2, 3, 4), (0, 1, 3)),
)


def m0_identity_check():
    """M0(a) has rank exactly 3 at every a ≠ 0, over Z[a] (so over Q[a]):

    * the kernel relation M0(a)·(a1, a2, a3, −a0)ᵀ = 0 (`relation`);
    * the minor at M0_CUBE_MINORS[i] equals aᵢ³ (`cube-minor-ai`).

    The kernel vector is nonzero at every a ≠ 0, so rank M0(a) ≤ 3 there,
    and some aᵢ ≠ 0 makes a minor aᵢ³ ≠ 0, so the rank is exactly 3; the
    same two facts give rank 3 over the function field Q(a).  As
    polynomials, then, every 4×4 minor is zero and vanishes at every
    point.  The residual digest is that of the six relation entries."""
    rows, a = m0_matrix_symbolic()
    ring = a[0].ring
    a0, a1, a2, a3 = a
    residuals = [row[0] * a1 + row[1] * a2 + row[2] * a3 - row[3] * a0
                 for row in rows]
    failures = [] if all(r.is_zero() for r in residuals) else ["relation"]
    for v, av, (ri, ci) in zip(A_VARS, a, M0_CUBE_MINORS):
        d = det_cofactor([[rows[r][c] for c in ci] for r in ri], ring)
        if d != av * av * av:
            failures.append(f"cube-minor-{v}")
    return IdentityCert(ok=not failures, failures=tuple(failures),
                        residual_sha256=poly_residual_hash(residuals))


# ---------------------------------------------------------------------------
# adjugates along the determinant curves
# ---------------------------------------------------------------------------

def adjugate_double_line(P, side, u, field=ZZ):
    """Stratify the adjugate of one block at u: full rank away from the
    curve, and on the curve a certified rank-one symmetric matrix (the
    double of the kernel line), over field, which holds u's coordinates
    (ZZ for an integer point); corank two or a failed rank-one
    certificate raises GenericityError."""
    block = P.block_at(u, side)
    m = [[field.coerce(x) for x in row] for row in block]
    adj = adjugate3(m)
    det = sum((m[0][k] * adj[k][0] for k in range(3)), field.zero)
    if det:
        return "rank3", None
    if all(not x for row in adj for x in row):
        raise GenericityError(f"corank at least two at {tuple(u)}")
    i0 = next((i for i in range(3) if adj[i][i]), None)
    if i0 is None:
        raise GenericityError("adjugate is not a double line")
    x = tuple(adj[i][i0] for i in range(3))
    piv = adj[i0][i0]
    for i in range(3):
        for j in range(3):
            if adj[i][j] * piv != x[i] * x[j]:
                raise GenericityError("adjugate is not a double line")
    for i in range(3):
        if sum((m[i][k] * x[k] for k in range(3)), field.zero):
            raise GenericityError("double line is not the kernel line")
    return "double-line", x


# ---------------------------------------------------------------------------
# two-dimensional modules over split fibers
# ---------------------------------------------------------------------------

# matrices: the action of the three generators, 2×2 over the tower;
# d_scalar: the scalar by which the odd central element acts;
# block: the 3×3 integer value of the form at the point;
# basis: the module A·E, its RREF basis in the fiber's coordinates
ModuleRep = namedtuple("ModuleRep", "tower matrices d_scalar block basis")


def _mat2_mul(x, y):
    return (
        (x[0][0] * y[0][0] + x[0][1] * y[1][0], x[0][0] * y[0][1] + x[0][1] * y[1][1]),
        (x[1][0] * y[0][0] + x[1][1] * y[1][0], x[1][0] * y[0][1] + x[1][1] * y[1][1]),
    )


def _mat2_add(x, y):
    return tuple(tuple(a + b for a, b in zip(rx, ry)) for rx, ry in zip(x, y))


W_CANDIDATES = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1), (0, 1, 1))


def module_rep(ctx, side, u):
    """A two-dimensional module for the block of ctx.P at a point u of
    full rank, as the left ideal A·E of the side fiber A over
    L = Q(√f(u), √λ), λ = −q_u(w, w) for the first candidate w with λ ≠ 0.

    With s = √f(u), t = √λ and x = Σ wᵢvᵢ (so x² = λ), put
    e = (1 + d/s)/2, p = (1 + x/t)/2 and E = e·p.  d is central with
    d² = f(u), so e is a central idempotent, and e·A ≅ C₀(u) ⊗ L is
    central simple of dimension 4 over L (the even-part certificate of
    `fiber.even_certificate`), hence e·A ≅ M2(L) by Wedderburn (Pierce,
    GTM 88; Lam, GSM 67, Ch. V).  p is idempotent as x² = t², and
    E = e·p lies in e·A with E ∉ {0, e}, so E has rank one there and
    A·E = (eA)(ep) is two-dimensional: a simple e·A-module, on which the
    generators satisfy the Clifford relations of the block and d acts by
    s.  As e is central and e·E = E, A·E is the module C·p of the corner
    C = e·A·e.  The generator matrices come from left multiplication on
    the RREF basis of A·E; the relations, tracelessness and d = ±√f(u)
    are checked on them."""
    fval = evaluator(u)(ctx.P.det_curves().side(side))
    if fval == 0:
        raise FiberError("the block only splits away from its curve")
    block = ctx.P.block_at(u, side)
    for wvec in W_CANDIDATES:
        lam = -sum(wvec[i] * block[i][j] * wvec[j]
                   for i in range(3) for j in range(3))
        if lam:
            break
    else:
        raise FiberError("the form vanished on every candidate vector")
    tower, (s, t) = QuadraticTower.create([fval, lam])
    A, dvec = side_fiber(ctx, side, u, tower)
    x = A.vzero()
    for wi, g in zip(wvec, A.gens):
        if wi:
            x = A.vadd(x, A.vscale(g, tower.coerce(wi)))
    if A.mul(x, x) != A.scalar_vec(lam):
        raise AssertionError("anisotropic vector square drifted")
    half = tower.one / tower.coerce(2)
    e = A.vscale(A.vadd(A.unit, A.vscale(dvec, tower.one / s)), half)
    p = A.vscale(A.vadd(A.unit, A.vscale(x, tower.one / t)), half)
    E = A.mul(e, p)
    if A.mul(E, E) != E:
        raise AssertionError("module idempotent law failed")
    if A.mul(dvec, E) != A.vscale(E, s):
        raise AssertionError("central element does not act as its square root")

    pivots, basis = rref([A.mul(A.basis_vec(i), E) for i in range(A.dim)])
    if len(basis) != 2:
        raise FiberError(f"module dimension {len(basis)} instead of 2")

    def action(vec):
        cols = []
        for b in basis:
            c = span_coords(pivots, basis, A.mul(vec, b))
            if c is None:
                raise AssertionError("module is not stable under the algebra")
            cols.append(c)
        return ((cols[0][0], cols[1][0]), (cols[0][1], cols[1][1]))

    mats = tuple(action(g) for g in A.gens)

    # the odd central element (the generic one at q(u)) must act by ±√f(u)
    r_at = map(evaluator(block_point(block)), ctx.central().r_coeffs)
    d_mat = _mat2_mul(_mat2_mul(mats[0], mats[1]), mats[2])
    for rv, mat in zip(r_at, mats):
        d_mat = _mat2_add(d_mat, tuple(
            tuple(tower.coerce(rv) * e for e in r) for r in mat
        ))
    scal = ((s, tower.zero), (tower.zero, s))
    if d_mat not in (scal, ((-s, tower.zero), (tower.zero, -s))):
        raise AssertionError("odd central element does not act as ±√det")
    d_scalar = s if d_mat == scal else -s
    return ModuleRep(tower=tower, matrices=mats, d_scalar=d_scalar,
                     block=block, basis=tuple(basis))


def clifford_relations(mats, block, tower):
    """(relations, traceless) for 2×2 generator matrices ρ(v₁), ρ(v₂),
    ρ(v₃) over tower and the 3×3 block q: how many of the six relations
    ρ(vᵢ)ρ(vⱼ) + ρ(vⱼ)ρ(vᵢ) = −2·q_ij·I, i ≤ j, hold, and how many of
    the three matrices are traceless.  A module has (6, 3)."""
    relations = 0
    for i, j in combinations_with_replacement(range(3), 2):
        anti = _mat2_add(_mat2_mul(mats[i], mats[j]), _mat2_mul(mats[j], mats[i]))
        c = tower.coerce(-2 * block[i][j])
        relations += anti == ((c, tower.zero), (tower.zero, c))
    traceless = sum(not (m[0][0] + m[1][1]) for m in mats)
    return relations, traceless
