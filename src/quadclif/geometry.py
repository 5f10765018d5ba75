"""Finite-field witnesses for the determinant curves, plus the
group-action stabilizer tables.

The genericity verdicts are exact and come from `pencil` (discriminants
and the resultant); the scans here only add point witnesses mod p.  Each
curve is swept once over P²(F_p) by evaluating it at every point, line
by line by Horner.  One pass along the curve points then builds each
block M once and reads from its adjugate the kernel column and, by
Jacobi's formula ∂ₖ det M = tr(adj M·Qₖ), the gradient of f = det M.
That is enough: a singular point of the curve satisfies f = 0, off the
curve the block is invertible, and two curves meet exactly at the points
their two sweeps share.  A scan sees only F_p-points: an empty list says
nothing about points over extensions of F_p, and a point found at a
prime of bad reduction says nothing over Q.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property

from .exactalg import int_coeffs


class ScanError(Exception):
    """A scan precondition failed (e.g. the curve vanishes mod p)."""


class GenericityError(Exception):
    """The instance violates a genericity assumption (corank ≥ 2)."""


# ---------------------------------------------------------------------------
# point enumeration and compiled evaluation
# ---------------------------------------------------------------------------

def compile_poly(f, p):
    """Term list [(exps, coeff mod p)] of an integer polynomial with zero
    terms dropped; ScanError if the whole polynomial vanishes mod p."""
    exps = sorted(f.terms)
    reduced = zip(exps, (c % p for c in int_coeffs(f.terms[e] for e in exps)))
    terms = [(e, c) for e, c in reduced if c]
    if not terms:
        raise ScanError(f"polynomial vanishes identically mod {p}")
    return terms


def _zero_set(compiled, p):
    """All points of P²(F_p) where the compiled polynomial (degree ≤ 3)
    vanishes, in enumeration order ((1, a, b), then (0, 1, c), then
    (0, 0, 1)), by evaluating it at every one of the p² + p + 1 points:
    on each line (x, a, ·) the polynomial is a dense cubic in the last
    coordinate, evaluated by Horner.  This is the one sweep of P²(F_p)."""
    if max(sum(e) for e, _ in compiled) > 3:
        raise ScanError("sweep supports degree <= 3 only")
    zeros = []
    for x, a in [(1, a) for a in range(p)] + [(0, 1)]:
        dense = [0, 0, 0, 0]
        for (e1, e2, e3), c in compiled:
            dense[e3] += c * x ** e1 * a ** e2
        d0, d1, d2, d3 = (d % p for d in dense)
        zeros.extend((x, a, b) for b in range(p)
                     if (((d3 * b + d2) * b + d1) * b + d0) % p == 0)
    # f(0, 0, 1) is the coefficient of the pure power of u3
    if sum(c for e, c in compiled if e[:2] == (0, 0)) % p == 0:
        zeros.append((0, 0, 1))
    return zeros


def curve_points(f, p):
    return _zero_set(compile_poly(f, p), p)


class ReducedCurve:
    """The curve f = det Σ uₖ mats[k] = 0 of integer symmetric blocks
    reduced mod p: its compiled polynomial (ScanError if f vanishes mod p),
    and, each computed once on first use, its points in P²(F_p) in
    enumeration order and one pass along them.

    `checks.CheckContext.curve` keeps one per (side, p), so every scan of
    one run reads the same sweep and the same pass."""

    def __init__(self, f, mats, p):
        self.f = f
        self.mats = mats
        self.p = p
        self.compiled = compile_poly(f, p)

    @cached_property
    def points(self):
        return tuple(_zero_set(self.compiled, self.p))

    @cached_property
    def _pass(self):
        """(blocks, kernel_columns, gradients), one entry each per curve point.

        No other point of P²(F_p) needs an adjugate: f ≡ det(block) mod p,
        since f is the block determinant and reduction is a ring map, so
        off the curve the block has rank 3 with nothing computed; on it
        det(block) ≡ 0 is re-checked at each point.  For a 3×3 matrix,
        rank 2 ⇔ adj ≠ 0, and then rank adj = 1 (its columns span the
        kernel); adj = 0 ⇔ corank ≥ 2.  The gradient is Jacobi's formula
        ∂ₖ det M(u) = tr(adj M(u)·Qₖ) (Magnus and Neudecker, *Matrix
        Differential Calculus*, Ch. 8), a polynomial identity over Z and so
        valid mod p at every point; with M symmetric, adj is too, and the
        trace is Σᵢ adjᵢᵢ·Qₖᵢᵢ + 2·Σᵢ<ⱼ adjᵢⱼ·Qₖᵢⱼ over six cofactors."""
        p, coeffs = self.p, _upper_coeffs(self.mats)
        # block entry i is aᵢ·x + bᵢ·y + cᵢ·z at the point (x, y, z), and ∂ₖf
        # weighs cofactor i by coeffs[i][k], doubled off the diagonal
        (a0, b0, c0), (a1, b1, c1), (a2, b2, c2), (a3, b3, c3), (a4, b4, c4), \
            (a5, b5, c5) = coeffs
        (gx0, gx1, gx2, gx3, gx4, gx5), (gy0, gy1, gy2, gy3, gy4, gy5), \
            (gz0, gz1, gz2, gz3, gz4, gz5) = (
                tuple(c[k] * w % p for c, w in zip(coeffs, (1, 2, 2, 1, 2, 1)))
                for k in range(3))
        blocks, cols, grads = [], [], []
        for x, y, z in self.points:
            block = m00, m01, m02, m11, m12, m22 = (
                (a0 * x + b0 * y + c0 * z) % p, (a1 * x + b1 * y + c1 * z) % p,
                (a2 * x + b2 * y + c2 * z) % p, (a3 * x + b3 * y + c3 * z) % p,
                (a4 * x + b4 * y + c4 * z) % p, (a5 * x + b5 * y + c5 * z) % p)
            blocks.append(block)
            a00, a01, a02 = m11 * m22 - m12 * m12, m02 * m12 - m01 * m22, m01 * m12 - m02 * m11
            a11, a12, a22 = m00 * m22 - m02 * m02, m01 * m02 - m00 * m12, m00 * m11 - m01 * m01
            if (m00 * a00 + m01 * a01 + m02 * a02) % p:
                raise AssertionError("curve scan and block eval disagree")
            if a00 % p or a01 % p or a02 % p:
                cols.append((a00, a01, a02))
            elif a11 % p or a12 % p:
                cols.append((a01, a11, a12))
            elif a22 % p:
                cols.append((a02, a12, a22))
            else:
                cols.append(None)
            grads.append((
                (gx0 * a00 + gx1 * a01 + gx2 * a02 + gx3 * a11 + gx4 * a12 + gx5 * a22) % p,
                (gy0 * a00 + gy1 * a01 + gy2 * a02 + gy3 * a11 + gy4 * a12 + gy5 * a22) % p,
                (gz0 * a00 + gz1 * a01 + gz2 * a02 + gz3 * a11 + gz4 * a12 + gz5 * a22) % p))
        return tuple(blocks), tuple(cols), tuple(grads)

    @property
    def blocks(self):
        """The block mod p at each curve point, as its upper triangle."""
        return self._pass[0]

    @property
    def kernel_columns(self):
        """The first column of the adjugate nonzero mod p at each curve
        point (integers, not reduced), or None where the adjugate vanishes."""
        return self._pass[1]

    @property
    def gradients(self):
        """∇f mod p at each curve point.  ScanError if some ∂ₖf is nonzero
        over Q but vanishes mod p, that is, since p > 3 exceeds every
        exponent, if f has a term with eₖ > 0 but no compiled term does."""
        for k in range(3):
            if (any(e[k] for e in self.f.terms)
                    and not any(e[k] for e, _ in self.compiled)):
                raise ScanError(f"polynomial vanishes identically mod {self.p}")
        return self._pass[2]


# ---------------------------------------------------------------------------
# smoothness / transversality scans
# ---------------------------------------------------------------------------

def ff_scan_smooth(curve):
    """Points of a ReducedCurve where the gradient also vanishes: the
    singular F_p-points of the reduction mod p."""
    return [pt for pt, g in zip(curve.points, curve.gradients) if not any(g)]


def ff_scan_transversal(plus, minus):
    """Common points of two ReducedCurves (same p) where the 2×3 gradient
    matrix has rank ≤ 1, in the order of plus's points.  The common points
    are those both sweeps found: the non-transverse common F_p-points."""
    p = plus.p
    if minus.p != p:
        raise ValueError("curves reduced at different primes")
    on_minus = dict(zip(minus.points, minus.gradients))
    return [pt for pt, g in zip(plus.points, plus.gradients)
            if pt in on_minus and _dependent(g, on_minus[pt], p)]


def _dependent(a, b, p):
    """Whether a, b ∈ F_p³ are linearly dependent: all 2×2 minors vanish."""
    return not ((a[0] * b[1] - a[1] * b[0]) % p or (a[0] * b[2] - a[2] * b[0]) % p
                or (a[1] * b[2] - a[2] * b[1]) % p)


# ---------------------------------------------------------------------------
# corank scans via the adjugate
# ---------------------------------------------------------------------------

def _upper_coeffs(mats):
    """(q₁[i][j], q₂[i][j], q₃[i][j]) for each i ≤ j, in row order."""
    return tuple(tuple(m[i][j] for m in mats) for i in range(3) for j in range(i, 3))


def ff_scan_corank(plus, minus):
    """Max corank of the 3×3 blocks along E±(F_p), read off the pass of
    each ReducedCurve: corank 1 where the adjugate has a kernel column;
    where it vanishes the rank is ≤ 1, and 0 only for the zero block.
    Value 1 means that the 6×6 forms keep rank ≥ 4 at every F_p-point; off
    the curves the blocks are invertible."""
    coranks = (1 if col is not None else 2 if any(block) else 3
               for curve in (plus, minus)
               for block, col in zip(curve.blocks, curve.kernel_columns))
    return max(coranks, default=0)


# ---------------------------------------------------------------------------
# singular locus of the conic fibration
# ---------------------------------------------------------------------------

def singular_locus_C(curve):
    """Singular points of the fibration {y² = f(u), q_u(x) = 0} over F_p,
    for the ReducedCurve of f = det q_u.

    The 2×7 Jacobian in (u, y, x) has rows (−∇f, 2y, 0) and (x^T q_k x, 0,
    2 q_u x).  Off the curve, q_u is invertible so no fiber point is
    singular; with y ≠ 0 a rank drop would force q_u x = 0 with x ≠ 0,
    contradicting det q_u = y² ≠ 0.  So the sweep only needs u ∈ E(F_p) and
    the kernel direction x₀ of q_u, an adjugate column from the curve's
    pass, which is re-verified to lie in ker(q_u) at each returned point.
    The Jacobian rank ≤ 1 condition holds by construction: at corank 1,
    adj = λ·x₀x₀ᵀ with λ ≠ 0, and the pass's gradient is Jacobi's
    gₖ = tr(adj·Qₖ) = λ·x₀ᵀQₖx₀ = λ·sₖ; its minors test is a consistency
    re-check of the pass.
    """
    p, qk = curve.p, curve.mats
    grads = curve.gradients
    found = []
    for u, block, col, g in zip(curve.points, curve.blocks,
                                curve.kernel_columns, grads):
        if col is None:
            raise GenericityError(f"corank >= 2 at {u} mod {p}")
        # normalize the kernel direction
        lead = next(c for c in col if c % p)
        inv = pow(lead, p - 2, p)
        x0 = tuple(c * inv % p for c in col)
        # kernel membership: columns of the adjugate lie in ker(q_u)
        m00, m01, m02, m11, m12, m22 = block
        if any((a * x0[0] + b * x0[1] + c * x0[2]) % p for a, b, c in
               ((m00, m01, m02), (m01, m11, m12), (m02, m12, m22))):
            raise AssertionError(f"adjugate column outside ker(q_u) at {u}")
        # Jacobian rank <= 1: (x0^T q_k x0)_k proportional to grad f(u)
        s = [sum(x0[i] * qk[k][i][j] * x0[j] for i in range(3) for j in range(3))
             for k in range(3)]
        if not _dependent(g, s, p):
            raise GenericityError(
                f"Jacobian rank 2 at curve point {u} mod {p}: "
                "kernel direction not aligned with grad f"
            )
        found.append((u, x0))
    return found


# ---------------------------------------------------------------------------
# stabilizer tables
# ---------------------------------------------------------------------------

# group is "Clambda" or "G"; subgroup is trivial, Z2_lambda, Z2_s or Z2xZ2
StabilizerDescriptor = namedtuple(
    "StabilizerDescriptor", "group y_plus_zero y_minus_zero subgroup elements")


def _act_G(s, lam, point):
    u, yp, ym = point
    return (
        tuple(lam * lam * c for c in u),
        lam ** 3 * yp,
        s * lam ** 3 * ym,
    )


_G_LABELS = {
    frozenset({(1, 1)}): "trivial",
    frozenset({(1, 1), (-1, -1)}): "Z2_lambda",
    frozenset({(1, 1), (-1, 1)}): "Z2_s",
    frozenset({(1, 1), (1, -1)}): "Z2_lambda",
    frozenset({(1, 1), (1, -1), (-1, 1), (-1, -1)}): "Z2xZ2",
}


def _group_row(group, g_row):
    """The table row of group from G's row g_row: g_row itself for G, and
    for Cλ, the s = 1 slice, the λ of each element (1, λ) of g_row."""
    if group == "G":
        return g_row
    if group != "Clambda":
        raise ValueError("group must be 'Clambda' or 'G'")
    lams = tuple(lam for s, lam in g_row.elements if s == 1)
    return StabilizerDescriptor(group, g_row.y_plus_zero, g_row.y_minus_zero,
                                "Z2_lambda" if len(lams) == 2 else "trivial",
                                lams)


def stabilizer(y_plus_zero, y_minus_zero, group):
    """Closed-form stabilizer table.  The scaling action is
    (s, λ)·(u, y₊, y₋) = (λ²u, λ³y₊, sλ³y₋) with λ forced to ±1 by
    λ²u = u, u ≠ 0; the Cλ case is the s = 1 slice."""
    if y_plus_zero and y_minus_zero:
        elems = ((1, 1), (1, -1), (-1, 1), (-1, -1))
        label = "Z2xZ2"
    elif y_plus_zero:
        # y₋ ≠ 0 needs sλ³ = 1, so the nontrivial element is (−1,−1)
        elems = ((1, 1), (-1, -1))
        label = "Z2_lambda"
    elif y_minus_zero:
        # y₊ ≠ 0 needs λ = 1; s is free
        elems = ((1, 1), (-1, 1))
        label = "Z2_s"
    else:
        elems = ((1, 1),)
        label = "trivial"
    return _group_row(group, StabilizerDescriptor(
        "G", y_plus_zero, y_minus_zero, label, elems))


def stabilizer_bruteforce(y_plus_zero, y_minus_zero, group,
                          sample=None):
    """Enumerate (s, λ) ∈ {±1}² on an integer sample point and keep the
    fixers; the authoritative companion to the closed-form table."""
    if sample is None:
        sample = ((1, 2, 3), 0 if y_plus_zero else 5, 0 if y_minus_zero else 7)
    u, yp, ym = sample
    if not any(u):
        raise ValueError("sample must have u != 0")
    if (yp == 0) != y_plus_zero or (ym == 0) != y_minus_zero:
        raise ValueError("sample does not realize the requested case")
    fixers = tuple(sorted(((s, lam) for s in (1, -1) for lam in (1, -1)
                           if _act_G(s, lam, sample) == sample), reverse=True))
    return _group_row(group, StabilizerDescriptor(
        "G", y_plus_zero, y_minus_zero, _G_LABELS[frozenset(fixers)], fixers))
