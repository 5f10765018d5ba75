"""Finite-field certificates for the determinant curves, plus the
group-action stabilizer tables.

Each curve is swept once, exhaustively over the p²+p+1 points of the
projective plane (a counter enforces this), with polynomial evaluation
compiled to integer arithmetic mod p.  Gradients and block adjugates are
only evaluated on curve points, which is enough: a singular point of the
curve satisfies f = 0 by definition, and off the curve the block is
invertible.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .exactalg import FpElem, adjugate3, mat_rank


class ScanError(Exception):
    """A scan precondition failed (e.g. the curve vanishes mod p)."""


class GenericityError(Exception):
    """The instance violates a genericity assumption (corank ≥ 2)."""


# ---------------------------------------------------------------------------
# point enumeration and compiled evaluation
# ---------------------------------------------------------------------------

def _reduce_coeff(c, p):
    c = Fraction(c)
    den = c.denominator % p
    if den == 0:
        raise ScanError(f"coefficient denominator divisible by {p}")
    return c.numerator * pow(den, p - 2, p) % p


def compile_poly(f, p):
    """Term list [(exps, coeff mod p)] with zero terms dropped; ScanError
    if the whole polynomial vanishes mod p."""
    terms = []
    for e, c in sorted(f.terms.items()):
        r = _reduce_coeff(c, p)
        if r:
            terms.append((e, r))
    if not terms:
        raise ScanError(f"polynomial vanishes identically mod {p}")
    return terms


def eval_compiled(terms, pt, p):
    acc = 0
    x, y, z = pt
    # power tables up to the small degrees that occur here
    px = (1, x, x * x % p, x * x % p * x % p)
    py = (1, y, y * y % p, y * y % p * y % p)
    pz = (1, z, z * z % p, z * z % p * z % p)
    for (e1, e2, e3), c in terms:
        acc += c * px[e1] % p * py[e2] % p * pz[e3]
    return acc % p


def _zero_set(compiled, p):
    """All points of P²(F_p) where the compiled polynomial vanishes, in
    enumeration order ((1, a, b), then (0, 1, c), then (0, 0, 1)); raises
    if the sweep missed a point.  This is the one loop over P²(F_p).

    On the affine charts the polynomial is collapsed to a dense univariate
    in the last coordinate (degree ≤ 3 here), so the inner loop is a Horner
    evaluation instead of a term-by-term one.
    """
    deg3 = max(sum(e) for e, _ in compiled)
    if deg3 > 3:
        raise ScanError("sweep supports degree <= 3 only")

    zeros = []
    visited = 0
    for a in range(p):
        pa = (1, a, a * a % p, a * a % p * a % p)
        dense = [0, 0, 0, 0]
        for (e1, e2, e3), c in compiled:
            dense[e3] += c * pa[e2]
        d3, d2, d1, d0 = (dense[3] % p, dense[2] % p,
                          dense[1] % p, dense[0] % p)
        for b in range(p):
            visited += 1
            if (((d3 * b + d2) * b + d1) * b + d0) % p == 0:
                zeros.append((1, a, b))
    dense = [0, 0, 0, 0]
    for (e1, e2, e3), c in compiled:
        if e1 == 0:
            dense[e3] += c
    d3, d2, d1, d0 = (dense[3] % p, dense[2] % p, dense[1] % p, dense[0] % p)
    for cc in range(p):
        visited += 1
        if (((d3 * cc + d2) * cc + d1) * cc + d0) % p == 0:
            zeros.append((0, 1, cc))
    visited += 1
    if eval_compiled(compiled, (0, 0, 1), p) == 0:
        zeros.append((0, 0, 1))
    if visited != p * p + p + 1:
        raise AssertionError("projective sweep missed points")
    return zeros


def curve_points(f, p):
    return _zero_set(compile_poly(f, p), p)


class ReducedCurve:
    """The curve f = 0 reduced mod p: its compiled polynomial (ScanError
    if f vanishes mod p), and, each computed once on first use, its points
    in P²(F_p) in enumeration order and its compiled gradient (ScanError
    if a nonzero partial derivative vanishes mod p; [] for a zero one).
    When f is the determinant of a block Σ uₖ mats[k], `kernel_columns`
    records the block's adjugate along those points.

    InvariantPencil.reduced_curve keeps one per (side, p), so every scan of
    one run reads the same sweep and the same adjugate pass."""

    def __init__(self, f, p, mats=None):
        self.f = f
        self.p = p
        self.coeffs = None if mats is None else _entry_coeffs(mats)
        self.compiled = compile_poly(f, p)

    @cached_property
    def points(self):
        return tuple(_zero_set(self.compiled, self.p))

    @cached_property
    def gradient(self):
        return tuple(compile_poly(g, self.p) if not g.is_zero() else []
                     for g in (self.f.derivative(v) for v in self.f.ring.vars))

    @cached_property
    def kernel_columns(self):
        """Per curve point, in order: the first nonzero column of the
        block's adjugate (integers, not reduced), or None where the
        adjugate vanishes mod p.

        No other point of P²(F_p) needs an adjugate: f ≡ det(block) mod p,
        since f is the block determinant and reduction is a ring map, so
        off the curve the block has rank 3 with nothing computed; on it
        det(block) ≡ 0 is re-checked at each point.  For a 3×3
        matrix, rank 2 ⇔ adj ≠ 0, and then rank adj = 1 (its columns span
        the kernel); adj = 0 ⇔ corank ≥ 2."""
        p, coeffs = self.p, self.coeffs
        if coeffs is None:
            raise ValueError("curve was reduced without its block matrices")
        cols = []
        for pt in self.points:
            m = _block_mod(coeffs, pt, p)
            adj = adjugate3(m)
            if det3_mod(m, p, adj):
                raise AssertionError("curve scan and block eval disagree")
            cols.append(next(
                ((adj[0][j], adj[1][j], adj[2][j]) for j in range(3)
                 if adj[0][j] % p or adj[1][j] % p or adj[2][j] % p),
                None))
        return tuple(cols)


def _eval_gradient(grads, pt, p):
    return [eval_compiled(g, pt, p) if g else 0 for g in grads]


# ---------------------------------------------------------------------------
# smoothness / transversality scans
# ---------------------------------------------------------------------------

def ff_scan_smooth(curve):
    """Points of a ReducedCurve where the gradient also vanishes.  An
    empty list certifies smoothness of the reduction mod p."""
    grads = curve.gradient
    return [pt for pt in curve.points
            if all((not g) or eval_compiled(g, pt, curve.p) == 0 for g in grads)]


def ff_scan_transversal(plus, minus):
    """Common points of two ReducedCurves (same p) where the 2×3 gradient
    matrix has rank ≤ 1.  Empty list = transverse intersection mod p."""
    p = plus.p
    if minus.p != p:
        raise ValueError("curves reduced at different primes")
    cm = minus.compiled
    gp, gm = plus.gradient, minus.gradient
    bad = []
    for pt in plus.points:
        if eval_compiled(cm, pt, p) != 0:
            continue
        a = _eval_gradient(gp, pt, p)
        b = _eval_gradient(gm, pt, p)
        minors = (
            a[0] * b[1] - a[1] * b[0],
            a[0] * b[2] - a[2] * b[0],
            a[1] * b[2] - a[2] * b[1],
        )
        if all(m % p == 0 for m in minors):
            bad.append(pt)
    return bad


# ---------------------------------------------------------------------------
# corank scans via the adjugate
# ---------------------------------------------------------------------------

def _entry_coeffs(mats):
    """For each (i, j), the coefficients (q₁[i][j], q₂[i][j], q₃[i][j])."""
    return tuple(tuple(zip(*rows)) for rows in zip(*mats))


def _block_mod(coeffs, pt, p):
    x, y, z = pt
    return [[(a * x + b * y + c * z) % p for a, b, c in row] for row in coeffs]


def det3_mod(m, p, adj):
    """det(m) mod p from the first column of its adjugate."""
    return (m[0][0] * adj[0][0] + m[0][1] * adj[1][0] + m[0][2] * adj[2][0]) % p


def rank_mod(m, p):
    """Rank over F_p of an integer matrix."""
    return mat_rank([[FpElem(x, p) for x in row] for row in m])


def ff_scan_corank(P, p):
    """Max corank of the 3×3 blocks along E±(F_p), read off each curve's
    adjugate pass (ReducedCurve.kernel_columns).  Value 1 certifies that
    the 6×6 forms keep rank ≥ 4 along the scanned locus; off the curves
    the blocks are invertible."""
    coranks = (1 if col is not None
               else 3 - rank_mod(_block_mod(curve.coeffs, pt, p), p)
               for curve in (P.reduced_curve(s, p) for s in ("plus", "minus"))
               for pt, col in zip(curve.points, curve.kernel_columns))
    return max(coranks, default=0)


# ---------------------------------------------------------------------------
# singular locus of the conic fibration
# ---------------------------------------------------------------------------

def singular_locus_C(P, side, p):
    """Singular points of the fibration {y² = f(u), q_u(x) = 0} over F_p.

    The 2×7 Jacobian in (u, y, x) has rows (−∇f, 2y, 0) and (x^T q_k x, 0,
    2 q_u x).  Off the curve, q_u is invertible so no fiber point is
    singular; with y ≠ 0 a rank drop would force q_u x = 0 with x ≠ 0,
    contradicting det q_u = y² ≠ 0.  So the sweep only needs u ∈ E(F_p) and
    the kernel direction x₀ of q_u, an adjugate column from the curve's
    adjugate pass; kernel membership and the Jacobian rank ≤ 1 condition
    are then re-verified honestly at each returned point.
    """
    curve = P.reduced_curve(side, p)
    grads = curve.gradient
    qk = P.side_mats(side)
    found = []
    for u, col in zip(curve.points, curve.kernel_columns):
        if col is None:
            raise GenericityError(f"corank >= 2 at {u} mod {p}")
        # normalize the kernel direction
        lead = next(c for c in col if c % p)
        inv = pow(lead, p - 2, p)
        x0 = tuple(c * inv % p for c in col)
        # kernel membership: columns of the adjugate lie in ker(q_u)
        m = _block_mod(curve.coeffs, u, p)
        if any(sum(m[i][j] * x0[j] for j in range(3)) % p for i in range(3)):
            raise AssertionError(f"adjugate column outside ker(q_u) at {u}")
        # Jacobian rank <= 1: (x0^T q_k x0)_k proportional to grad f(u)
        g = _eval_gradient(grads, u, p)
        s = [
            sum(x0[i] * qk[k][i][j] * x0[j] for i in range(3) for j in range(3)) % p
            for k in range(3)
        ]
        minors = (g[0] * s[1] - g[1] * s[0],
                  g[0] * s[2] - g[2] * s[0],
                  g[1] * s[2] - g[2] * s[1])
        if any(mi % p for mi in minors):
            raise GenericityError(
                f"Jacobian rank 2 at curve point {u} mod {p}: "
                "kernel direction not aligned with grad f"
            )
        found.append((u, x0))
    return found


# ---------------------------------------------------------------------------
# stabilizer tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StabilizerDescriptor:
    group: str  # "Clambda" or "G"
    y_plus_zero: bool
    y_minus_zero: bool
    subgroup: str  # trivial | Z2_lambda | Z2_s | Z2xZ2
    elements: tuple


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


def stabilizer(y_plus_zero, y_minus_zero, group):
    """Closed-form stabilizer table.  The scaling action is
    (s, λ)·(u, y₊, y₋) = (λ²u, λ³y₊, sλ³y₋) with λ forced to ±1 by
    λ²u = u, u ≠ 0; the Cλ case is the s = 1 slice."""
    if group == "Clambda":
        if y_plus_zero and y_minus_zero:
            return StabilizerDescriptor(group, y_plus_zero, y_minus_zero,
                                        "Z2_lambda", (1, -1))
        return StabilizerDescriptor(group, y_plus_zero, y_minus_zero,
                                    "trivial", (1,))
    if group == "G":
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
        return StabilizerDescriptor(group, y_plus_zero, y_minus_zero, label, elems)
    raise ValueError("group must be 'Clambda' or 'G'")


def stabilizer_bruteforce(y_plus_zero, y_minus_zero, group,
                          sample=None):
    """Enumerate (s, λ) ∈ {±1}² on a rational sample point and keep the
    fixers; the authoritative companion to the closed-form table."""
    if sample is None:
        sample = ((Fraction(1), Fraction(2), Fraction(3)),
                  Fraction(0) if y_plus_zero else Fraction(5),
                  Fraction(0) if y_minus_zero else Fraction(7))
    u, yp, ym = sample
    if not any(u):
        raise ValueError("sample must have u != 0")
    if (yp == 0) != y_plus_zero or (ym == 0) != y_minus_zero:
        raise ValueError("sample does not realize the requested case")
    if group == "Clambda":
        fixers = tuple(
            lam for lam in (1, -1)
            if _act_G(1, lam, sample) == sample
        )
        label = "trivial" if fixers == (1,) else "Z2_lambda"
        return StabilizerDescriptor(group, y_plus_zero, y_minus_zero, label, fixers)
    if group == "G":
        fixers = tuple(
            (s, lam)
            for s in (1, -1)
            for lam in (1, -1)
            if _act_G(s, lam, sample) == sample
        )
        fixers = tuple(sorted(fixers, reverse=True))
        label = _G_LABELS[frozenset(fixers)]
        return StabilizerDescriptor(group, y_plus_zero, y_minus_zero, label, fixers)
    raise ValueError("group must be 'Clambda' or 'G'")
