"""Finite-field certificates for the determinant curves, plus the
group-action stabilizer tables.

Each curve is swept once over P²(F_p), line by line: on each of the p + 1
lines the cubic collapses to a univariate of degree ≤ 3, whose roots are
read from per-prime tables instead of evaluating it at all p points.  The
lookup is exact because, for p ≠ 2, 3:
- b = t - A/3 depresses a monic cubic b³ + Ab² + Bb + C to t³ + Pt + Q
  (Tschirnhaus), so one table indexed by (P, Q) covers every cubic line;
- one root t₁ deflates it to t² + t₁t + (t₁² + P) (Vieta), and quadratics
  are solved by the quadratic formula from a square-root table;
- the tables are complete: every (P, Q) with a root receives one, which a
  count against the number of reducible depressed cubics checks.
On the chart lines (1, a, ·) the b³ coefficient is the u3³ coefficient,
the same on every line, since u3³ is the only monomial of degree ≤ 3 in
which u3 has exponent 3.  When it is a unit mod p, s = A/3, P and Q are
polynomials in a of degrees ≤ 1, 2 and 3, computed once per curve, so all
p table keys are read in one pass.  Every root found is re-checked by
Horner.  One pass along the curve points then builds each block M once
and reads from its adjugate the kernel column and, by Jacobi's formula
∂ₖ det M = tr(adj M·Qₖ), the gradient of f = det M.  That is enough: a
singular point of the curve satisfies f = 0, off the curve the block is
invertible, and two curves meet exactly at the points their two sweeps
share.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property


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


# Root tables by prime, oldest first.  They depend on p alone and nothing
# writes to them, so one cache serves every curve of the process.  They are
# built on first use and kept for at most MAX_PRIMES primes and MAX_PRIME²
# cubic-table entries (2 MiB) at a time: `gen` keeps its three small ones,
# and a check over many large primes, which sweeps both sides of one prime
# in a row, holds one at a time.
_ROOT_TABLES = {}


def _build_root_tables(p):
    """(first, sqrt, inv) for F_p: first[P·p + Q] is the smallest root of
    t³ + Pt + Q and sqrt[a] the smallest square root of a, each -1 where
    there is none, and inv[a] = a⁻¹ (inv[0] = 0)."""
    first = array("h", [-1]) * (p * p)
    for t in range(p - 1, -1, -1):
        q = -t * t * t % p
        for row in range(0, p * p, p):
            first[row + q] = t
            q = (q - t) % p
    sqrt = array("h", [-1]) * p
    for r in range(p - 1, -1, -1):
        sqrt[r * r % p] = r
    return first, sqrt, [0] + [pow(a, p - 2, p) for a in range(1, p)]


def _root_tables(p):
    """The root tables of F_p, built once per prime and checked complete:
    for p ≠ 3, a depressed cubic t³ + Pt + Q is irreducible for exactly
    (p² - 1)/3 pairs (P, Q), since t ↦ t + c moves the t² coefficient
    by 3c and so meets each trace class of the (p³ - p)/3 irreducible monic
    cubics equally often; so (2p² + 1)/3 entries of `first` hold a root.
    Likewise (p + 1)/2 residues have a square root."""
    tables = _ROOT_TABLES.get(p)
    if tables is None:
        from .pencil import MAX_PRIME, MAX_PRIMES  # pencil imports this module

        if p < 5:
            raise ScanError("root tables need p >= 5")
        while _ROOT_TABLES and (
                len(_ROOT_TABLES) >= MAX_PRIMES
                or p * p + sum(q * q for q in _ROOT_TABLES) > MAX_PRIME ** 2):
            del _ROOT_TABLES[next(iter(_ROOT_TABLES))]
        tables = _build_root_tables(p)
        first, sqrt, _ = tables
        if (p * p - first.count(-1) != (2 * p * p + 1) // 3
                or p - sqrt.count(-1) != (p + 1) // 2):
            raise AssertionError(f"root tables for F_{p} miss a root")
        _ROOT_TABLES[p] = tables
    return tables


def _line_roots(dense, p, tables):
    """The roots in F_p of d0 + d1·b + d2·b² + d3·b³, dense = [d0, .., d3],
    in increasing order, all of F_p if it vanishes mod p; each root is
    re-checked by Horner.

    A cubic is made monic, b³ + Ab² + Bb + C, and depressed by b = t - s,
    s = A/3 (p ≠ 3), to t³ + Pt + Q with P = B - 3s² and Q = 2s³ - Bs + C.
    Given one root t₁ from the table, Vieta deflates it to
    t² + t₁t + (t₁² + P), and quadratics are solved by the quadratic
    formula (p ≠ 2) with the square-root table."""
    first, sqrt, inv = tables
    d0, d1, d2, d3 = (d % p for d in dense)
    if d3:
        i = inv[d3]
        B, C, s = d1 * i % p, d0 * i, d2 * i * inv[3] % p
        P = (B - 3 * s * s) % p
        t = first[P * p + (2 * s * s * s - B * s + C) % p]
        if t < 0:
            return ()
        ts = {t}
        r = sqrt[(-3 * t * t - 4 * P) % p]
        if r >= 0:
            ts.update(((r - t) * inv[2] % p, (-r - t) * inv[2] % p))
        roots = sorted({(x - s) % p for x in ts})
    elif d2:
        r = sqrt[(d1 * d1 - 4 * d2 * d0) % p]
        if r < 0:
            return ()
        i = inv[2 * d2 % p]
        roots = sorted({(r - d1) * i % p, (-r - d1) * i % p})
    elif d1:
        roots = [-d0 * inv[d1] % p]
    else:
        return () if d0 else range(p)
    for b in roots:
        if (((d3 * b + d2) * b + d1) * b + d0) % p:
            raise AssertionError(f"root table gave a non-root {b} mod {p}")
    return roots


def _chart_zeros(d, d3, p, tables):
    """The zeros (1, a, b) of Σ d[k][j]·aʲ·bᵏ, for d3 = d[3][0] a unit mod
    p, in enumeration order: `_line_roots` on all p chart lines at once,
    with s, P and Q polynomials in a (see `_zero_set`)."""
    first, sqrt, inv = tables
    i = inv[d3]
    s0, s1 = (c * i * inv[3] % p for c in d[2][:2])
    B0, B1, B2 = (c * i % p for c in d[1][:3])
    C0, C1, C2, C3 = (c * i % p for c in d[0])
    # P = B - 3s² and Q = 2s³ - Bs + C, coefficient by coefficient in a
    P0, P1, P2 = (B0 - 3 * s0 * s0) % p, (B1 - 6 * s0 * s1) % p, (B2 - 3 * s1 * s1) % p
    Q0 = (2 * s0 * s0 * s0 - B0 * s0 + C0) % p
    Q1 = (6 * s0 * s0 * s1 - B0 * s1 - B1 * s0 + C1) % p
    Q2 = (6 * s0 * s1 * s1 - B1 * s1 - B2 * s0 + C2) % p
    Q3 = (2 * s1 * s1 * s1 - B2 * s1 + C3) % p
    keys = [first[((P2 * a + P1) * a + P0) % p * p
                  + (((Q3 * a + Q2) * a + Q1) * a + Q0) % p] for a in range(p)]
    (e20, e21, _, _), (e10, e11, e12, _), (e00, e01, e02, e03) = d[2], d[1], d[0]
    half = inv[2]
    zeros = []
    for a, t in enumerate(keys):
        if t < 0:
            continue
        s = s1 * a + s0
        r = sqrt[(-3 * t * t - 4 * ((P2 * a + P1) * a + P0)) % p]
        if r < 0:
            roots = ((t - s) % p,)
        else:
            roots = sorted({(t - s) % p, ((r - t) * half - s) % p,
                            ((-r - t) * half - s) % p})
        c2, c1 = e21 * a + e20, (e12 * a + e11) * a + e10
        c0 = ((e03 * a + e02) * a + e01) * a + e00
        for b in roots:
            if (((d3 * b + c2) * b + c1) * b + c0) % p:
                raise AssertionError(f"root table gave a non-root {b} mod {p}")
            zeros.append((1, a, b))
    return zeros


def _zero_set(compiled, p):
    """All points of P²(F_p) where the compiled polynomial (degree ≤ 3)
    vanishes, in enumeration order ((1, a, b), then (0, 1, c), then
    (0, 0, 1)).  This is the one sweep of P²(F_p).

    On the chart line (1, a, ·) the polynomial is the cubic
    f(1, a, b) = d3·b³ + d2(a)·b² + d1(a)·b + d0(a) with deg dₖ ≤ 3 - k:
    a term c·u1^e1·u2^e2·u3^e3 adds c·a^e2 to d_e3, and e2 + e3 ≤ 3.  So
    d3, the u3³ coefficient, is the same on every chart line.  When it is
    a unit mod p, the monic depressed quantities of `_line_roots` are
    polynomials in a, computed once per curve:
    - s(a) = d2(a)/(3·d3), of degree ≤ 1;
    - P(a) = B(a) - 3s(a)², of degree ≤ 2, with B = d1/d3;
    - Q(a) = 2s(a)³ - B(a)s(a) + C(a), of degree ≤ 3, with C = d0/d3.
    All p table keys P(a)·p + Q(a) are read by Horner in a, and only the
    lines whose key holds a root are deflated as in `_line_roots`; each
    root is re-checked by Horner on the line's dense cubic.  When
    d3 ≡ 0 mod p, each chart line goes through `_line_roots`, which also
    solves the line (0, 1, ·).  A line where f vanishes contributes all p
    points.  The sweep is exhaustive because the lines (1, a, ·) and
    (0, 1, ·) and the point (0, 0, 1) partition P²(F_p) and the tables
    are complete.
    """
    if max(sum(e) for e, _ in compiled) > 3:
        raise ScanError("sweep supports degree <= 3 only")
    tables = _root_tables(p)
    # d[k][j]: the coefficient of aʲ·bᵏ on the chart lines (1, a, b)
    d = [[0] * 4 for _ in range(4)]
    for (e1, e2, e3), c in compiled:
        d[e3][e2] += c
    d3 = d[3][0] % p
    if d3:
        zeros = _chart_zeros(d, d3, p, tables)
    else:
        zeros = []
        for a in range(p):
            dense = [((dk[3] * a + dk[2]) * a + dk[1]) * a + dk[0] for dk in d]
            zeros.extend((1, a, b) for b in _line_roots(dense, p, tables))
    dense = [0, 0, 0, 0]
    for (e1, e2, e3), c in compiled:
        if e1 == 0:
            dense[e3] += c
    zeros.extend((0, 1, c) for c in _line_roots(dense, p, tables))
    # f(0, 0, 1) is the coefficient of the pure power of u3
    if sum(c for (e1, e2, _), c in compiled if not e1 and not e2) % p == 0:
        zeros.append((0, 0, 1))
    return zeros


def curve_points(f, p):
    return _zero_set(compile_poly(f, p), p)


class ReducedCurve:
    """The curve f = 0 reduced mod p: its compiled polynomial (ScanError if
    f vanishes mod p), and, each computed once on first use, its points in
    P²(F_p) in enumeration order and one pass along them, which needs the
    symmetric blocks mats with f = det Σ uₖ mats[k].

    InvariantPencil.reduced_curve keeps one per (side, p), so every scan of
    one run reads the same sweep and the same pass."""

    def __init__(self, f, p, mats=None):
        self.f = f
        self.p = p
        self.coeffs = None if mats is None else _upper_coeffs(mats)
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
        p, coeffs = self.p, self.coeffs
        if coeffs is None:
            raise ValueError("curve was reduced without its block matrices")
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
    """Points of a ReducedCurve where the gradient also vanishes.  An
    empty list certifies smoothness of the reduction mod p."""
    return [pt for pt, g in zip(curve.points, curve.gradients) if not any(g)]


def ff_scan_transversal(plus, minus):
    """Common points of two ReducedCurves (same p) where the 2×3 gradient
    matrix has rank ≤ 1, in the order of plus's points.  The common points
    are those both sweeps found.  Empty list = transverse intersection mod p."""
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


def ff_scan_corank(P, p):
    """Max corank of the 3×3 blocks along E±(F_p), read off each curve's
    pass: corank 1 where the adjugate has a kernel column; where it
    vanishes the rank is ≤ 1, and 0 only for the zero block.  Value 1
    certifies that the 6×6 forms keep rank ≥ 4 along the scanned locus;
    off the curves the blocks are invertible."""
    coranks = (1 if col is not None else 2 if any(block) else 3
               for curve in (P.reduced_curve(s, p) for s in ("plus", "minus"))
               for block, col in zip(curve.blocks, curve.kernel_columns))
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
    pass, which is re-verified to lie in ker(q_u) at each returned point.
    The Jacobian rank ≤ 1 condition holds by construction: at corank 1,
    adj = λ·x₀x₀ᵀ with λ ≠ 0, and the pass's gradient is Jacobi's
    gₖ = tr(adj·Qₖ) = λ·x₀ᵀQₖx₀ = λ·sₖ; its minors test is a consistency
    re-check of the pass.
    """
    curve = P.reduced_curve(side, p)
    grads = curve.gradients
    qk = P.side_mats(side)
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
