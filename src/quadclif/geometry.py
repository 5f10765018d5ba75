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
Every root found is re-checked by Horner.  Gradients and block adjugates
are only evaluated on curve points, which is enough: a singular point of
the curve satisfies f = 0 by definition, and off the curve the block is
invertible.
"""

from __future__ import annotations

from array import array
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


def _zero_set(compiled, p):
    """All points of P²(F_p) where the compiled polynomial (degree ≤ 3)
    vanishes, in enumeration order ((1, a, b), then (0, 1, c), then
    (0, 0, 1)).  This is the one sweep of P²(F_p).

    Each chart line is collapsed to a dense univariate in its last
    coordinate, whose roots come from the root tables of F_p
    (`_line_roots`); a line where it vanishes contributes all p points.
    The sweep is exhaustive because the lines (1, a, ·) and (0, 1, ·) and
    the point (0, 0, 1) partition P²(F_p) and the tables are complete.
    """
    deg3 = max(sum(e) for e, _ in compiled)
    if deg3 > 3:
        raise ScanError("sweep supports degree <= 3 only")
    tables = _root_tables(p)
    zeros = []
    for a in range(p):
        pa = (1, a, a * a % p, a * a % p * a % p)
        dense = [0, 0, 0, 0]
        for (e1, e2, e3), c in compiled:
            dense[e3] += c * pa[e2]
        zeros.extend((1, a, b) for b in _line_roots(dense, p, tables))
    dense = [0, 0, 0, 0]
    for (e1, e2, e3), c in compiled:
        if e1 == 0:
            dense[e3] += c
    zeros.extend((0, 1, c) for c in _line_roots(dense, p, tables))
    if eval_compiled(compiled, (0, 0, 1), p) == 0:
        zeros.append((0, 0, 1))
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
