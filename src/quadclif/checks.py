"""Named verification checks with a fixed id vocabulary.

Each check id names one verified claim about an instance (or, for the
model-quadric identities, the stabilizer tables and the Clifford claims
read off the generic engines alone, no instance at all).
Results carry JSON-ready witnesses and are deterministic for a given
(instance, flags) pair; only the timing field varies between runs.
The genericity and section-4 curve checks take their verdicts from the
exact discriminants and resultant (`pencil.genericity_check`), and their
witnesses carry Δ₊, Δ₋ and the resultant's center, degree and squarefree
flag on PASS and on FAIL; each names its certificate in a summary entry.
The finite-field sweeps, run here at the fixed SCAN_PRIMES, are F_p
witnesses, and every witness with a "prime" key is one: a sweep sees only
F_p-points.  Each check runs the scans whose witnesses it prints, on the
run's shared reduced curves.  One rule covers every scan: a sweep that
cannot run at a prime (`geometry.ScanError`: the curve or one of its
partials vanishes mod p, so p divides Δ) gives a witness, never a crash,
and a witness that contradicts an exact verdict, which only bad
reduction can cause, carries a note naming the prime (`noted`).
"""

from __future__ import annotations

import time
from collections import namedtuple

from . import geometry
from .clifford import (
    CliffordAlgebra,
    block_point,
    central_odd,
    commutant_basis,
    defining_relations,
    lift,
    lift_swapped,
    terms_homogeneous,
)
from .exactalg import evaluator
from .fiber import corank1_quotient, even_certificate, sample_invertible_points
from .pencil import U_VARS, URING, _derived_rng, genericity_check
from .plucker import (
    A_VARS,
    M0_CUBE_MINORS,
    SEGRE_MINOR,
    adjugate_double_line,
    clifford_relations,
    m0_identity_check,
    module_rep,
    segre_identity_check,
    transform_identity_check,
)

# The primes of the F_p witness scans; prop4.2 reads the first.
SCAN_PRIMES = (101, 103, 107)

# Off-curve points: prop4.2 reads the first three and prop4.7 the first,
# so at most three are drawn.  Larger --points values are refused.
MAX_POINTS = 200

# The checks that read no instance: the generic Clifford claims, the
# stabilizer tables and the model-quadric identities.
INSTANCE_FREE = frozenset({
    "prop3.5-grading", "prop3.19-equivariance", "prop3.9-phi",
    "prop2.3-stabilizers", "prop2.8-stabilizers",
    "prop4.8-m0-matrix", "prop4.9-segre",
})


class CheckResult(namedtuple("CheckResult", "id status witnesses seconds")):
    """One check's outcome; status is pass, fail or skipped."""

    __slots__ = ()

    def to_json_dict(self):
        return {
            "id": self.id,
            "status": self.status,
            "witnesses": self.witnesses,
            "seconds": round(self.seconds, 6),
        }


def _plain(x):
    """Flatten witnesses to plain JSON types with deterministic text."""
    if x is None or isinstance(x, (bool, int, str, float)):
        return x
    if isinstance(x, dict):
        return {str(k): _plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    return str(x)


class CheckContext:
    """Shared state for one verification run: the instance, the flag
    values, and one store (`cached`) so every shared artifact is computed
    once per run: the reduced curves (`curve`, the one memo every F_p scan
    reads), the exact genericity report (`genericity`), the sampled
    fiber points, the generic engine of each Clifford variant (`block`),
    its proof (`algebra`), the odd central element (`central`) and the
    even-part certificate.  The fiber and plucker functions take the
    context first and read only P, algebra and central from it."""

    def __init__(self, P=None, points=20):
        self.P = P
        self.points = int(points)
        if self.points < 1:
            raise ValueError("points must be >= 1")
        if self.points > MAX_POINTS:
            raise ValueError(f"points must be at most {MAX_POINTS}, got {self.points}")
        self._cache = {}

    def rng(self, label):
        tag = self.P.digest() if self.P is not None else "no-instance"
        return _derived_rng("check", tag, label)

    def cached(self, key, fn):
        if key not in self._cache:
            self._cache[key] = fn()
        return self._cache[key]

    def curve(self, side, p):
        """E_side reduced mod p, built once per run, so every scan of the
        run reads one sweep of P²(F_p) and one pass along the curve.  The
        ScanError of a cubic that vanishes mod p is kept too."""
        def reduce():
            try:
                return geometry.ReducedCurve(self.P.det_curves().side(side),
                                             self.P.side_mats(side), p)
            except geometry.ScanError as exc:
                return exc

        curve = self.cached(("curve", side, p), reduce)
        if isinstance(curve, Exception):
            raise geometry.ScanError(*curve.args)
        return curve

    def genericity(self):
        """The exact genericity report; each check adds its own scans."""
        return self.cached("genericity", lambda: genericity_check(self.P))

    def block(self, variant):
        """The generic engine of one of the three VARIANTS, built once."""
        return self.cached(("block", variant),
                           lambda: CliffordAlgebra.generic(variant))

    def central(self):
        """The CentralOddResult of the generic plus side, built once and
        read without its proof; d₋ is its image under a ↔ b
        (clifford.lift_swapped)."""
        return self.cached("central", lambda: central_odd(self.block("plus")))

    def algebra(self, variant):
        """The generic engine of one variant, proven once per run; a failing
        step raises, naming the step, in every check that reads the algebra.

        The plus side is proven associative by verify_associativity with
        structure constants in Z[a], which the ring maps a ↦ q(u) and
        evaluation at a point carry to every instance and fiber, either
        block's.  A six-generator variant is proven the tensor product of
        the proven plus side and its image under a ↔ b
        (verify_tensor_product), hence associative and integral."""
        def prove():
            alg = self.block(variant)
            if variant == "plus":
                alg.verify_associativity()
                if not alg.integral_structure():
                    raise ValueError("non-integer structure constant")
            else:
                alg.verify_tensor_product(self.algebra("plus"))
            return alg

        return self.cached(("algebra", variant), prove)

    def fiber_points(self):
        """Off-curve base points shared by prop4.2 and prop4.7: the first
        min(points, 3) of the seeded sample, the only ones read."""
        return self.cached(
            "fiber-points",
            lambda: sample_invertible_points(
                self.P, self.rng("fiber-points"), min(self.points, 3)
            ),
        )


# ---------------------------------------------------------------------------
# genericity block
# ---------------------------------------------------------------------------

def noted(witness, holds, claim):
    """A scan witness, noted as bad reduction at its prime when it
    contradicts an exact claim that holds over Q."""
    if holds:
        witness["note"] = f"bad reduction mod {witness['prime']}: {claim} over Q"
    return witness


def _degenerate(ctx):
    """Whether a determinant cubic vanishes identically: then there is no
    curve to scan and no point off it to sample."""
    return any(ctx.P.det_curves().side(side).is_zero() for side in ("plus", "minus"))


def _check_smoothness(ctx):
    """The verdict is _curve_verdict's.  Per scan prime and side, the
    singular F_p-points, or a curve vanishing mod p.  A singular F_p-point
    makes p divide Δ, so one that contradicts the verdict is `noted`."""
    ok, wit, smooth = _curve_verdict(ctx)
    for p in () if _degenerate(ctx) else SCAN_PRIMES:
        for side in ("plus", "minus"):
            claim = f"Delta_{side} != 0"
            try:
                bad = geometry.ff_scan_smooth(ctx.curve(side, p))
            except geometry.ScanError:
                wit.append(noted({"kind": f"e_{side}_vanishes_mod_p", "prime": p,
                                  "point": None}, smooth[side], claim))
                continue
            wit.extend(noted({"kind": f"e_{side}_singular", "prime": p,
                              "point": list(pt)}, smooth[side], claim) for pt in bad)
    wit.append({"certificate": "exact discriminants",
                "scan_primes": list(SCAN_PRIMES)})
    return ok, wit


def _check_transversality(ctx):
    """The verdict is the squarefree resultant's.  Per scan prime, the
    tangencies among the common F_p-points; none where a gradient scan
    cannot run (ScanError), as a vanishing partial breaks only those."""
    rep = ctx.genericity()
    wit = [w for w in rep.witnesses if w["kind"] == "resultant"]
    for p in () if _degenerate(ctx) else SCAN_PRIMES:
        try:
            tang = geometry.ff_scan_transversal(ctx.curve("plus", p),
                                                ctx.curve("minus", p))
        except geometry.ScanError:
            tang = ()
        wit.extend(noted({"kind": "tangency", "prime": p, "point": list(pt)},
                         rep.nine_points, "the resultant is squarefree")
                   for pt in tang)
    wit.append({"certificate": "exact resultant", "notes": list(rep.notes),
                "scan_primes": list(SCAN_PRIMES)})
    return rep.nine_points, wit


def _check_rank4(ctx):
    """The verdict is Δ₊Δ₋ ≠ 0 (`pencil.genericity_check`).  Per scan
    prime, the max corank along both curves when it is not 1, read as 3
    where a curve vanishes mod p."""
    rep = ctx.genericity()
    ok = rep.e_plus_smooth and rep.e_minus_smooth
    wit = [w for w in rep.witnesses if w["kind"] == "discriminant"]
    for p in () if _degenerate(ctx) else SCAN_PRIMES:
        try:
            mc = geometry.ff_scan_corank(ctx.curve("plus", p),
                                         ctx.curve("minus", p))
        except geometry.ScanError:
            mc = 3
        if mc != 1:
            wit.append(noted({"kind": "corank", "prime": p, "point": None,
                              "value": mc}, ok, "Delta_plus * Delta_minus != 0"))
    wit.append({"certificate": "exact discriminants", "max_corank_allowed": 1,
                "scan_primes": list(SCAN_PRIMES)})
    return ok, wit


def _check_nine_points(ctx):
    rep = ctx.genericity()
    wit = [w for w in rep.witnesses if w["kind"] == "resultant"]
    wit.append({"certificate": "exact resultant", "notes": list(rep.notes)})
    return rep.nine_points, wit


# ---------------------------------------------------------------------------
# graded-algebra block
# ---------------------------------------------------------------------------

def _check_grading(ctx):
    """Generic relations homogeneous in minus parity and in weight (a word's
    length plus twice its coefficient's degree); a ↦ q(u) keeps both, as
    q(u) is linear in u."""
    wit = []
    for variant in ("ordinary", "super"):
        alg = ctx.algebra(variant)
        rels = defining_relations(alg)
        wit.append({"variant": variant, "certificate": "generic", "relations": len(rels),
                    "inhomogeneous": sum(not terms_homogeneous(alg, r)
                                         for r in rels)})
    return all(w["inhomogeneous"] == 0 for w in wit), wit


def _check_equivariance(ctx):
    """Every relation scales by one scalar under the action at λ = 2 and
    s = ±1 (generators pick up λ, the negated block also s, and a picks
    up λ²).  A term of weight w and minus parity p scales by 2^w·s^p, and
    2^w separates weights, so a relation scales by one scalar for both
    signs iff all its terms share weight and minus parity: iff it is
    homogeneous, the count prop3.5-grading reads."""
    ok, grading = _check_grading(ctx)
    return ok, [{"variant": w["variant"], "certificate": "generic",
                 "single_scalar": w["inhomogeneous"] == 0,
                 "tested_at": {"lambda": 2, "s": [1, -1]}} for w in grading]


def _check_phi(ctx):
    """phi multiplicative on every even basis pair.  The two algebras are
    proven tensor products of the same sides with cross signs −1 and +1
    (CheckContext.algebra), so every super product is the ordinary one
    times (−1)^(|a₋|·|b₊|), and clifford.phi_exponent absorbs that sign:
    for even a and b, δ = ε(a) + ε(b) − ε(m) is 2 exactly when ε(a) = ε(b)
    = 1, that is when |a₋| and |b₊| are odd (the sign rule, which the tests
    prove on all 1,024 even pairs).  So no pair fails once the algebras
    are built; what is left is the pair d₊, d₋."""
    sup6, ord6 = ctx.algebra("super"), ctx.algebra("ordinary")
    even = [m for m in range(64) if bin(m).count("1") % 2 == 0]
    d = ctx.central().element
    dps, dms = lift(d, sup6, "plus"), lift_swapped(d, sup6)
    dpo, dmo = lift(d, ord6, "plus"), lift_swapped(d, ord6)
    anti = (dps * dms + dms * dps).is_zero()
    comm = (dpo * dmo - dmo * dpo).is_zero()
    wit = [{"certificate": "generic", "pairs": len(even) ** 2,
            "scales": ["1", "i"],
            "super_pair_anticommutes": anti,
            "ordinary_pair_commutes": comm}]
    return anti and comm, wit


def _d_square_check(ctx, side):
    """The generic d squares to +det M (central_odd), which a ↔ b carries
    to d₋, and det M under a ↦ q_side(u) (block_at at the generic point of
    Z[u]) is f_side as pencil.det_cubic computes it on its own."""
    res = ctx.central()
    q = ctx.P.block_at([URING.var(v) for v in U_VARS], side)
    special = (URING.zero() + evaluator(block_point(q))(res.det)
               == ctx.P.det_curves().side(side))
    wit = [{"side": side, "certificate": "generic", "sign": res.sign,
            "det_M_at_q_is_f": special, "solution": "unique monic"}]
    return res.sign == 1 and special, wit


# The integer points u₀ at which the center's commutator matrix is
# specialized, in order, and the masks where 1, d₊, d₋, d₊d₋ are diagonal.
CENTER_POINTS = ((1, 2, 3), (2, -1, 5))
CENTER_MASKS = (0, 0b111, 0b111000, 0b111111)


def _weight(e):
    """The weight (mask length plus twice the degree in a and b) of a
    homogeneous element, or None when its terms have several."""
    ws = {bin(m).count("1") + 2 * sum(x)
          for m, poly in e.coeffs.items() for x in poly.terms}
    return ws.pop() if len(ws) == 1 else None


def _check_center(ctx):
    """The center of the ordinary algebra A(u) over Z[u] is the free
    Z[u]-module on b₀..b₃ = 1, d₊, d₋, d₊d₋, of weights 0, 3, 3, 6, in
    every weight.  Off the curves it is the center K[d₊] ⊗ K[d₋] of
    C(q₊) ⊗ C(q₋), d±² = f± (Lam, Introduction to Quadratic Forms over
    Fields, GSM 67, Ch. V).  A(u) is the generic A under a ↦ q₊(u),
    b ↦ q₋(u), associative (CheckContext.algebra) and generated by
    v₁..v₆, so its center is the kernel of the commutator matrix C(u),
    6·64 × 64 over Z[u].

    1. Each bᵢ is central, with d± the blocks' odd central elements
       (prop3.12) lifted into A: d₊ commutes with the generators of the
       proven plus side (central_odd), d₋ = σ(d₊) with those of its image
       under σ: a ↔ b, and A is proven the tensor product C(M₊) ⊗ C(M₋) of
       the two (CheckContext.algebra), so d₊ ⊗ 1,
       1 ⊗ d₋ and their product are central, and so are their images.
    2. The coefficients of b₀..b₃ at CENTER_MASKS are computed to form a
       diagonal of ±1: the bᵢ are independent over Q(u), and a central z
       over Z[u] that is Σ aᵢbᵢ over Q(u) has each aᵢ = ±z at a mask, in Z[u].
    3. The center does not specialize (q = 0 has a larger one), so the
       instance enters here: C(u₀) is the generic matrix at
       a₀ = (q₊(u₀), q₋(u₀)) (`commutant_basis`).  A kernel of dimension 4
       there means rank 60: some 60×60 minor of C(u) is nonzero at u₀,
       hence nonzero, and rank C(u) ≥ 60 over Q(u).  So the center over
       Q(u) is span(b₀..b₃), over Z[u] free on them by 2.

    By 1 and 2 the kernel at any point has dimension at least 4; more
    means the point is special.  If no point of CENTER_POINTS gives 4,
    the check FAILs naming each point's dimension, claiming no center."""
    alg = ctx.algebra("ordinary")
    d = ctx.central().element
    dp, dm = lift(d, alg, "plus"), lift_swapped(d, alg)
    basis = (alg.one(), dp, dm, dp * dm)
    zero = alg.ring.zero()
    unit_diagonal = all(b.coeffs.get(m, zero) in ((1, -1) if i == j else (0,))
                        for i, b in enumerate(basis)
                        for j, m in enumerate(CENTER_MASKS))
    weights = [_weight(b) for b in basis]
    wit = [{"basis": ["1", "d_plus", "d_minus", "d_plus*d_minus"],
            "certificate": "generic", "weights": weights,
            "masks": list(CENTER_MASKS), "unit_diagonal": unit_diagonal}]
    for u in CENTER_POINTS:
        a0 = block_point(ctx.P.block_at(u, "plus"), ctx.P.block_at(u, "minus"))
        kernel = commutant_basis(alg, a0)
        wit.append({"point": list(u), "columns": 1 << alg.ngens,
                    "kernel_dim": len(kernel),
                    "top_masks": [max(m for m, x in enumerate(v) if x)
                                  for v in kernel]})
        if len(kernel) == len(basis):
            break
    return (unit_diagonal and weights == [0, 3, 3, 6]
            and wit[-1]["kernel_dim"] == len(basis)), wit


# ---------------------------------------------------------------------------
# fiber block
# ---------------------------------------------------------------------------

def _even_certificates(ctx, claim, locus):
    """(ok, witnesses): the generic even_certificate, built once per run,
    then the claim and its locus.  A cubic that vanishes identically leaves
    no point off the curve: FAIL with the degenerate_determinant witness."""
    if _degenerate(ctx):
        return False, list(ctx.genericity().witnesses)
    ok, cert = ctx.cached("even-certificate", lambda: even_certificate(ctx))
    return ok, [cert, {"claim": claim, "locus": locus}]


def _check_azumaya_m4(ctx):
    """The 16-dimensional ordinary fiber is an M4 form at every u with
    f₊(u)f₋(u) ≠ 0, from fiber.even_certificate over Z[a], which a ↦ q±(u)
    carries to both blocks, det M becoming f± (prop3.12).  So for a side A
    with f(u) ≠ 0, over a field K of characteristic 0:

    1. C₀(u) is a 4-dimensional subalgebra of A(u) with unit e_0, and A(u)
       is associative (CheckContext.algebra).
    2. det G(u) = c·f(u)² ≠ 0: the trace form of C₀(u) is nondegenerate,
       also over K̄.  The radical is a nilpotent ideal, so Tr L_{xy} = 0 for
       x in it: it lies in the form's kernel, and C₀(u) ⊗ K̄ is semisimple
       (Pierce, Associative Algebras, GTM 88: the trace form).
    3. det G_c(u) = c′·f(u)⁴ ≠ 0: C₀(u) ⊗ K̄ is not commutative.
    4. A 4-dimensional semisimple algebra over K̄ is M2(K̄) or the
       commutative K̄⁴ (Wedderburn's theorem, Pierce, GTM 88), so C₀(u) is
       an M2 form, with center K.
    5. d is odd, e_m·d is odd, d is central and d² = f: x ↦ x·d maps C₀(u)
       into the odd span with (x·d)·d = f(u)·x, so A(u) = C₀(u) ⊕ C₀(u)·d,
       and a ⊗ xᵏ ↦ a·dᵏ is an isomorphism C₀(u) ⊗ K[x]/(x² − f(u)) → A(u)
       (Lam, Introduction to Quadratic Forms over Fields, GSM 67, Ch. V §2).

    Over L = K(√f₊(u), √f₋(u)) the idempotents (1 + d/√f(u))/2 cut C₀,L out
    of each side, and the ordinary fiber, the tensor product of the two
    corners, is (C₀₊ ⊗ C₀₋) ⊗ L, a tensor product of M2 forms: an M4 form."""
    return _even_certificates(ctx, "M4", "f_plus*f_minus != 0")


def _check_split_m2(ctx):
    """Each side fiber is an M2 × M2 form at every u with f(u) ≠ 0: by
    _check_azumaya_m4 it is C₀(u) ⊗ E, E = K[x]/(x² − f(u)), and E = K × K
    over K(√f(u))."""
    return _even_certificates(ctx, "M2xM2", {"plus": "f_plus != 0",
                                             "minus": "f_minus != 0"})


def _check_corank1_m2(ctx):
    """The radical quotient of each side fiber is M2 over K̄ at every point
    of E₊ and E₋ over Q̄: Δ₊Δ₋ ≠ 0 puts every curve point at corank one
    (_curve_verdict), and fiber.corank1_quotient proves, over Z[a], the
    three identities from which its docstring derives the claim there,
    which a ↦ q±(u) carries to both blocks, det M becoming f± (prop3.12)."""
    ok, wit, _ = _curve_verdict(ctx)
    if not ok:
        return False, wit
    held, cert = corank1_quotient(ctx)
    wit.append(cert)
    wit.append({"claim": "M2 radical quotient",
                "locus": {"plus": "f_plus = 0", "minus": "f_minus = 0"},
                "identities": {"A": "w_j*v_k + v_k*w_j = -2*det(M)*delta_jk",
                               "B": "w_j^2 = -det(M)*adj(M)_jj",
                               "C": "adj(adj(M)) = det(M)*M"}})
    return held, wit


# ---------------------------------------------------------------------------
# stabilizer tables
# ---------------------------------------------------------------------------

def _stabilizer_check(group):
    def run(ctx):
        wit = []
        ok = True
        for yp in (False, True):
            for ym in (False, True):
                closed = geometry.stabilizer(yp, ym, group)
                brute = geometry.stabilizer_bruteforce(yp, ym, group)
                match = (closed.subgroup == brute.subgroup
                         and closed.elements == brute.elements)
                ok = ok and match
                wit.append({"y_plus_zero": yp, "y_minus_zero": ym,
                            "subgroup": closed.subgroup,
                            "elements": [list(e) if isinstance(e, tuple) else e
                                         for e in closed.elements],
                            "matches_bruteforce": match})
        return ok, wit

    return run


# ---------------------------------------------------------------------------
# section-4 geometry block
# ---------------------------------------------------------------------------

def _adjugate_scan(ctx, side, p):
    """Stratification of the adjugate over ℙ²(F_p), read off the curve's
    pass (ReducedCurve._pass states why): rank 3 at the p²+p+1 − |E(F_p)|
    points off the curve, a rank-one double line on it, and a violation
    at the first curve point where the adjugate vanishes."""
    curve = ctx.curve(side, p)
    for pt, col in zip(curve.points, curve.kernel_columns):
        if col is None:
            return None, list(pt)
    n = len(curve.points)
    return {"rank3": p * p + p + 1 - n, "double_line": n}, None


def _curve_verdict(ctx):
    """(ok, witnesses, smooth by side) of the section-4 curve claims, which
    Δ₊Δ₋ ≠ 0 certifies over Q̄.  For 3×3 matrices adj(adj M) = det(M)·M
    (Horn and Johnson, *Matrix Analysis*, Ch. 0; identity (C) of
    fiber.corank1_quotient, which prop3.18-corank1-m2 proves over Z[a]
    for both blocks), so rank adj M ≤ 1 on E;
    adj M = 0 means corank ≥ 2, hence a singular point of E by Jacobi's
    formula (`pencil.genericity_check`).  So with Δ ≠ 0 adj M has rank one
    on E, and each degenerate conic has one singular point, the kernel
    line spanned by adj M.  Δ = 0 (or f ≡ 0) leaves the claims uncertified."""
    rep = ctx.genericity()
    smooth = {"plus": rep.e_plus_smooth, "minus": rep.e_minus_smooth}
    wit = [w for w in rep.witnesses
           if w["kind"] in ("discriminant", "degenerate_determinant")]
    return smooth["plus"] and smooth["minus"], wit, smooth


def _check_adjugate(ctx):
    ok, wit, smooth = _curve_verdict(ctx)
    if _degenerate(ctx):
        return False, wit
    p = SCAN_PRIMES[0]
    for u in ctx.fiber_points()[:3]:
        for side in ("plus", "minus"):
            verdict, _ = adjugate_double_line(ctx.P, side, u)
            ok = ok and verdict == "rank3"
            wit.append({"point": list(u), "side": side, "field": "Q",
                        "verdict": verdict})
    for side in ("plus", "minus"):
        try:
            counts, at = _adjugate_scan(ctx, side, p)
            failure = {"violation_at": at}
        except geometry.ScanError as exc:
            counts, failure = None, {"violation": str(exc)}
        if counts is None:
            wit.append(noted({"side": side, "prime": p, **failure},
                             smooth[side], f"Delta_{side} != 0"))
            continue
        wit.append({"side": side, "prime": p,
                    "points_scanned": p * p + p + 1,
                    "rank3": counts["rank3"],
                    "double_lines": counts["double_line"]})
    wit.append({"certificate": "exact discriminants"})
    return ok, wit


def _check_singular_locus(ctx):
    """The verdict is _curve_verdict's.  At each scan prime the locus is
    read off the curve (geometry.singular_locus_C, one kernel line per
    curve point, or a raise at a corank-2 point, the violation)."""
    ok, wit, smooth = _curve_verdict(ctx)
    for side in ("plus", "minus"):
        for p in SCAN_PRIMES:
            try:
                curve = ctx.curve(side, p)
                geometry.singular_locus_C(curve)
            except (geometry.GenericityError, geometry.ScanError) as exc:
                wit.append(noted({"side": side, "prime": p, "violation": str(exc)},
                                 smooth[side], f"Delta_{side} != 0"))
                continue
            wit.append({"side": side, "prime": p,
                        "curve_points": len(curve.points)})
    wit.append({"certificate": "exact discriminants"})
    return ok, wit


def _check_annihilator(ctx):
    """Per side, the module at the first fiber point: the Clifford
    relations and traces of its generator matrices, counted from the
    matrices and the block (`relations` of 6, `traceless` of 3).

    The count is the verdict: the relations alone make w ↦ ker ρ(v_w) a
    bijection from isotropic lines to module lines (Lam, GSM 67, Ch. V).
    The fiber points have f(u) ≠ 0 (`sample_invertible_points`), so q_u is
    nondegenerate.  ρ is injective on V, since ρ(v_w) = 0 gives
    b(w, ·) = 0, so w = 0.  For isotropic w ≠ 0, ρ(v_w)² = −q(w) = 0 and
    ρ(v_w) ≠ 0, so its kernel is its image, a line.  For a module vector
    m ≠ 0, w ↦ ρ(v_w)m maps V onto at most two dimensions, so its kernel
    is nonzero; it is isotropic, as ρ(v_w)²m = −q(w)m, and a nondegenerate
    ternary form has no isotropic plane, so the kernel is a line.  The
    round trip of module lines is the oracle in the tests."""
    u = ctx.fiber_points()[0]
    wit = []
    for side in ("plus", "minus"):
        rep = module_rep(ctx, side, u)
        relations, traceless = clifford_relations(rep.matrices, rep.block,
                                                  rep.tower)
        wit.append({"side": side, "point": list(u), "field": rep.tower.name,
                    "relations": relations, "traceless": traceless})
    return all((w["relations"], w["traceless"]) == (6, 3) for w in wit), wit


def _check_m0(ctx):
    """M0(a) has rank exactly 3 at every a ≠ 0: plucker.m0_identity_check
    proves the kernel relation and the four cube minors over Z[a]."""
    cert = m0_identity_check()
    minors = {v: {"rows": list(ri), "cols": list(ci)}
              for v, (ri, ci) in zip(A_VARS, M0_CUBE_MINORS)}
    wit = [{"relation": "M0*(a1,a2,a3,-a0)^T = 0",
            "cube_minors": minors,
            "failures": list(cert.failures),
            "residual_sha256": cert.residual_sha256}]
    return cert.ok, wit


def _check_segre(ctx):
    """Both families lie in one isotropic plane, span(w1..w4), of rank
    exactly 3: plucker.segre_identity_check proves the kernel relation
    and the rank-3 minor over Z[a], and the Plücker transform identity
    carries the plane to the split quadric."""
    cert = segre_identity_check()
    transform = transform_identity_check()
    rows, cols = SEGRE_MINOR
    wit = [{"transform_identity": transform,
            "relation": "sum_j y_j*w_j = 0",
            "minor": {"rows": list(rows), "cols": list(cols)},
            "failures": list(cert.failures),
            "residual_sha256": cert.residual_sha256}]
    return cert.ok and transform, wit


# The check registry, in canonical report order.
_CHECK_FUNCS = {
    "prop2.2-smoothness": _check_smoothness,
    "prop2.2-transversality": _check_transversality,
    "def2.1-rank4": _check_rank4,
    "prop2.5-nine-points": _check_nine_points,
    "prop3.5-grading": _check_grading,
    "prop3.19-equivariance": _check_equivariance,
    "prop3.9-phi": _check_phi,
    "prop3.12-dplus-square": lambda ctx: _d_square_check(ctx, "plus"),
    "prop3.12-dminus-square": lambda ctx: _d_square_check(ctx, "minus"),
    "prop3.13-center": _check_center,
    "prop3.17-azumaya-m4": _check_azumaya_m4,
    "prop3.18-split-m2": _check_split_m2,
    "prop3.18-corank1-m2": _check_corank1_m2,
    "prop2.3-stabilizers": _stabilizer_check("Clambda"),
    "prop2.8-stabilizers": _stabilizer_check("G"),
    "prop4.2-adjugate-double-line": _check_adjugate,
    "prop4.3-singular-locus": _check_singular_locus,
    "prop4.7-annihilator": _check_annihilator,
    "prop4.8-m0-matrix": _check_m0,
    "prop4.9-segre": _check_segre,
}

CHECK_ORDER = tuple(_CHECK_FUNCS)


class UnknownCheckError(ValueError):
    pass


def run_single(ctx, check_id):
    if check_id not in _CHECK_FUNCS:
        raise UnknownCheckError(f"unknown check id: {check_id}")
    if ctx.P is None and check_id not in INSTANCE_FREE:
        raise ValueError(f"check {check_id} requires an instance")
    start = time.perf_counter()
    try:
        ok, witnesses = _CHECK_FUNCS[check_id](ctx)
        status = "pass" if ok else "fail"
    except Exception as exc:  # a crashed check is a failed check
        status = "fail"
        witnesses = [{"error": f"{type(exc).__name__}: {exc}"}]
    return CheckResult(
        id=check_id,
        status=status,
        witnesses=_plain(witnesses),
        seconds=time.perf_counter() - start,
    )


def run_all(ctx):
    return [run_single(ctx, cid) for cid in CHECK_ORDER]
