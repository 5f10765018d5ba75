"""Invariant nets of quadrics on a six-dimensional space split as V+ ⊕ V−.

An instance is a pair of pencils of symmetric integer 3×3 matrices
(q_plus[k], q_minus[k] for k = 1..3); the induced 6×6 form at u is the
block-diagonal sum, so its determinant factors as f_plus·f_minus with
f_± = det(Σ uₖ q_±[k]) plane cubics.  Random instances are accepted only
when they are generic over Q̄: smooth cubics (a nonzero discriminant Δ±,
see `ternary_quadric_resultant`), which also gives corank ≤ 1 along the
curves, and nine distinct transverse intersection points (a squarefree
degree-9 resultant).

The binary form R = Res_u3(f₊, f₋) of degree 9, projected from the first
usable center of `CENTERS`, is interpolated over Z from ten integer
resultants of cubics R(t, 1), t = 0..9 (Collins, J. ACM 18 (1971); von zur
Gathen and Gerhard, *Modern Computer Algebra*, Ch. 6), and is squarefree
iff Res(R(t, 1), R′(t, 1)) ≠ 0: one integer routine per job, and no seed.
This module holds exact facts only; the F_p scan witnesses live in `checks`.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from collections import namedtuple
from math import comb

from .exactalg import (
    ZZ,
    PolyRing,
    bareiss_det,
    int_coeffs,
    interpolate_int,
    squarefree_univariate,
    sylvester_resultant,
)

U_VARS = ("u1", "u2", "u3")
URING = PolyRing(ZZ, U_VARS)

# The largest accepted coeff_bound, loaded or generated: it bounds every
# entry, hence the digits of Δ± and the resultant, so the runtime of a
# check and the integers its report prints.
MAX_COEFF_BOUND = 10**6

# The draws generate makes before it gives up on a (seed, coeff_bound).
MAX_ATTEMPTS = 50


def det_cubic(mats):
    """det(Σ uₖ mats[k]) as a cubic form over Z.  The determinant is linear
    in each column, and column c of Σ uₖ mats[k] is Σ uₖ·(column c of
    mats[k]), so det(Σ uₖ mats[k]) = Σ_{i,j,k} uᵢuⱼuₖ·det[xᵢ, yⱼ, zₖ] with
    xᵢ, yⱼ, zₖ columns 0, 1, 2 of mats[i], mats[j], mats[k]: 27 integer
    3×3 determinants, each the triple product xᵢ·(yⱼ × zₖ)."""
    x, y, z = ([tuple(r[c] for r in m) for m in mats] for c in range(3))
    acc = {}
    for j, k in itertools.product(range(3), repeat=2):
        (y0, y1, y2), (z0, z1, z2) = y[j], z[k]
        cross = (y1 * z2 - y2 * z1, y2 * z0 - y0 * z2, y0 * z1 - y1 * z0)
        for i in range(3):
            exps = tuple((i == v) + (j == v) + (k == v) for v in range(3))
            acc[exps] = acc.get(exps, 0) + sum(a * b for a, b in zip(x[i], cross))
    return URING.from_terms(acc.items())


_QUADRATIC = ((2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2))
# _PAIR[j][k]: the index of uⱼuₖ in _QUADRATIC
_PAIR = [[_QUADRATIC.index(tuple((j == v) + (k == v) for v in range(3)))
          for k in range(3)] for j in range(3)]


def ternary_quadric_resultant(q0, q1, q2):
    """Δ = det[q0, q1, q2, J_u1, J_u2, J_u3] for three integer quadratic
    forms in u1, u2, u3, each row read on the six quadratic monomials,
    where J = det(∂qᵢ/∂uⱼ) is their Jacobian determinant, a cubic.

    Δ is a nonzero constant times the resultant Res(q0, q1, q2), the
    classical formula for three ternary quadrics (Cox, Little and O'Shea,
    *Using Algebraic Geometry*, GTM 185, Ch. 3 §2; Sturmfels, *Solving
    Systems of Polynomial Equations*, CBMS 97, Ch. 4); the constant is
    Δ(u1², u2², u3²) = ±8³.  So Δ = 0 iff q0, q1, q2 have a common zero
    in P²(Q̄).  Applied to the partials of a cubic f, Δ(f) is the
    discriminant: by Euler's formula 3f = Σ uₖ·∂ₖf, a common zero of the
    partials lies on f, so f is smooth over Q̄ iff Δ ≠ 0; J is then the
    Hessian determinant of f."""
    qs = [int_coeffs(q.terms.get(e, 0) for e in _QUADRATIC) for q in (q0, q1, q2)]
    if any(sum(e) != 2 for q in (q0, q1, q2) for e in q.terms):
        raise ValueError("need quadratic forms")
    # ∂ⱼq is the linear form Σₖ (1 + [j = k])·c(uⱼuₖ)·uₖ, and mats[k][i][j]
    # is its uₖ coefficient for q = qᵢ
    mats = [[[(1 + (j == k)) * q[_PAIR[j][k]] for j in range(3)] for q in qs]
            for k in range(3)]
    J = det_cubic(mats)
    rows = qs + [[g.get(e, 0) for e in _QUADRATIC]
                 for g in (J.derivative(v).terms for v in U_VARS)]
    return bareiss_det(rows)


def discriminant(f):
    """Δ(f) of a ternary cubic form: the resultant of its partials."""
    return ternary_quadric_resultant(*(f.derivative(v) for v in U_VARS))


class GenerationError(Exception):
    """Raised when rejection sampling exhausts its attempt budget."""


def _check_sym3(mats, label):
    """Three symmetric 3×3 integer matrices, or ValueError naming the
    first block, matrix or row that is not a list of three."""
    def triple(x, name, what):
        if not isinstance(x, (list, tuple)) or len(x) != 3:
            got = len(x) if isinstance(x, (list, tuple)) else type(x).__name__
            raise ValueError(f"{name} must be a list of 3 {what}, not {got}")
        return x

    for k, m in enumerate(triple(mats, label, "matrices")):
        for i, r in enumerate(triple(m, f"{label}[{k}]", "rows")):
            triple(r, f"{label}[{k}][{i}]", "entries")
        for i in range(3):
            for j in range(3):
                if type(m[i][j]) is not int:  # bool is an int subclass
                    raise ValueError(f"{label} entries must be integers")
                if m[i][j] != m[j][i]:
                    raise ValueError(f"{label} matrices must be symmetric")


def _freeze(mats):
    return tuple(tuple(tuple(r) for r in m) for m in mats)


class InvariantPencil:
    """A net of quadrics invariant under the involution fixing V+ and
    negating V−, stored as the two 3×3 blocks of the three coordinate
    forms.  Immutable: equality and hash read the four fields, and
    `det_curves` keeps its memo beside them in `__dict__`."""

    FIELDS = ("q_plus", "q_minus", "seed", "coeff_bound")

    def __init__(self, q_plus, q_minus, seed, coeff_bound):
        _check_sym3(q_plus, "q_plus")
        _check_sym3(q_minus, "q_minus")
        q_plus, q_minus = _freeze(q_plus), _freeze(q_minus)
        if type(seed) is not int or type(coeff_bound) is not int:
            raise ValueError("seed and coeff_bound must be integers")
        if coeff_bound < 0:
            raise ValueError("coeff_bound must be nonnegative")
        if coeff_bound > MAX_COEFF_BOUND:
            raise ValueError(f"coeff_bound must be at most {MAX_COEFF_BOUND}, "
                             f"got {coeff_bound}")
        for mats in (q_plus, q_minus):
            for m in mats:
                for r in m:
                    for x in r:
                        if abs(x) > coeff_bound:
                            raise ValueError("entry exceeds coeff_bound")
        self.__dict__.update(q_plus=q_plus, q_minus=q_minus, seed=seed,
                             coeff_bound=coeff_bound)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _key(self):
        return self.q_plus, self.q_minus, self.seed, self.coeff_bound

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return "InvariantPencil(" + ", ".join(
            f"{k}={v!r}" for k, v in zip(self.FIELDS, self._key())) + ")"

    # -- symbolic views ------------------------------------------------------

    def side_mats(self, side):
        if side == "plus":
            return self.q_plus
        if side == "minus":
            return self.q_minus
        raise ValueError("side must be 'plus' or 'minus'")

    def block_at(self, u, side):
        """3×3 matrix Σ uₖ q[k] at a point u ≠ 0, over u's ring (ints
        at an integer point, linear forms at URING's variables)."""
        if not any(u):
            raise ValueError("u must be nonzero")
        mats = self.side_mats(side)
        return tuple(
            tuple(sum(u[k] * mats[k][i][j] for k in range(3)) for j in range(3))
            for i in range(3)
        )

    def det_curves(self):
        """Both determinant cubics, computed once per instance (the
        pencil is frozen, so they never change)."""
        curves = self.__dict__.get("_det_curves")
        if curves is None:
            curves = DetCurves(f_plus=det_cubic(self.q_plus),
                               f_minus=det_cubic(self.q_minus))
            self.__dict__["_det_curves"] = curves
        return curves

    # -- persistence -----------------------------------------------------------

    def to_json_dict(self):
        return {
            "seed": self.seed,
            "coeff_bound": self.coeff_bound,
            "q_plus": [[list(r) for r in m] for m in self.q_plus],
            "q_minus": [[list(r) for r in m] for m in self.q_minus],
        }

    def canonical_bytes(self):
        return (
            json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))
            + "\n"
        ).encode()

    def digest(self):
        return hashlib.sha256(self.canonical_bytes()).hexdigest()

    @classmethod
    def from_json_dict(cls, d):
        if not isinstance(d, dict):
            raise ValueError("malformed instance data: the top level must be "
                             "a JSON object")
        unknown = sorted(set(d).difference(cls.FIELDS))
        if unknown:
            raise ValueError(f"malformed instance data: unknown key {unknown[0]}")
        try:
            return cls(**{k: d[k] for k in cls.FIELDS})
        except KeyError as exc:
            raise ValueError(
                f"malformed instance data: missing key {exc.args[0]}") from None
        except TypeError as exc:
            raise ValueError(f"malformed instance data: {exc}") from exc


class DetCurves(namedtuple("DetCurves", "f_plus f_minus")):
    __slots__ = ()

    def side(self, side):
        """The determinant cubic of one block."""
        if side == "plus":
            return self.f_plus
        if side == "minus":
            return self.f_minus
        raise ValueError("side must be 'plus' or 'minus'")


class GenericityReport(namedtuple(
        "GenericityReport",
        "e_plus_smooth e_minus_smooth nine_points witnesses notes",
        defaults=((),))):
    """The exact verdicts of `genericity_check`: rank ≥ 4 is e_plus_smooth
    and e_minus_smooth, and transversality is nine_points."""

    __slots__ = ()

    def all_ok(self):
        return self.e_plus_smooth and self.e_minus_smooth and self.nine_points


def _derived_rng(*parts):
    h = hashlib.sha256(":".join(str(p) for p in parts).encode()).digest()
    return random.Random(int.from_bytes(h[:8], "big"))


def _random_sym3(rng, bound):
    m = [[0] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(i, 3):
            m[i][j] = m[j][i] = rng.randint(-bound, bound)
    return tuple(tuple(r) for r in m)


def generate(seed, coeff_bound):
    """Seeded rejection sampling: draw integer pencils until the genericity
    suite passes.  Deterministic in (seed, coeff_bound)."""
    if coeff_bound < 1:
        raise ValueError("coeff_bound must be >= 1")
    for attempt in range(MAX_ATTEMPTS):
        rng = _derived_rng("gen", seed, coeff_bound, attempt)
        P = InvariantPencil(
            q_plus=tuple(_random_sym3(rng, coeff_bound) for _ in range(3)),
            q_minus=tuple(_random_sym3(rng, coeff_bound) for _ in range(3)),
            seed=seed,
            coeff_bound=coeff_bound,
        )
        if genericity_check(P).all_ok():
            return P
    raise GenerationError(
        f"no generic pencil after {MAX_ATTEMPTS} attempts "
        f"(seed={seed}, coeff_bound={coeff_bound})"
    )


# -- resultant certificate ----------------------------------------------------


# (0:0:1), then five centers (c₁ : c₂ : 1) with c₁c₂ ≠ 0, no three collinear
CENTERS = ((0, 0, 1), (1, 1, 1), (1, -1, 1), (2, 1, 1), (-1, 2, 1), (2, 3, 1))


def binary_resultant(f_plus, f_minus, center):
    """Coefficients [r0, ..., r9] of R_c = Res_u3(f₊∘M, f₋∘M) = Σ rᵢ·u1ⁱ·u2⁹⁻ⁱ
    for integer cubic forms f±, with M = [[1, 0, c₁], [0, 1, c₂], [0, 0, c₃]]
    the coordinate change u ↦ M·u sending (0:0:1) to the center c; None when
    c lies on a curve, seen before any determinant: the u3³ coefficient of
    f∘M is f(M·e₃) = f(c).  Exact, by evaluation and interpolation (Collins,
    J. ACM 18 (1971); von zur Gathen and Gerhard, *Modern Computer Algebra*,
    Ch. 6): f±(c) ≠ 0 are constants, so setting (u1, u2) = (t, 1) keeps both
    degrees in u3 and commutes with the Sylvester determinant, and
    R_c(t, 1) = Res_x(f₊(t + c₁x, 1 + c₂x, c₃x), f₋(…)) is a resultant of
    two integer cubics in x (their coefficients, polynomials in t, come from
    the binomial expansion of f's terms); R_c has degree 9, so its values
    at t = 0..9 fix it, and `interpolate_int` checks every division.  So
    R_c = 0 iff all ten values vanish, and deg R_c = 9 whenever R_c ≠ 0."""
    c1, c2, c3 = center
    if not c3:
        raise ValueError("need a center off the line u3 = 0")
    sections = []
    for f in (f_plus, f_minus):
        g = [[0] * 4 for _ in range(4)]  # g[k][a]: the coefficient of tᵃxᵏ
        for (i, j, k), c in zip(f.terms, int_coeffs(f.terms.values())):
            if i + j + k != 3:
                raise ValueError("need cubic forms")
            for a, b in itertools.product(range(i + 1), range(j + 1)):
                g[i - a + j - b + k][a] += (c * comb(i, a) * comb(j, b) * c3 ** k
                                            * c1 ** (i - a) * c2 ** (j - b))
        if not g[3][0]:  # f(c)
            return None
        sections.append([[((gk[3] * t + gk[2]) * t + gk[1]) * t + gk[0] for gk in g]
                         for t in range(10)])
    return interpolate_int(
        [sylvester_resultant(a, b) for a, b in zip(*sections)])


def resultant_nine_points(f_plus, f_minus):
    """(nine_points, degree, center, notes): eliminates u3 from the two
    cubic forms and tests the resulting binary form for squarefreeness.  A
    squarefree degree-9 resultant certifies nine distinct intersection
    points, each of multiplicity one by Bézout, so transverse.  The
    CENTERS are tried in order, each move noted: the center moves when it
    lies on a curve, and when R is not squarefree, since a center lined up
    with two intersection points also gives a repeated root.  A tangency
    gives one from every center.  `center` is the last center projected
    from, None when every center lies on a curve."""
    notes = []
    degree, used = -1, None
    for attempt, center in enumerate(CENTERS):
        if attempt:
            notes.append(f"coordinate change ({reason})")
        h = binary_resultant(f_plus, f_minus, center)
        if h is None:
            reason = "projection center on a curve"
            continue
        if not any(h):
            return False, -1, center, tuple(notes + ["resultant identically zero"])
        # u2^k ∥ R means a k-fold root at (1:0), and h = R(t, 1) carries the
        # other roots, with degree 9 − k.  So R is squarefree iff k ≤ 1 and
        # R(t, 1) is squarefree.
        while not h[-1]:
            h.pop()
        if len(h) >= 9 and squarefree_univariate(h):
            return True, 9, center, tuple(notes)
        degree, used, reason = 9, center, "resultant not squarefree"
    if degree < 0:
        notes.append("no usable projection center")
    return False, degree, used, tuple(notes)


def genericity_check(P):
    """The exact genericity verdicts over Q̄, each with the witness that
    decides it, on PASS and on FAIL:
    - E± is smooth iff its discriminant Δ± ≠ 0 (`discriminant`), one
      `discriminant` witness per side with Δ as an integer;
    - the blocks have corank ≤ 1 everywhere, so the 6×6 forms have rank
      ≥ 4, when Δ₊Δ₋ ≠ 0: by Jacobi's formula ∂ₖ det M = tr(adj M·Qₖ)
      (Magnus and Neudecker, *Matrix Differential Calculus*, Ch. 8), and a
      block of corank ≥ 2 has adj M = 0, so it sits at a singular point;
    - the intersection is nine transverse points iff the degree-9
      resultant is squarefree (`resultant_nine_points`), one `resultant`
      witness with its center, degree and squarefree flag.
    A determinant cubic that vanishes identically has no Δ: its one
    witness is `degenerate_determinant`."""
    curves = P.det_curves()
    if curves.f_plus.is_zero() or curves.f_minus.is_zero():
        return GenericityReport(
            False, False, False, ({"kind": "degenerate_determinant"},),
            ("a determinant cubic vanishes identically",))
    witnesses = [{"kind": "discriminant", "side": side,
                  "delta": discriminant(curves.side(side))}
                 for side in ("plus", "minus")]
    nine, deg, center, notes = resultant_nine_points(curves.f_plus,
                                                     curves.f_minus)
    witnesses.append({"kind": "resultant",
                      "center": None if center is None else list(center),
                      "degree": deg, "squarefree": nine})
    return GenericityReport(
        e_plus_smooth=witnesses[0]["delta"] != 0,
        e_minus_smooth=witnesses[1]["delta"] != 0,
        nine_points=nine,
        witnesses=tuple(witnesses),
        notes=notes,
    )


def _parse_int(text):
    """A JSON integer; one too long for int() gets a plain ValueError."""
    try:
        return int(text)
    except ValueError:
        raise ValueError("malformed instance data: an integer with "
                         f"{len(text.lstrip('-'))} digits is too long") from None


def load_instance(path):
    with open(path, "rb") as fh:
        try:
            data = json.loads(fh.read().decode(), parse_int=_parse_int)
        except RecursionError as exc:
            raise ValueError("JSON nested too deeply") from exc
    return InvariantPencil.from_json_dict(data)

