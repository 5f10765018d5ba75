"""Certify the fiber algebras point by point.

Away from the determinant curves the specialized even Clifford algebra
is a full 4x4 matrix algebra over the two-root field Q(sqrt f+, sqrt f-);
each side splits as M2 x M2 once one root is adjoined (the side is its
4-dimensional even part tensored with Q[x]/(x^2 - f(u))), and on a corank-1
curve point the quotient by the radical is a single M2.  Off the curves
each verdict is read off the even parts C0 over Q, after checking at the
point that the side fiber is C0 tensor Q[x]/(x^2 - f(u)); the root fields
are only named.  The curve point lies over the cubic field of a line
section that a small prime proves irreducible, and certifies its three
conjugate points at once.  All certificates are exact: traces and
dimension counts over the field.
"""

from quadclif.fiber import (
    SideFibers,
    certify_ordinary_m4,
    certify_side_split,
    corank1_quotient,
    cubic_section_point,
    sample_invertible_points,
)
from quadclif.pencil import _derived_rng, generate


def main():
    P = generate(seed=42, coeff_bound=5)
    rng = _derived_rng("demo", P.digest(), "points")

    sides = SideFibers(P)
    u = sample_invertible_points(P, rng, 1)[0]
    field, verdict = certify_ordinary_m4(sides, u)
    print(f"off-curve point u = {u}")
    print("  field:", field.name)
    print("  full even algebra:", verdict)

    for side in ("plus", "minus"):
        field, verdict = certify_side_split(sides, side, u)
        print(f"  side {side} over {field.name}:", verdict)
        C0, even = sides.even(side, u)
        print(f"    even part C0 over Q: dim {C0.dim}, {even}")

    for side in ("plus", "minus"):
        (base, direction), p, K, pt = cubic_section_point(P, side)
        Q, verdict = corank1_quotient(sides, side, pt, K)
        print(f"side {side}: line {base} + t*{direction}, section "
              f"g = {list(K.section)} (low degree first), irreducible mod {p}")
        print(f"  curve point {tuple(str(c) for c in pt)} over {K.name}:"
              f" radical quotient is {verdict} (dim {Q.dim}),"
              f" for 3 conjugate points")


if __name__ == "__main__":
    main()
