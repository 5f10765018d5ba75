"""Certify the fiber algebras off the curves at once, and on a curve point.

Away from the determinant curves the specialized even Clifford algebra
is a full 4x4 matrix algebra over the two-root field Q(sqrt f+, sqrt f-);
each side splits as M2 x M2 once one root is adjoined (the side is its
4-dimensional even part C0 tensored with Q[x]/(x^2 - f(u))).  Both claims
hold at every point off the curves, from one certificate over Z[u] per
side: the Gram matrix G of C0's trace form has det G = c*f^2, the Gram
matrix G_c of its three commutators has det G_c = c'*f^4, with c and c'
nonzero, and the odd central element d is central with d^2 = f.  On a
corank-1 curve point the quotient by the radical is a single M2.  The
curve point lies over the cubic field of a line section that a small
prime proves irreducible, and certifies its three conjugate points at
once.  All certificates are exact: polynomial identities, traces and
dimension counts.
"""

from quadclif.fiber import (
    SideFibers,
    corank1_quotient,
    cubic_section_point,
    even_certificate,
)
from quadclif.pencil import generate


def main():
    P = generate(seed=42, coeff_bound=5)
    sides = SideFibers(P)
    for side in ("plus", "minus"):
        ok, wit = even_certificate(sides, side)
        print(f"side {side}: c = {wit['c']}, c' = {wit['c_prime']}")
        print(f"  det G = c*f^2: {wit['det_G_is_c_f2']},"
              f" det G_c = c'*f^4: {wit['det_Gc_is_c_prime_f4']}")
        print(f"  d odd {wit['d_odd']}, maps even to odd"
              f" {wit['d_maps_even_to_odd']}, central {wit['d_central']},"
              f" d^2 = f {wit['d_square_is_f']}")
        print(f"  certified: M2 x M2 wherever f_{side} != 0" if ok
              else "  not certified")
    print("so the 16-dimensional fiber is M4 wherever f_plus*f_minus != 0")

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
