"""Certify the fiber algebras off the curves at once, and on a curve point.

Away from the determinant curves the specialized even Clifford algebra
is a full 4x4 matrix algebra over the two-root field Q(sqrt f+, sqrt f-);
each side splits as M2 x M2 once one root is adjoined (the side is its
4-dimensional even part C0 tensored with Q[x]/(x^2 - f(u))).  Both claims
hold at every point off the curves, from one certificate over Z[a] on the
generic block M = (a_ij), with f = det M: the Gram matrix G of C0's trace
form has det G = c*f^2, the Gram matrix G_c of its three commutators has
det G_c = c'*f^4, with c and c' nonzero constants, and the odd central
element d is central with d^2 = f.  On the curves, where
Delta_plus*Delta_minus != 0 makes every point corank one, the quotient by
the radical is a single M2 at every point, from three more identities over
Z[a]: with w_j = sum_i adj(M)_ij v_i, (A) w_j v_k + v_k w_j = -2 f delta_jk,
(B) w_j^2 = -f adj(M)_jj and (C) adj(adj M) = f M.  The normal form uses
only ring operations on M's entries, so the ring map a -> q(u) carries
every identity to both blocks of an instance, with det M becoming the
determinant cubic f+ or f- (demos/02 shows it for seed 42).  All
certificates are exact polynomial identities.
"""

from quadclif.checks import CheckContext
from quadclif.fiber import corank1_quotient, even_certificate
from quadclif.pencil import generate


def main():
    P = generate(seed=42, coeff_bound=5)
    ctx = CheckContext(P)
    ok, wit = even_certificate(ctx)
    print(f"generic block: c = {wit['c']}, c' = {wit['c_prime']}")
    print(f"  det G = c*f^2: {wit['det_G_is_c_f2']},"
          f" det G_c = c'*f^4: {wit['det_Gc_is_c_prime_f4']}")
    print(f"  d odd {wit['d_odd']}, maps even to odd"
          f" {wit['d_maps_even_to_odd']}, central {wit['d_central']},"
          f" d^2 = f {wit['d_square_is_f']}")
    print("certified: each side M2 x M2 wherever its f != 0, and the"
          " 16-dimensional fiber M4 wherever f_plus*f_minus != 0"
          if ok else "not certified")

    ok, wit = corank1_quotient(ctx)
    print("generic block: " + ", ".join(
        f"({k}) {wit[k]['held']}/{wit[k]['total']}" for k in "ABC"))
    print("certified: M2 radical quotient at every point of f_plus = 0 and"
          " f_minus = 0" if ok else "not certified")


if __name__ == "__main__":
    main()
