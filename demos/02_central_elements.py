"""Build the odd central elements of the generic graded Clifford blocks.

A 3-generator block with symmetric matrix M = (a_ij) carries a unique
monic odd central element, the antisymmetrised volume element
d = v1 v2 v3 + a23 v1 - a13 v2 + a12 v3, with d^2 = det M.  `central_odd`
builds it in closed form and verifies over Z[a] that it commutes with the
generators and squares to det M; this script prints the coefficients
r = (a23, -a13, a12) and the verified square.  The normal form uses only
ring operations on the entries of M, so the block of an instance is the
image of the generic one under a -> q(u): the script then specializes
det M at a = q+(u) and a = q-(u) for the instance of seed 42 and shows
that it gives the determinant cubics f+ and f-, which the pencil computes
on its own.  Last, the two generic blocks side by side: the minus block,
over b = (b_ij), is the plus block under sigma: a <-> b, so d- is
sigma(d+) placed on the minus generators (`lift_swapped`), with
d-^2 = sigma(det M); d+ and d- anticommute in the super algebra and
commute in the ordinary one.
"""

from quadclif.clifford import (
    CliffordAlgebra,
    block_point,
    central_odd,
    lift,
    lift_swapped,
    swap_blocks,
)
from quadclif.exactalg import evaluator
from quadclif.pencil import U_VARS, URING, generate


def main():
    res = central_odd(CliffordAlgebra.generic("plus"))
    print("generic block M = (a_ij):")
    for i, r in enumerate(res.r_coeffs, start=1):
        print(f"    r{i} =", r)
    print("    d^2 =", res.square)
    print("    d^2 == det M:", res.square == res.det, "| sign:", res.sign)

    P = generate(seed=42, coeff_bound=5)
    u = [URING.var(v) for v in U_VARS]
    for side in ("plus", "minus"):
        special = URING.zero() + evaluator(block_point(P.block_at(u, side)))(res.det)
        print(f"seed 42, a = q_{side}(u): det M == f_{side}:",
              special == P.det_curves().side(side))

    sup = CliffordAlgebra.generic("super")
    ordn = CliffordAlgebra.generic("ordinary")
    dp = res.element
    dps, dms = lift(dp, sup, "plus"), lift_swapped(dp, sup)
    dpo, dmo = lift(dp, ordn, "plus"), lift_swapped(dp, ordn)
    print("d- = sigma(d+):", dmo)
    print("d-^2 == sigma(det M):", dmo * dmo == swap_blocks(res.det) * ordn.one())
    print("super convention:    d+ d- + d- d+ = 0:",
          (dps * dms + dms * dps).is_zero())
    print("ordinary convention: d+ d- - d- d+ = 0:",
          (dpo * dmo - dmo * dpo).is_zero())


if __name__ == "__main__":
    main()
