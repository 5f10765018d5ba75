"""Build the odd central elements of the two graded Clifford blocks.

Each 3-generator block carries a unique monic odd central element, the
antisymmetrised volume element d = v1 v2 v3 + q23 v1 - q13 v2 + q12 v3,
with d^2 = det(u . Q), the determinant cubic.  `central_odd` builds it
in closed form and verifies over Q[u] that it commutes with the
generators and squares to the determinant; this script prints the
coefficients r(u) = (q23, -q13, q12) and the verified square.
"""

from quadclif.clifford import (
    CliffordAlgebra,
    central_odd,
    central_pair,
    lift,
)
from quadclif.pencil import generate


def main():
    P = generate(seed=42, coeff_bound=5)
    curves = P.det_curves()

    results = {side: central_odd(CliffordAlgebra.from_pencil(P, side))
               for side in ("plus", "minus")}
    for side, f in (("plus", curves.f_plus), ("minus", curves.f_minus)):
        res = results[side]
        print(f"side {side}:")
        for i, r in enumerate(res.r_coeffs, start=1):
            print(f"    r{i}(u) =", r)
        print("    d^2 == f:", res.square == f, "| sign:", res.sign)

    pair = central_pair(results["plus"], results["minus"])
    sup = CliffordAlgebra.from_pencil(P, "super")
    ordn = CliffordAlgebra.from_pencil(P, "ordinary")
    dps, dms = lift(pair.d_plus, sup, "plus"), lift(pair.d_minus, sup, "minus")
    dpo, dmo = lift(pair.d_plus, ordn, "plus"), lift(pair.d_minus, ordn, "minus")
    print("super convention:    d+ d- + d- d+ = 0:",
          (dps * dms + dms * dps).is_zero())
    print("ordinary convention: d+ d- - d- d+ = 0:",
          (dpo * dmo - dmo * dpo).is_zero())


if __name__ == "__main__":
    main()
