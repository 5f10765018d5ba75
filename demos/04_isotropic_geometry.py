"""Isotropic lines on the split six-dimensional quadric.

The two Segre families of the model quadric are certified symbolically:
membership of each family plane, the spanning identities, and the rank-3
matrix M0 whose kernel line tracks the moving point.  On an instance,
the adjugate of a degenerate block drops to a certified double line, and
annihilator lines round-trip through the rank-2 module representation.
"""

from quadclif.checks import CheckContext
from quadclif.pencil import _derived_rng, generate
from quadclif.plucker import (
    adjugate_double_line,
    annihilator_line,
    m0_matrix_symbolic,
    module_line_for,
    module_rep,
    segre_identity_check,
)
from quadclif.fiber import cubic_section_point, sample_invertible_points


def main():
    cert = segre_identity_check()
    print("segre families certified:", cert.ok)
    print("  residual hash:", cert.residual_sha256[:16], "...")

    rows, _ = m0_matrix_symbolic()
    print("M0 at a = (2,3,5,7):")
    for row in rows:
        print("   ", [str(c.eval((2, 3, 5, 7))) for c in row])

    P = generate(seed=42, coeff_bound=5)
    rng = _derived_rng("demo", P.digest(), "geometry")
    _, _, K, pt = cubic_section_point(P, "plus")
    verdict, line = adjugate_double_line(P, "plus", pt, K)
    print(f"adjugate at curve point {tuple(str(c) for c in pt)} over {K.name}:")
    print(f"  {verdict}, line {tuple(str(c) for c in line)}")

    u = sample_invertible_points(P, rng, 1)[0]
    rep = module_rep(CheckContext(P), "plus", u)
    print(f"rank-2 module at u = {u} over {rep.tower.name}")
    for m in ((1, 0), (1, 1), (2, -3)):
        w = annihilator_line(rep, m)
        back = module_line_for(rep, w)
        print(f"  line {m} -> isotropic w -> back "
              f"{tuple(str(c) for c in back)}")


if __name__ == "__main__":
    main()
