"""Isotropic lines on the split six-dimensional quadric.

The two Segre families of the model quadric are certified symbolically:
membership of each family plane, the spanning identities, and the rank-3
matrix M0 whose kernel line tracks the moving point.  On an instance,
the adjugate of a degenerate block drops to a certified double line, and
the generator matrices of the rank-2 module satisfy the six Clifford
relations and are traceless, which makes isotropic lines and module lines
correspond one to one.
"""

from quadclif.checks import CheckContext
from quadclif.exactalg import evaluator
from quadclif.pencil import _derived_rng, generate
from quadclif.plucker import (
    adjugate_double_line,
    clifford_relations,
    m0_matrix_symbolic,
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
    value = evaluator((2, 3, 5, 7))
    for row in rows:
        print("   ", [str(value(c)) for c in row])

    P = generate(seed=42, coeff_bound=5)
    rng = _derived_rng("demo", P.digest(), "geometry")
    _, _, K, pt = cubic_section_point(P, "plus")
    verdict, line = adjugate_double_line(P, "plus", pt, K)
    print(f"adjugate at curve point {tuple(str(c) for c in pt)} over {K.name}:")
    print(f"  {verdict}, line {tuple(str(c) for c in line)}")

    u = sample_invertible_points(P, rng, 1)[0]
    rep = module_rep(CheckContext(P), "plus", u)
    relations, traceless = clifford_relations(rep.matrices, rep.block,
                                              rep.tower)
    print(f"rank-2 module at u = {u} over {rep.tower.name}")
    print(f"  Clifford relations {relations}/6, traceless generators "
          f"{traceless}/3")


if __name__ == "__main__":
    main()
