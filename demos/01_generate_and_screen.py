"""Generate an invariant pencil and screen it for genericity.

An instance is a pair of symmetric-matrix triples (Q0, Q1, Q2) per side;
each side gives a cubic f(u) = det(u1 Q0 + u2 Q1 + u3 Q2) cutting a plane
curve.  The generator rejection-samples until both curves are smooth,
meet transversally in nine points, and the pencil never drops two ranks.
"""

from quadclif.pencil import generate, genericity_check, resultant_nine_points


def main():
    P = generate(seed=42, coeff_bound=5)
    print("instance digest:", P.digest())
    print("q_plus blocks:")
    for m in P.q_plus:
        print("   ", m)

    curves = P.det_curves()
    print("f_plus  =", curves.f_plus)
    print("f_minus =", curves.f_minus)

    # smooth curves (nonzero discriminants) also give rank >= 4 (corank <= 1
    # along the curves), and nine transverse points are a squarefree
    # degree-9 resultant; the report carries the exact values behind both
    rep = genericity_check(P)
    print("smooth:", rep.e_plus_smooth and rep.e_minus_smooth,
          "| nine transverse points:", rep.nine_points)
    for w in rep.witnesses:
        if w["kind"] == "discriminant":
            print(f"Delta_{w['side']} = {w['delta']}")

    nine, degree, center, notes = resultant_nine_points(curves.f_plus,
                                                        curves.f_minus)
    print(f"resultant from center {center}: degree {degree}, "
          f"squarefree (nine points) {nine}")
    for note in notes:
        print("   note:", note)


if __name__ == "__main__":
    main()
