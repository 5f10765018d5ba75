"""Clifford engine: relations, grading, the even-part map, central elements,
and degree-bounded commutants."""

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from math import comb

import pytest

from quadclif.exactalg import QQ, PolyRing, PrimeField, SymMatrix
from quadclif.clifford import (
    CentralElementError,
    CliffordAlgebra,
    CliffordElement,
    U_VARS,
    action_scales_relation,
    central_odd,
    central_pair,
    commutant_basis,
    commutant_dims,
    defining_relations,
    equivariance_check,
    hilbert_dims_center,
    lift,
    phi,
    phi_exponent,
    phi_failing_pairs,
    phi_sign_rule_failures,
    phi_twist_failures,
    terms_homogeneous,
)
from quadclif.checks import CheckContext, run_single
from quadclif.pencil import InvariantPencil, generate

from conftest import QQI, cached_pencil, central_odd_by_ansatz, central_odd_pencil


def diag_pencil():
    e = lambda k: tuple(
        tuple(1 if (i == j == k) else 0 for j in range(3)) for i in range(3)
    )
    return InvariantPencil(q_plus=(e(0), e(1), e(2)), q_minus=(e(0), e(1), e(2)),
                           seed=0, coeff_bound=1)


def constant_value(poly):
    return poly.terms.get((0,) * len(poly.ring.vars), poly.ring.field.zero)


def anticommutator(x, y):
    return x * y + y * x


def random_element(alg, rng, nterms=3, max_u=1):
    acc = alg.zero()
    for _ in range(nterms):
        mask = rng.randrange(1 << alg.ngens)
        exps = tuple(rng.randint(0, max_u) for _ in range(3))
        coeff = rng.randint(-3, 3)
        acc = acc + alg.from_mask(mask, alg.ring.monomial(exps, coeff))
    return acc


# -- relations and products ----------------------------------------------------


def test_generator_relations_all_variants():
    P = cached_pencil(42)
    for variant in ("super", "ordinary", "plus", "minus"):
        alg = CliffordAlgebra.from_pencil(P, variant)
        for i in range(alg.ngens):
            vi = alg.gen(i)
            assert vi * vi == alg.from_mask(0, -alg.q_of(i, i))
            for j in range(i + 1, alg.ngens):
                vj = alg.gen(j)
                if alg._same_block(i, j):
                    assert vi * vj + vj * vi == alg.from_mask(0, alg.q_of(i, j) * -2)
                elif variant == "super":
                    assert vi * vj + vj * vi == alg.zero()
                else:
                    assert vi * vj - vj * vi == alg.zero()


@pytest.mark.parametrize("variant", ["super", "ordinary", "plus", "minus"])
def test_associativity_random(variant):
    P = cached_pencil(42)
    alg = CliffordAlgebra.from_pencil(P, variant)
    rng = random.Random(f"assoc-{variant}")
    for _ in range(6):
        a = random_element(alg, rng)
        b = random_element(alg, rng)
        c = random_element(alg, rng)
        assert (a * b) * c == a * (b * c)


def test_associativity_prime_field():
    P = cached_pencil(42)
    alg = CliffordAlgebra.from_pencil(P, "ordinary", field=PrimeField(101))
    rng = random.Random("assoc-fp")
    for _ in range(4):
        a = random_element(alg, rng)
        b = random_element(alg, rng)
        c = random_element(alg, rng)
        assert (a * b) * c == a * (b * c)


@pytest.mark.parametrize("side", ["plus", "minus"])
def test_symbolic_associativity_and_integrality(side):
    P = cached_pencil(42)
    alg = CliffordAlgebra.from_pencil(P, side)
    assert alg.verify_associativity()
    assert alg.integral_structure()
    # the long path on all 512 basis triples agrees
    for a in range(8):
        for b in range(8):
            ab = alg.basis_product(a, b)
            for c in range(8):
                assert ab * alg.from_mask(c) == alg.from_mask(a) * alg.basis_product(b, c)


def test_integral_structure_detects_fractions():
    R = PolyRing(QQ, U_VARS)
    u1 = R.var("u1")
    half = R.const(Fraction(1, 2))
    q = SymMatrix(R, [[u1 * half, R.zero(), R.zero()],
                      [R.zero(), u1, R.zero()],
                      [R.zero(), R.zero(), u1]])
    alg = CliffordAlgebra(R, "plus", q_plus=q)
    assert alg.verify_associativity()
    assert not alg.integral_structure()


def test_distributivity_and_scalars():
    P = cached_pencil(7)
    alg = CliffordAlgebra.from_pencil(P, "super")
    rng = random.Random("dist")
    a, b, c = (random_element(alg, rng) for _ in range(3))
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c
    u1 = alg.ring.var("u1")
    assert (u1 * a) * b == u1 * (a * b)
    assert a * 1 == a and a * 0 == alg.zero()
    assert 2 * a == a + a


def test_algebra_mismatch_rejected():
    P = cached_pencil(42)
    a = CliffordAlgebra.from_pencil(P, "super").gen(0)
    b = CliffordAlgebra.from_pencil(P, "ordinary").gen(0)
    with pytest.raises(ValueError):
        a * b


# -- bidegrees ----------------------------------------------------------------


@dataclass(frozen=True)
class BiDegree:
    parity: int
    weight: int

    def __add__(self, other):
        return BiDegree((self.parity + other.parity) % 2,
                        self.weight + other.weight)


def bidegree(e):
    """Common (parity, weight) of an element if homogeneous, else None.
    Generators weigh 1 (the negated ones carry parity 1), base variables
    weigh 2."""
    degs = set()
    for mask, poly in e.coeffs.items():
        pop = bin(mask).count("1")
        par = bin(mask & e.alg.minus_mask).count("1") & 1
        for exps in poly.terms:
            degs.add((par, pop + 2 * sum(exps)))
    return BiDegree(*degs.pop()) if len(degs) == 1 else None


def veronese_dims(variant, D):
    """Weight-space dimensions for n = 0..D, counting (generator mask,
    base monomial) basis pairs, plus the even-weight (degree-2 Veronese)
    slice."""
    if D > 12:
        raise ValueError("degree bound capped at 12")
    ngens = 6 if variant in ("super", "ordinary") else 3
    dims = [sum(comb(ngens, k) * comb((n - k) // 2 + 2, 2)
                for k in range(min(n, ngens) + 1) if (n - k) % 2 == 0)
            for n in range(D + 1)]
    return dims, dims[0::2]


def test_bidegree_examples():
    P = cached_pencil(42)
    alg = CliffordAlgebra.from_pencil(P, "super")
    u1 = alg.ring.var("u1")
    v1m = alg.gen(3)
    assert bidegree(v1m) == BiDegree(1, 1)
    # u1 * v1+ * v2-  has parity 1 and weight 1 + 1 + 2
    e = (u1 * alg.gen(0)) * alg.gen(4)
    assert bidegree(e) == BiDegree(1, 4)
    assert bidegree(alg.gen(0) + u1 * alg.one()) is None
    assert bidegree(u1 * alg.one()) == BiDegree(0, 2)
    assert BiDegree(1, 3) + BiDegree(1, 3) == BiDegree(0, 6)


def test_bidegree_additive_on_products():
    P = cached_pencil(42)
    alg = CliffordAlgebra.from_pencil(P, "super")
    rng = random.Random("bideg")
    for _ in range(20):
        ma = rng.randrange(64)
        mb = rng.randrange(64)
        ea = alg.from_mask(ma, alg.ring.monomial((rng.randint(0, 1), 0, 0), 1))
        eb = alg.from_mask(mb, alg.ring.monomial((0, rng.randint(0, 1), 0), 1))
        prod = ea * eb
        if prod.is_zero():
            continue
        d = bidegree(prod)
        assert d is not None
        assert d == bidegree(ea) + bidegree(eb)


def test_veronese_dims_frozen():
    dims, even = veronese_dims("super", 6)
    assert dims == [1, 6, 18, 38, 66, 102, 146]
    assert even == [1, 18, 66, 146]
    # independent recount of the weight-2 slice: 6 quadratic masks choose 2
    # generators, 3 base variables ride on the empty mask
    assert dims[2] == comb(6, 2) + 3
    dims3, _ = veronese_dims("plus", 3)
    assert dims3 == [1, 3, 6, 10]
    with pytest.raises(ValueError):
        veronese_dims("super", 13)


# -- the even-part map --------------------------------------------------------


def even_masks():
    return [m for m in range(64) if bin(m).count("1") % 2 == 0]


@pytest.fixture(scope="module")
def algebra_pair():
    """(super, ordinary) algebras by seed and coefficient field, built once
    for this module so that the phi oracles share their normal forms."""
    pairs = {}

    def get(seed, field=QQ):
        if (seed, field) not in pairs:
            P = cached_pencil(seed)
            pairs[seed, field] = (
                CliffordAlgebra.from_pencil(P, "super", field=field),
                CliffordAlgebra.from_pencil(P, "ordinary", field=field))
        return pairs[seed, field]

    return get


def test_phi_multiplicative_on_all_even_mask_pairs(algebra_pair):
    sup, ordi = algebra_pair(42, QQI)
    masks = even_masks()
    assert len(masks) == 32
    for ma in masks:
        fa = phi(sup.from_mask(ma), ordi)
        for mb in masks:
            fb = phi(sup.from_mask(mb), ordi)
            prod = sup.basis_product(ma, mb)
            assert phi(prod, ordi) == fa * fb


def _i_power(k):
    x = QQI.one
    for _ in range(k % 4):
        x = x * QQI.i
    return x


def _naive_exponent(mask):
    """The all-real scaling (-1)^(m(m-1)/2), m = plus-block count, that
    phi's docstring rules out, as a power of i."""
    m = bin(mask & 0b111).count("1")
    return 2 * ((m * (m - 1) // 2) % 2)


def _failing_pairs_by_products(sup, ordi, exponents):
    """The reference: 1,024 products over Q(i)[u], each scaled mask by
    mask by i^exponent(m), compared as elements; one list per exponent."""
    masks = even_masks()
    out = []
    for exponent in exponents:
        def image(e):
            return CliffordElement(ordi, {m: p * _i_power(exponent(m))
                                          for m, p in e.coeffs.items()})

        images = {m: image(sup.from_mask(m)) for m in masks}
        out.append([[ma, mb] for ma in masks for mb in masks
                    if image(sup.basis_product(ma, mb)) != images[ma] * images[mb]])
    return out


@pytest.mark.parametrize("seed", [42, 7])
def test_phi_structure_constants_match_products(seed, algebra_pair):
    sup, ordi = algebra_pair(seed)
    exponents = (phi_exponent,) if seed == 7 else (phi_exponent, _naive_exponent)
    reference = _failing_pairs_by_products(*algebra_pair(seed, QQI), exponents)
    assert phi_failing_pairs(sup, ordi) == reference[0] == []
    if seed == 42:
        naive = phi_failing_pairs(sup, ordi, exponent=_naive_exponent)
        assert naive  # the ruled-out real scaling is caught
        assert [0b001001, 0b001001] in naive  # (v1+ v1-)²
        assert naive == reference[1]


def test_phi_exponent_is_the_scaling_phi_uses(algebra_pair):
    sup, ordi = algebra_pair(42, QQI)
    for m in even_masks():
        img = phi(sup.from_mask(m), ordi)
        assert constant_value(img.coeffs[m]) == _i_power(phi_exponent(m))


def test_phi_failing_pairs_rejects_wrong_inputs(algebra_pair):
    sup, ordi = algebra_pair(42)
    with pytest.raises(ValueError):
        phi_failing_pairs(ordi, sup)
    with pytest.raises(ValueError):
        phi_failing_pairs(*algebra_pair(42, QQI))  # Gaussian coefficients


def test_phi_fixed_values(algebra_pair):
    # The scaling is i on masks with an odd number of plus-block
    # generators and 1 otherwise; it cannot be made all-real, because
    # (v1+ v1-)² = q11+ q11-  in the super variant but
    # (v1+ v1-)² = -q11+ q11-  in the ordinary one, forcing eps² = -1 on
    # that mask, while contractions such as (v1+ v2+)(v2+ v3+) glue all
    # even plus-counts to the scalar 1.
    sup, ordi = algebra_pair(42, QQI)
    img = phi(sup.from_mask(0b000011), ordi)  # v1+ v2+
    assert img == ordi.from_mask(0b000011)
    img = phi(sup.from_mask(0b001001), ordi)  # v1+ v1-
    assert img == ordi.from_mask(0b001001, ordi.ring.const(QQI.i))
    u1 = sup.ring.var("u1")
    assert phi(u1 * sup.one(), ordi) == ordi.ring.var("u1") * ordi.one()


def test_phi_is_a_graded_linear_bijection(algebra_pair):
    sup, ordi = algebra_pair(42, QQI)
    for m in even_masks():
        img = phi(sup.from_mask(m), ordi)
        assert set(img.coeffs) == {m}
        sc = constant_value(img.coeffs[m])
        assert sc in (QQI.one, QQI.i)
        assert bidegree(sup.from_mask(m)).weight == bidegree(img).weight


def test_phi_rejects_odd_weight(algebra_pair):
    P = cached_pencil(42)
    sup, ordi = algebra_pair(42, QQI)
    with pytest.raises(ValueError):
        phi(sup.gen(0), ordi)
    with pytest.raises(ValueError):
        phi(CliffordAlgebra.from_pencil(P, "super").one(),
            CliffordAlgebra.from_pencil(P, "ordinary"))  # rationals lack i


# -- the generator-step certificate for phi -----------------------------------


def _flip_step(monkeypatch, variant, bad):
    """Negate the engine's normal form of e_mask·v_j on one (mask, j) of
    one variant."""
    orig = CliffordAlgebra._mask_times_gen

    def broken(self, mask, j):
        res = orig(self, mask, j)
        if self.variant == variant and (mask, j) == bad:
            res = tuple((m, -c) for m, c in res)
        return res

    monkeypatch.setattr(CliffordAlgebra, "_mask_times_gen", broken)


def _block_sizes(m):
    return bin(m & 0b000111).count("1"), bin(m & 0b111000).count("1")


@pytest.mark.parametrize("seed", [42, 7, "generated"])
def test_phi_certificate_agrees_with_structure_constants(seed, algebra_pair):
    if seed == "generated":
        P = generate(2024, 2)
        sup = CliffordAlgebra.from_pencil(P, "super")
        ordi = CliffordAlgebra.from_pencil(P, "ordinary")
    else:
        sup, ordi = algebra_pair(seed)
    assert phi_twist_failures(sup, ordi) == []
    assert phi_failing_pairs(sup, ordi) == []


def test_phi_sign_rule():
    # phi_exponent absorbs the twist sign on every even pair; the all-real
    # scaling does not, already on (v1+ v1-)²
    assert phi_sign_rule_failures() == []
    assert phi_sign_rule_failures(phi_exponent) == []
    assert [0b001001, 0b001001] in phi_sign_rule_failures(_naive_exponent)


def test_phi_twist_lemma_on_mask_pairs(algebra_pair):
    # the conclusion the certificate's induction draws, on 1,024 seeded
    # pairs of masks, odd ones included: super = (-1)^(|a-|·|b+|) ·
    # ordinary, term by term, with the product masks in the block-parity
    # class of a xor b
    sup, ordi = algebra_pair(42)
    rng = random.Random("twist-lemma")
    for _ in range(1024):
        a, b = rng.randrange(64), rng.randrange(64)
        sign = -1 if _block_sizes(a)[1] * _block_sizes(b)[0] % 2 else 1
        want = tuple((m, c * sign) for m, c in ordi.mask_mul(a, b))
        assert sup.mask_mul(a, b) == want
        parity = [k % 2 for k in _block_sizes(a ^ b)]
        for m, _ in want:
            assert [k % 2 for k in _block_sizes(m)] == parity


def test_phi_certificate_names_the_mutated_step(monkeypatch):
    P = cached_pencil(42)
    _flip_step(monkeypatch, "super", (0b001001, 1))  # v1+ v1- · v2+
    sup = CliffordAlgebra.from_pencil(P, "super")
    ordi = CliffordAlgebra.from_pencil(P, "ordinary")
    # the flipped step and the three steps whose normal form peels down to it
    assert phi_twist_failures(sup, ordi) == [(9, 1), (25, 1), (41, 1), (57, 1)]


def test_phi_certificate_checks_output_parities(monkeypatch):
    # an extra term of the wrong block parity, added to both engines alike,
    # keeps the signs equal but breaks (P)
    P = cached_pencil(42)
    orig = CliffordAlgebra._mask_times_gen

    def extra(self, mask, j):
        res = orig(self, mask, j)
        if (mask, j) == (0, 0):
            res = res + ((0b001000, self.ring.one()),)
        return res

    monkeypatch.setattr(CliffordAlgebra, "_mask_times_gen", extra)
    sup = CliffordAlgebra.from_pencil(P, "super")
    ordi = CliffordAlgebra.from_pencil(P, "ordinary")
    assert phi_twist_failures(sup, ordi)[0] == (0, 0)


def test_phi_certificate_rejects_wrong_inputs():
    P = cached_pencil(42)
    sup = CliffordAlgebra.from_pencil(P, "super")
    ordi = CliffordAlgebra.from_pencil(P, "ordinary")
    with pytest.raises(ValueError):
        phi_twist_failures(ordi, sup)
    with pytest.raises(ValueError):
        phi_twist_failures(sup, CliffordAlgebra.from_pencil(P, "ordinary",
                                                            field=QQI))


def test_phi_check_falls_back_on_a_broken_engine(monkeypatch):
    # a flipped cross sign in the super engine: the certificate names the
    # step, so the check compares the structure constants and reports the
    # pairs that truly fail
    P = cached_pencil(42)
    _flip_step(monkeypatch, "super", (0b001001, 1))
    r = run_single(CheckContext(P, points=1), "prop3.9-phi")
    assert r.status == "fail"
    (wit,) = r.witnesses
    expected = phi_failing_pairs(CliffordAlgebra.from_pencil(P, "super"),
                                 CliffordAlgebra.from_pencil(P, "ordinary"))
    assert expected
    assert wit["failing_pairs"] == expected[:8]
    assert [0b001001, 0b001010] in wit["failing_pairs"]
    assert wit["pairs"] == 1024


def test_phi_check_catches_the_real_scaling(monkeypatch, algebra_pair):
    from quadclif import checks

    monkeypatch.setattr(checks, "phi_exponent", _naive_exponent)
    r = run_single(CheckContext(cached_pencil(42), points=1), "prop3.9-phi")
    assert r.status == "fail"
    naive = phi_failing_pairs(*algebra_pair(42), exponent=_naive_exponent)
    assert r.witnesses[0]["failing_pairs"] == naive[:8]
    assert r.witnesses[0]["super_pair_anticommutes"]
    assert r.witnesses[0]["ordinary_pair_commutes"]


# -- odd central elements -----------------------------------------------------


def test_central_odd_diagonal():
    P = diag_pencil()
    res = central_odd_pencil(P, "plus")
    alg = res.element.alg
    assert res.element == alg.from_mask(0b111)
    assert res.sign == 1
    u1, u2, u3 = (alg.ring.var(v) for v in U_VARS)
    assert res.square == u1 * u2 * u3


def test_central_odd_symbolic_pattern():
    names = ("q11", "q12", "q13", "q22", "q23", "q33")
    ring = PolyRing(QQ, names)
    v = {n: ring.var(n) for n in names}
    Q = SymMatrix(ring, [
        [v["q11"], v["q12"], v["q13"]],
        [v["q12"], v["q22"], v["q23"]],
        [v["q13"], v["q23"], v["q33"]],
    ])
    alg = CliffordAlgebra(ring, "plus", q_plus=Q)
    res = central_odd(alg)
    assert res.r_coeffs == (v["q23"], -v["q13"], v["q12"])
    assert res.sign == 1
    assert res.square == Q.det()
    for j in range(3):
        assert res.element.commutator(alg.gen(j)).is_zero()
    # d is the antisymmetrisation (1/6)·Σ sgn(σ)·v_σ1 v_σ2 v_σ3, and the
    # ansatz solve finds the same element over the generic block
    anti = alg.zero()
    for perm in permutations(range(3)):
        inversions = sum(a > b for k, a in enumerate(perm) for b in perm[k + 1:])
        word = alg.gen(perm[0]) * alg.gen(perm[1]) * alg.gen(perm[2])
        anti = anti + (-1) ** inversions * word
    assert anti == res.element * 6
    assert central_odd_by_ansatz(alg) == res


def test_central_odd_agrees_with_the_ansatz_oracle():
    pencils = ([cached_pencil(seed, bound) for bound in (3, 9)
                for seed in range(1, 26)]
               + [cached_pencil(42), cached_pencil(7), diag_pencil()])
    for P in pencils:
        for side in ("plus", "minus"):
            alg = CliffordAlgebra.from_pencil(P, side)
            # element, sign, square, det and r_coeffs
            assert central_odd(alg) == central_odd_by_ansatz(alg)


def test_central_odd_generated_pencil():
    P = cached_pencil(42)
    for side in ("plus", "minus"):
        res = central_odd_pencil(P, side)
        alg = res.element.alg
        for j in range(3):
            assert res.element.commutator(alg.gen(j)).is_zero()
        # the symbolic identity d² = det(q) specializes to every pencil
        assert res.sign == 1 and res.square == res.det
        d = res.element.coeffs
        assert 0b111 in d and d[0b111] == alg.ring.one()


def test_central_odd_rejects_zero_block():
    ring = PolyRing(QQ, U_VARS)
    zero = ring.zero()
    Q = SymMatrix(ring, [[zero] * 3 for _ in range(3)])
    alg = CliffordAlgebra(ring, "plus", q_plus=Q)
    with pytest.raises(CentralElementError):
        central_odd(alg)


# One negated engine step of one block makes exactly that block's prop3.12
# check fail through the registry; the closed form is verified, not trusted.
CENTRAL_MUTANTS = [
    ((0b010, 0), "CentralElementError: d does not commute with v1"),
    ((0b001, 0), "CentralElementError: d² is not ±det(q)"),
]


@pytest.mark.parametrize("side", ["plus", "minus"])
@pytest.mark.parametrize("step,error", CENTRAL_MUTANTS,
                         ids=["v2.v1", "v1.v1"])
def test_central_square_check_fails_on_a_flipped_step(monkeypatch, side, step,
                                                      error):
    _flip_step(monkeypatch, side, step)
    ctx = CheckContext(cached_pencil(42), points=1)
    other = "minus" if side == "plus" else "plus"
    r = run_single(ctx, f"prop3.12-d{side}-square")
    assert r.status == "fail"
    assert r.witnesses == [{"error": error}]
    assert run_single(ctx, f"prop3.12-d{other}-square").status == "pass"


def test_central_pair_cross_behaviour():
    P = cached_pencil(42)
    pair = central_pair(*(central_odd_pencil(P, side)
                          for side in ("plus", "minus")))
    sup = CliffordAlgebra.from_pencil(P, "super")
    ordi = CliffordAlgebra.from_pencil(P, "ordinary")
    dp_s = lift(pair.d_plus, sup, "plus")
    dm_s = lift(pair.d_minus, sup, "minus")
    dp_o = lift(pair.d_plus, ordi, "plus")
    dm_o = lift(pair.d_minus, ordi, "minus")
    with pytest.raises(ValueError, match="coefficient ring"):
        lift(pair.d_plus, CliffordAlgebra.from_pencil(P, "ordinary", field=QQI),
             "plus")
    # the two odd elements anticommute in the super variant and commute in
    # the ordinary one
    assert anticommutator(dp_s, dm_s).is_zero()
    assert dp_o.commutator(dm_o).is_zero()
    # in the super variant d+ anticommutes with every minus generator, so
    # it is not central there; in the ordinary variant it is central
    for j in range(3, 6):
        assert anticommutator(dp_s, sup.gen(j)).is_zero()
        assert not dp_s.commutator(sup.gen(j)).is_zero()
        assert dp_o.commutator(ordi.gen(j)).is_zero()
    for j in range(3):
        assert dp_s.commutator(sup.gen(j)).is_zero()
        assert dp_o.commutator(ordi.gen(j)).is_zero()
    # squares survive the lift
    f_plus = P.det_curves().f_plus
    assert (dp_o * dp_o) == pair.squares[0] * ordi.one()
    assert pair.squares[0] == f_plus or pair.squares[0] == -f_plus


# -- commutants ---------------------------------------------------------------


def test_commutant_dims_ordinary_match_module_oracle():
    P = cached_pencil(42)
    alg = CliffordAlgebra.from_pencil(P, "ordinary")
    dims = commutant_dims(alg, 6)
    assert dims == hilbert_dims_center(6)
    assert dims == [1, 0, 3, 2, 6, 6, 11]


def test_commutant_dims_super():
    P = cached_pencil(42)
    alg = CliffordAlgebra.from_pencil(P, "super")
    dims = commutant_dims(alg, 6)
    # only the base polynomials survive: the odd central candidates
    # anticommute with the opposite block
    assert dims == [1, 0, 3, 0, 6, 0, 10]


def test_commutant_contains_central_pair_ordinary():
    P = cached_pencil(42)
    alg = CliffordAlgebra.from_pencil(P, "ordinary")
    basis = commutant_basis(alg, 3)
    assert [len(b) for b in basis] == [1, 0, 3, 2]
    pair = central_pair(*(central_odd_pencil(P, side)
                          for side in ("plus", "minus")))
    span_masks = set()
    for e in basis[3]:
        for g in range(6):
            assert e.commutator(alg.gen(g)).is_zero()
        span_masks |= set(e.coeffs)
    lifted = lift(pair.d_plus, alg, "plus")
    assert set(lifted.coeffs) <= span_masks


def test_commutant_plus_variant():
    P = cached_pencil(42)
    alg = CliffordAlgebra.from_pencil(P, "plus")
    dims = commutant_dims(alg, 3)
    assert dims == [1, 0, 3, 1]
    d = central_odd(alg).element
    (w3,) = commutant_basis(alg, 3)[3]
    # the sole weight-3 commutant vector is a scalar multiple of d
    assert 0b111 in w3.coeffs
    assert w3 == d * constant_value(w3.coeffs[0b111])


def test_commutant_cap():
    P = cached_pencil(42)
    alg = CliffordAlgebra.from_pencil(P, "plus")
    with pytest.raises(ValueError):
        commutant_basis(alg, 9)


# -- relation homogeneity and the scaling action -------------------------------


def test_relations_homogeneous_and_equivariant():
    P = cached_pencil(42)
    for variant in ("super", "ordinary"):
        alg = CliffordAlgebra.from_pencil(P, variant)
        rels = defining_relations(alg)
        assert len(rels) == 21
        for terms in rels:
            assert terms_homogeneous(alg, terms)
        assert equivariance_check(P, variant)


def test_corrupted_relation_detected():
    P = cached_pencil(42)
    alg = CliffordAlgebra.from_pencil(P, "ordinary")
    terms = defining_relations(alg)[0]
    bad = terms + [((), alg.ring.one())]
    assert not terms_homogeneous(alg, bad)
    assert not action_scales_relation(alg, bad, 1, 2)
    assert action_scales_relation(alg, terms, -1, 2)
