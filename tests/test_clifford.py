"""Clifford engine: relations, grading, the even-part map, central elements,
and commutants: the kernel of the commutator matrix at an integer point,
against the weight-by-weight oracle of tests/conftest.py."""

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from math import comb

import pytest

from quadclif.exactalg import ZZ, PolyRing, SymMatrix, evaluator, kernel_int_sparse
from quadclif.clifford import (
    GENERIC,
    CentralElementError,
    CliffordAlgebra,
    CliffordElement,
    block_point,
    central_odd,
    commutant_basis,
    defining_relations,
    lift,
    lift_swapped,
    phi,
    phi_exponent,
    swap_blocks,
    terms_homogeneous,
)
from quadclif.checks import CENTER_POINTS, CheckContext, run_single
from quadclif.pencil import U_VARS, URING, InvariantPencil, generate

from conftest import (
    BAD_REDUCTION_Q_PLUS,
    QQ,
    QQI,
    SINGULAR_OFF_FP_Q_PLUS,
    PrimeField,
    action_scales_relation,
    cached_pencil,
    central_pair,
    clifford_over,
    central_odd_by_ansatz,
    central_odd_pencil,
    commutant_basis_by_weight,
    commutant_dims,
    equivariance_check,
    flip_six_generator_step,
    flip_step,
    from_pencil,
    hilbert_dims_center,
    linear_form_matrix_over,
    phi_failing_pairs,
    phi_sign_rule_failures,
    phi_twist_failures,
    seeded_pencil,
    structure_terms,
    verify_tensor_product_of,
    with_q_plus,
)


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
        acc = acc + alg.from_mask(mask, alg.ring.from_terms([(exps, coeff)]))
    return acc


# -- relations and products ----------------------------------------------------


def test_generator_relations_all_variants():
    P = cached_pencil(42)
    for variant in ("super", "ordinary", "plus", "minus"):
        alg = from_pencil(P, variant)
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
    alg = from_pencil(P, variant)
    rng = random.Random(f"assoc-{variant}")
    for _ in range(6):
        a = random_element(alg, rng)
        b = random_element(alg, rng)
        c = random_element(alg, rng)
        assert (a * b) * c == a * (b * c)


@pytest.mark.parametrize("variant", ["ordinary", "super"])
def test_tensor_product_tables_associative_on_seeded_triples(variant):
    # the long path behind verify_tensor_product: 300 seeded basis triples
    # of the 64-dimensional table (a full verify_associativity takes
    # seconds)
    P = cached_pencil(42)
    alg = from_pencil(P, variant)
    assert verify_tensor_product_of(alg, *(from_pencil(P, side)
                                           for side in ("plus", "minus")))
    rng = random.Random(f"tensor-triples-{variant}")
    for _ in range(300):
        a, b, c = (rng.randrange(64) for _ in range(3))
        assert (alg.basis_product(a, b) * alg.from_mask(c)
                == alg.from_mask(a) * alg.basis_product(b, c))


def test_associativity_prime_field():
    P = cached_pencil(42)
    alg = clifford_over(P, "ordinary", PrimeField(101))
    rng = random.Random("assoc-fp")
    for _ in range(4):
        a = random_element(alg, rng)
        b = random_element(alg, rng)
        c = random_element(alg, rng)
        assert (a * b) * c == a * (b * c)


@pytest.mark.parametrize("side", ["plus", "minus"])
def test_symbolic_associativity_and_integrality(side):
    P = cached_pencil(42)
    alg = from_pencil(P, side)
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
    alg = from_pencil(P, "super")
    rng = random.Random("dist")
    a, b, c = (random_element(alg, rng) for _ in range(3))
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c
    u1 = alg.ring.var("u1")
    assert (u1 * a) * b == u1 * (a * b)
    assert a * 1 == a and a * 0 == alg.zero()
    assert 2 * a == a + a


def test_equal_elements_of_compatible_engines_hash_alike():
    """__eq__ accepts any compatible algebra, so two engines built alike
    give equal elements one hash, and a set holds them once; elements of an
    engine with other blocks stay apart."""
    a, b = CliffordAlgebra.generic("plus"), CliffordAlgebra.generic("plus")
    assert a is not b
    x, y = a.gen(0), b.gen(0)
    assert x == y and hash(x) == hash(y) and len({x, y}) == 1
    assert len({x * a.gen(1) + 3, y * b.gen(1) + 3}) == 1
    other = from_pencil(cached_pencil(42), "plus").gen(0)
    assert other != x and len({x, other}) == 2


def test_algebra_mismatch_rejected():
    P = cached_pencil(42)
    a = from_pencil(P, "super").gen(0)
    b = from_pencil(P, "ordinary").gen(0)
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
    alg = from_pencil(P, "super")
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
    alg = from_pencil(P, "super")
    rng = random.Random("bideg")
    for _ in range(20):
        ma = rng.randrange(64)
        mb = rng.randrange(64)
        ea = alg.from_mask(ma, alg.ring.from_terms([((rng.randint(0, 1), 0, 0), 1)]))
        eb = alg.from_mask(mb, alg.ring.from_terms([((0, rng.randint(0, 1), 0), 1)]))
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
                clifford_over(P, "super", field),
                clifford_over(P, "ordinary", field))
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
        phi(from_pencil(P, "super").one(),
            from_pencil(P, "ordinary"))  # rationals lack i


# -- the tensor-product certificate and the phi twist it implies -------------


def _block_sizes(m):
    return bin(m & 0b000111).count("1"), bin(m & 0b111000).count("1")


def _sides(P, field):
    return tuple(clifford_over(P, side, field) for side in ("plus", "minus"))


@pytest.mark.parametrize(
    "seed", [42, 7, "generated"] + [f"seeded-{i}" for i in range(20)])
def test_phi_certificate_agrees_with_structure_constants(seed, algebra_pair):
    # both six-generator engines pass the two-sided tensor-product oracle
    # against the side engines, and then the twist oracle and the
    # pair-by-pair comparison find nothing, as prop3.9-phi concludes
    # without them
    if seed in (42, 7):
        P = cached_pencil(seed)
        sup, ordi = algebra_pair(seed)
    else:
        P = (generate(2024, 2) if seed == "generated"
             else seeded_pencil(int(seed.split("-")[1])))
        sup = from_pencil(P, "super")
        ordi = from_pencil(P, "ordinary")
    sides = _sides(P, sup.ring.field)
    assert verify_tensor_product_of(sup, *sides) and verify_tensor_product_of(ordi, *sides)
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


def _generic():
    """Fresh generic plus, super and ordinary engines."""
    return tuple(map(CliffordAlgebra.generic, ("plus", "super", "ordinary")))


def test_phi_certificate_names_the_mutated_step(monkeypatch):
    flip_step(monkeypatch, "super", (0b001001, 1))  # v1+ v1- · v2+
    plus, sup, ordi = _generic()
    # the flipped step and the three steps whose normal form peels down to it
    assert phi_twist_failures(sup, ordi) == [(9, 1), (25, 1), (41, 1), (57, 1)]
    with pytest.raises(ValueError, match="the super step e_9·v_1$"):
        sup.verify_tensor_product(plus)
    assert ordi.verify_tensor_product(plus)


@pytest.mark.parametrize("step", [(19, 4), (6, 0), (3, 1)])
def test_tensor_certificate_names_a_step_flipped_in_both_engines(monkeypatch,
                                                                 step):
    # the two engines still agree up to the cross sign, so the twist oracle
    # sees nothing; the certificate compares each against the plus side,
    # and (19, 4) is a (T₋) step, compared with it under a ↔ b
    flip_six_generator_step(monkeypatch, step)
    plus, sup, ordi = _generic()
    assert phi_twist_failures(sup, ordi) == []
    for alg in (sup, ordi):
        with pytest.raises(ValueError, match=(
                f"the {alg.variant} step e_{step[0]}·v_{step[1]}$")):
            alg.verify_tensor_product(plus)
    # the instance engines under the two-sided oracle alike
    P = cached_pencil(42)
    for variant in ("super", "ordinary"):
        with pytest.raises(ValueError, match=(
                f"the {variant} step e_{step[0]}·v_{step[1]}$")):
            verify_tensor_product_of(from_pencil(P, variant), *_sides(P, ZZ))


def test_phi_certificate_checks_output_parities(monkeypatch):
    # an extra term of the wrong block parity, added to both engines alike,
    # keeps the signs equal but breaks (P)
    orig = CliffordAlgebra._mask_times_gen

    def extra(self, mask, j):
        res = orig(self, mask, j)
        if (mask, j) == (0, 0):
            res = res + ((0b001000, self.ring.one()),)
        return res

    monkeypatch.setattr(CliffordAlgebra, "_mask_times_gen", extra)
    plus, sup, ordi = _generic()
    assert phi_twist_failures(sup, ordi)[0] == (0, 0)
    # in the side engine the extra term leaves the three generators
    with pytest.raises(ValueError, match="the plus step e_0·v_0 does not change"):
        sup.verify_tensor_product(plus)


def test_phi_certificate_rejects_wrong_inputs():
    P = cached_pencil(42)
    sup = from_pencil(P, "super")
    ordi = from_pencil(P, "ordinary")
    with pytest.raises(ValueError):
        phi_twist_failures(ordi, sup)
    with pytest.raises(ValueError):
        phi_twist_failures(sup, clifford_over(P, "ordinary", QQI))
    # the generic certificate reads only the generic plus side on the
    # first block: not the b-block engine, not a six-generator engine, and
    # not an instance engine, whose minus block is no image under a ↔ b
    plus, _, generic_ordi = _generic()
    b_block = CliffordAlgebra(GENERIC, "plus", q_plus=generic_ordi.q_minus)
    for alg, side in ((generic_ordi, b_block), (plus, plus), (ordi, from_pencil(P, "plus")),
                      (generic_ordi, generic_ordi)):
        with pytest.raises(ValueError, match="the plus side must be the first block"):
            alg.verify_tensor_product(side)
    # so does the two-sided oracle
    plus, minus = _sides(P, ZZ)
    other = _sides(cached_pencil(7), ZZ)
    for args in ((minus, plus), (plus, other[1]), (other[0], minus)):
        with pytest.raises(ValueError, match="the two blocks"):
            verify_tensor_product_of(ordi, *args)
    with pytest.raises(ValueError, match="the two blocks"):
        verify_tensor_product_of(plus, plus, minus)


def test_phi_check_falls_back_on_a_broken_engine(monkeypatch):
    # a flipped cross sign in the super engine: the tensor-product
    # certificate names the step, so prop3.9-phi FAILs before any pair is
    # compared, and the pair-by-pair oracle confirms that pairs truly fail
    P = cached_pencil(42)
    flip_step(monkeypatch, "super", (0b001001, 1))
    r = run_single(CheckContext(P, points=1), "prop3.9-phi")
    assert r.status == "fail"
    assert r.witnesses == [
        {"error": "ValueError: tensor product fails on the super step e_9·v_1"}]
    expected = phi_failing_pairs(from_pencil(P, "super"),
                                 from_pencil(P, "ordinary"))
    assert [0b001001, 0b001010] in expected


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
            alg = from_pencil(P, side)
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


# One negated step of the generic plus engine breaks d, which both prop3.12
# checks read (d₋ is d with a and b exchanged): central_odd names the broken
# identity, as the closed form is verified, not trusted.  There is no minus
# engine, so the same step on the minus block is the (T₋) step
# (m << 3, j + 3) of the six-generator engines: it cannot reach prop3.12,
# and the tensor-product certificate names it in prop3.9-phi.
CENTRAL_MUTANTS = [
    ((0b010, 0), "CentralElementError: d does not commute with v1"),
    ((0b001, 0), "CentralElementError: d² is not ±det(q)"),
]


@pytest.mark.parametrize("side", ["plus", "minus"])
@pytest.mark.parametrize("step,error", CENTRAL_MUTANTS,
                         ids=["v2.v1", "v1.v1"])
def test_central_square_check_fails_on_a_flipped_step(monkeypatch, side, step,
                                                      error):
    ctx = CheckContext(cached_pencil(42), points=1)
    if side == "plus":
        flip_step(monkeypatch, "plus", step)
        for block in ("plus", "minus"):
            r = run_single(ctx, f"prop3.12-d{block}-square")
            assert (r.status, r.witnesses) == ("fail", [{"error": error}]), block
        return
    minus_step = (step[0] << 3, step[1] + 3)
    flip_six_generator_step(monkeypatch, minus_step)
    for block in ("plus", "minus"):
        assert run_single(ctx, f"prop3.12-d{block}-square").status == "pass"
    r = run_single(ctx, "prop3.9-phi")
    assert (r.status, r.witnesses) == ("fail", [{
        "error": "ValueError: tensor product fails on the super step "
                 f"e_{minus_step[0]}·v_{minus_step[1]}"}])


def test_central_pair_cross_behaviour():
    P = cached_pencil(42)
    pair = central_pair(*(central_odd_pencil(P, side)
                          for side in ("plus", "minus")))
    sup = from_pencil(P, "super")
    ordi = from_pencil(P, "ordinary")
    dp_s = lift(pair.d_plus, sup, "plus")
    dm_s = lift(pair.d_minus, sup, "minus")
    dp_o = lift(pair.d_plus, ordi, "plus")
    dm_o = lift(pair.d_minus, ordi, "minus")
    with pytest.raises(ValueError, match="coefficient ring"):
        lift(pair.d_plus, clifford_over(P, "ordinary", QQI),
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
    alg = from_pencil(P, "ordinary")
    dims = commutant_dims(alg, 6)
    assert dims == hilbert_dims_center(6)
    assert dims == [1, 0, 3, 2, 6, 6, 11]


def test_commutant_dims_super():
    P = cached_pencil(42)
    alg = from_pencil(P, "super")
    dims = commutant_dims(alg, 6)
    # only the base polynomials survive: the odd central candidates
    # anticommute with the opposite block
    assert dims == [1, 0, 3, 0, 6, 0, 10]


def test_commutant_contains_central_pair_ordinary():
    P = cached_pencil(42)
    alg = from_pencil(P, "ordinary")
    basis = commutant_basis_by_weight(alg, 3)
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
    alg = from_pencil(P, "plus")
    dims = commutant_dims(alg, 3)
    assert dims == [1, 0, 3, 1]
    d = central_odd(alg).element
    (w3,) = commutant_basis_by_weight(alg, 3)[3]
    # the sole weight-3 commutant vector is a scalar multiple of d
    assert 0b111 in w3.coeffs
    assert w3 == d * constant_value(w3.coeffs[0b111])


def test_commutant_cap():
    P = cached_pencil(42)
    alg = from_pencil(P, "plus")
    with pytest.raises(ValueError):
        commutant_basis_by_weight(alg, 9)


def _top_masks(kernel):
    return [max(m for m, x in enumerate(v) if x) for v in kernel]


def test_point_kernel_ordinary_is_spanned_by_the_central_basis():
    """At (1, 2, 3) the kernel of the ordinary commutator matrix has the
    top masks of 1, d₊, d₋ and d₊d₋, and each vector is the specialization
    of that element: a kernel vector is fixed by its free coordinates."""
    P = cached_pencil(42)
    alg = from_pencil(P, "ordinary")
    u0 = (1, 2, 3)
    kernel = commutant_basis(alg, u0)
    assert _top_masks(kernel) == [0, 7, 56, 63]
    dp, dm = (lift(central_odd_pencil(P, side).element, alg, side)
              for side in ("plus", "minus"))
    value = evaluator(u0)
    for vec, b in zip(kernel, (alg.one(), dp, dm, dp * dm)):
        at_u0 = [value(b.coeffs[m]) if m in b.coeffs else 0 for m in range(64)]
        top = max(b.coeffs)
        assert [x * at_u0[top] for x in vec] == [y * vec[top] for y in at_u0]


def test_point_kernel_of_other_variants():
    # the super variant is C(q₊ ⊥ q₋), central simple off the curves; a
    # block's center is spanned by 1 and its odd central element
    P = cached_pencil(42)
    for variant, tops in (("super", [0]), ("plus", [0, 7]), ("minus", [0, 7])):
        alg = from_pencil(P, variant)
        kernel = commutant_basis(alg, (2, -1, 5))
        assert _top_masks(kernel) == tops, variant
        assert {len(v) for v in kernel} == {1 << alg.ngens}


def test_point_kernel_needs_integer_structure_constants():
    alg = clifford_over(cached_pencil(42), "plus", QQ)
    assert commutant_basis(alg, (1, 2, 3)) == commutant_basis(
        from_pencil(cached_pencil(42), "plus"), (1, 2, 3))
    with pytest.raises(ValueError, match="non-integer structure constant"):
        commutant_basis(alg, (Fraction(1, 7), 0, 0))



def test_point_kernel_reads_the_generator_step_memo():
    """The commutator matrix built from mask_mul on both sides, as before
    commutant_basis read e_m·v_j from _mask_times_gen, has the same
    kernel; and a fresh algebra's mask_mul memo then holds only the
    products v_j·e_m."""
    P = cached_pencil(42)
    for variant, u in (("ordinary", (1, 2, 3)), ("super", (2, -1, 5)),
                       ("minus", (2, -1, 5))):
        alg = from_pencil(P, variant)
        kernel = commutant_basis(alg, u)
        assert {ma for ma, _ in alg._mul_cache} == {1 << g for g in range(alg.ngens)}
        rows, value = {}, evaluator(u)
        for mask in range(1 << alg.ngens):
            for g in range(alg.ngens):
                for sign, terms in ((1, alg.mask_mul(mask, 1 << g)),
                                    (-1, alg.mask_mul(1 << g, mask))):
                    for m2, poly in terms:
                        row = rows.setdefault((g, m2), {})
                        row[mask] = row.get(mask, 0) + sign * int(value(poly))
        assert kernel == kernel_int_sparse(list(rows.values()), 1 << alg.ngens)

# -- relation homogeneity and the scaling action -------------------------------


def test_relations_homogeneous_and_equivariant():
    P = cached_pencil(42)
    for variant in ("super", "ordinary"):
        alg = from_pencil(P, variant)
        rels = defining_relations(alg)
        assert len(rels) == 21
        for terms in rels:
            assert terms_homogeneous(alg, terms)
        assert equivariance_check(alg)


def test_corrupted_relation_detected():
    # the stray constant changes the weight, not the minus parity: s = 1
    # already sees it
    P = cached_pencil(42)
    alg = from_pencil(P, "ordinary")
    terms = defining_relations(alg)[0]
    bad = terms + [((), alg.ring.one())]
    assert not terms_homogeneous(alg, bad)
    assert not action_scales_relation(alg, bad, 1, 2)
    assert action_scales_relation(alg, terms, -1, 2)


# -- the integer ring against the rational oracle ------------------------------


def _oracle_pencils():
    named = [("42", cached_pencil(42)), ("7", cached_pencil(7)),
             ("diagonal", diag_pencil()),
             ("bad-reduction", with_q_plus(BAD_REDUCTION_Q_PLUS)),
             ("singular-off-fp", with_q_plus(SINGULAR_OFF_FP_Q_PLUS))]
    return named, [(f"seeded-{i}", seeded_pencil(i)) for i in range(50)]


def _int_terms(alg):
    terms = structure_terms(alg)
    assert {type(c) for row in terms for entry in row
            for _, poly in entry for _, c in poly} <= {int}
    return terms


def _central_or_error(alg):
    try:
        res = central_odd(alg)
    except CentralElementError as exc:
        return str(exc)
    return (res.sign, res.square.terms, res.det.terms,
            {m: p.terms for m, p in res.element.coeffs.items()},
            [r.terms for r in res.r_coeffs])


def test_integer_algebra_matches_the_rational_oracle():
    """from_pencil over Z[u] against the same blocks over Q[u]: equal
    structure constants (as ints), odd central elements, commutant
    dimensions (the weight oracle and the kernel at a point) and
    determinant cubics.  The side algebras and the generator steps of the
    six-generator variants on every pencil; the full ordinary table and
    its commutant on seeds 42 and 7."""
    named, seeded = _oracle_pencils()
    qring = PolyRing(QQ, U_VARS)
    for name, P in named + seeded:
        for side in ("plus", "minus"):
            f = P.det_curves().side(side)
            assert {type(c) for c in f.terms.values()} <= {int}, name
            assert f.terms == linear_form_matrix_over(P, side, qring).det().terms, name
            over_z = from_pencil(P, side)
            over_q = clifford_over(P, side, QQ)
            assert over_z.ring.field is ZZ and over_q.ring.field is QQ
            assert _int_terms(over_z) == structure_terms(over_q), (name, side)
            assert _central_or_error(over_z) == _central_or_error(over_q), (name, side)
            assert commutant_dims(over_z, 6) == commutant_dims(over_q, 6), (name, side)
        for variant in ("ordinary", "super"):
            over_z = from_pencil(P, variant)
            over_q = clifford_over(P, variant, QQ)
            for m in range(64):
                for j in range(6):
                    assert ([(m2, c.terms) for m2, c in over_z._mask_times_gen(m, j)]
                            == [(m2, c.terms) for m2, c in over_q._mask_times_gen(m, j)])
    for name, P in named[:2]:
        over_z = from_pencil(P, "ordinary")
        over_q = clifford_over(P, "ordinary", QQ)
        assert _int_terms(over_z) == structure_terms(over_q), name
        assert commutant_dims(over_z, 6) == commutant_dims(over_q, 6), name
        assert commutant_basis(over_z, (1, 2, 3)) == commutant_basis(
            over_q, (1, 2, 3)), name


def test_generic_engine_specializes_to_the_instance_oracle():
    """The generic engines the checks prove (CheckContext.block) are the
    per-instance engines of conftest.from_pencil, term for term over Z[u],
    and their images over Q[u] the QQ oracle's: every product of the plus
    side under a ↦ q₊(u) and under a ↦ q₋(u) (it serves both blocks),
    every generator step of the six-generator variants under a ↦ q₊(u),
    b ↦ q₋(u), d under either block's map, and d₋ = lift_swapped(d) under
    the pair.  commutant_basis at a₀ = (q₊(u₀), q₋(u₀)) is the instance
    engine's at u₀ for u₀ in CENTER_POINTS.  On seeds 42 and 7, the
    diagonal, the two planted q₊ and seeded_pencil(0..19)."""
    named, seeded = _oracle_pencils()
    qring = PolyRing(QQ, U_VARS)
    u = [URING.var(v) for v in U_VARS]
    ctx = CheckContext(None)

    def image(terms, at):
        out = {m: URING.zero() + evaluator(at)(c) for m, c in terms}
        return nonzero(out.items())

    def nonzero(terms):
        # a generator step keeps −q_jj even where it is 0
        return {m: c for m, c in terms if not c.is_zero()}

    def over_q(terms):
        return {m: qring.from_terms(c.terms.items()) for m, c in terms.items()}

    generic_d = ctx.central().element
    for name, P in named + seeded[:20]:
        pair = block_point(P.block_at(u, "plus"), P.block_at(u, "minus"))
        side_at = {side: block_point(P.block_at(u, side)) for side in ("plus", "minus")}
        for variant in ("plus", "minus", "ordinary", "super"):
            instance, rational = from_pencil(P, variant), clifford_over(P, variant, QQ)
            if variant in ("plus", "minus"):
                generic, at = ctx.block("plus"), side_at[variant]
                pairs = [(generic.mask_mul, instance.mask_mul, rational.mask_mul,
                          (a, b)) for a in range(8) for b in range(8)]
            else:
                generic, at = ctx.block(variant), pair
                pairs = [(generic._mask_times_gen, instance._mask_times_gen,
                          rational._mask_times_gen, (m, j))
                         for m in range(64) for j in range(6)]
            for gen_step, inst_step, rat_step, args in pairs:
                got = image(gen_step(*args), at)
                assert got == nonzero(inst_step(*args)), (name, variant, args)
                assert over_q(got) == nonzero(rat_step(*args)), (name, variant, args)
        ordinary = from_pencil(P, "ordinary")
        for side in ("plus", "minus"):
            try:
                want = central_odd_pencil(P, side).element.coeffs
            except CentralElementError:  # a zero block: only d = v1v2v3
                want = {0b111: URING.one()}
            assert image(generic_d.coeffs.items(), side_at[side]) == want, (name, side)
            lifted = (lift(generic_d, ctx.block("ordinary"), "plus") if side == "plus"
                      else lift_swapped(generic_d, ctx.block("ordinary")))
            shift = 0 if side == "plus" else 3
            assert image(lifted.coeffs.items(), pair) == {
                m << shift: c for m, c in want.items()}, (name, side)
        for u0 in CENTER_POINTS:
            a0 = block_point(P.block_at(u0, "plus"), P.block_at(u0, "minus"))
            assert commutant_basis(ctx.block("ordinary"), a0) == commutant_basis(
                ordinary, u0), (name, u0)


def test_the_b_block_engine_is_the_plus_engine_under_the_swap():
    """The oracle of the a ↔ b step in verify_tensor_product: the
    three-generator engine on the generic b block is swap_blocks of the
    generic plus engine, step for step and product for product, and its
    central_odd is the swap image of d, which lift_swapped places on the
    minus block as lift does with the b-block element."""
    plus = CliffordAlgebra.generic("plus")
    ordi = CliffordAlgebra.generic("ordinary")
    b_block = CliffordAlgebra(GENERIC, "plus", q_plus=ordi.q_minus)
    assert b_block.q_plus == SymMatrix(GENERIC, [[swap_blocks(x) for x in row]
                                                 for row in plus.q_plus.rows])
    for m in range(8):
        for j in range(3):
            assert b_block._mask_times_gen(m, j) == tuple(
                (m2, swap_blocks(c)) for m2, c in plus._mask_times_gen(m, j)), (m, j)
        for b in range(8):
            assert b_block.mask_mul(m, b) == tuple(
                (m2, swap_blocks(c)) for m2, c in plus.mask_mul(m, b)), (m, b)
    d, d_b = central_odd(plus), central_odd(b_block)
    assert d_b.element.coeffs == {m: swap_blocks(c) for m, c in d.element.coeffs.items()}
    assert (d_b.sign, d_b.det) == (d.sign, swap_blocks(d.det))
    assert lift_swapped(d.element, ordi) == lift(d_b.element, ordi, "minus")
    # and the swap image commutes with the minus generators of both
    # six-generator engines, while anticommuting with d₊ in the super one
    sup = CliffordAlgebra.generic("super")
    for alg in (ordi, sup):
        dm = lift_swapped(d.element, alg)
        assert all(dm.commutator(alg.gen(j)).is_zero() for j in range(3, 6))
    dp, dm = lift(d.element, sup, "plus"), lift_swapped(d.element, sup)
    assert anticommutator(dp, dm).is_zero()


@pytest.mark.parametrize("lam", [2, 3])
def test_scaling_action_is_exact_over_the_integers(lam):
    """action_scales_relation compares cross-multiplied coefficients, so
    over Z[u] it never divides (a float would raise TypeError at the next
    polynomial product) and agrees with the rational oracle, on every
    relation and on each one with a stray constant term.  On seeds 42 and
    7 and seeded_pencil(0..19) the bidegree verdict that prop3.19 reads,
    terms_homogeneous, equals the oracle for both signs s, on every
    relation and on each one grafted with a stray constant, an odd word
    or the word v1- v2-, whose weight is that of every relation, so that
    on the cross relations only s = -1 sees it."""
    P = cached_pencil(42)
    for variant in ("ordinary", "super"):
        algs = (from_pencil(P, variant),
                clifford_over(P, variant, QQ))
        for rels in zip(*(defining_relations(alg) for alg in algs)):
            for s in (1, -1):
                for alg, terms in zip(algs, rels):
                    assert action_scales_relation(alg, terms, s, lam)
                    bad = terms + [((), alg.ring.one())]
                    assert not action_scales_relation(alg, bad, s, lam)
    pencils = [cached_pencil(42), cached_pencil(7)] + [seeded_pencil(i)
                                                       for i in range(20)]
    for P in pencils:
        for variant in ("ordinary", "super"):
            alg = from_pencil(P, variant)
            one = alg.ring.one()
            for terms in defining_relations(alg):
                for graft in ([], [((), one)], [((0,), one)], [((3, 4), one)]):
                    rel = terms + graft
                    assert terms_homogeneous(alg, rel) == all(
                        action_scales_relation(alg, rel, s, lam)
                        for s in (1, -1)), (variant, rel)
