"""Grassmann algebra arithmetic and the morphism category."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superpoints import (
    DimensionError,
    GrassmannElement,
    GrassmannMorphism,
    NotInvertibleError,
    Parity,
    ParityError,
    body,
    even_part,
    gr_add,
    gr_inv,
    gr_mul,
    gr_scale,
    morphism_apply,
    morphism_compose,
    nil_part,
    odd_part,
    parity_of,
)
from superpoints.grassmann import MAX_GENERATORS, monomial_sign
from superpoints.sampling import random_element

from helpers import mul_reference, sign_by_sorting


def theta(n, *indices):
    return GrassmannElement.monomial(n, indices)


rationals = st.fractions(min_value=-5, max_value=5, max_denominator=4)


@st.composite
def elements(draw, n=None, parity=None):
    if n is None:
        n = draw(st.integers(min_value=0, max_value=4))
    masks = [
        m
        for m in range(1 << n)
        if parity is None or m.bit_count() % 2 == parity
    ]
    if not masks:
        return GrassmannElement(n, {})
    terms = draw(st.dictionaries(st.sampled_from(masks), rationals, max_size=4))
    return GrassmannElement(n, terms)


@st.composite
def element_triples(draw):
    n = draw(st.integers(min_value=0, max_value=4))
    return (
        draw(elements(n=n)),
        draw(elements(n=n)),
        draw(elements(n=n)),
    )


@st.composite
def homogeneous_pairs(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    pa = draw(st.integers(0, 1))
    pb = draw(st.integers(0, 1))
    return draw(elements(n=n, parity=pa)), draw(elements(n=n, parity=pb)), pa, pb


class TestMonomialSign:
    def test_matches_sorting_oracle_exhaustively(self):
        # every disjoint pair of monomials on up to 6 generators
        from superpoints.grassmann import indices_of_mask

        for a in range(1 << 6):
            for b in range(1 << 6):
                if a & b:
                    continue
                expected = sign_by_sorting(indices_of_mask(a), indices_of_mask(b))
                assert expected is not None
                assert monomial_sign(a, b) == expected[1]

    def test_basic_swap(self):
        assert monomial_sign(0b10, 0b01) == -1
        assert monomial_sign(0b01, 0b10) == 1


class TestProduct:
    def test_disjoint_monomials(self):
        assert gr_mul(theta(2, 1), theta(2, 2)) == theta(2, 1, 2)

    def test_swap_costs_sign(self):
        assert gr_mul(theta(2, 2), theta(2, 1)) == GrassmannElement.monomial(2, (1, 2), -1)

    def test_nilpotency_cancellation(self):
        # (1 + t1)(1 - t1) expands to 1 + t1 - t1 - t1*t1 and t1*t1 = 0
        a = GrassmannElement(1, {0: 1, 0b1: 1})
        b = GrassmannElement(1, {0: 1, 0b1: -1})
        assert gr_mul(a, b) == GrassmannElement.one(1)

    def test_generator_squares_to_zero(self):
        assert gr_mul(theta(3, 2), theta(3, 2)).is_zero()

    def test_dimension_error(self):
        with pytest.raises(DimensionError):
            gr_mul(theta(2, 1), theta(3, 1))

    @given(element_triples())
    def test_associative(self, triple):
        a, b, c = triple
        assert gr_mul(gr_mul(a, b), c) == gr_mul(a, gr_mul(b, c))

    @given(element_triples())
    def test_distributive(self, triple):
        a, b, c = triple
        assert gr_mul(a, gr_add(b, c)) == gr_add(gr_mul(a, b), gr_mul(a, c))

    @given(homogeneous_pairs())
    def test_supercommutative(self, data):
        a, b, pa, pb = data
        sign = -1 if pa and pb else 1
        assert gr_mul(a, b) == gr_scale(sign, gr_mul(b, a))

    @settings(max_examples=60)
    @given(elements(), elements())
    def test_against_sorting_reference(self, a, b):
        if a.n != b.n:
            return
        assert gr_mul(a, b) == mul_reference(a, b)

    def test_unital(self):
        rng = random.Random(7)
        for n in range(5):
            a = random_element(rng, n)
            one = GrassmannElement.one(n)
            assert gr_mul(one, a) == a == gr_mul(a, one)


class TestVectorOps:
    def test_add_collects(self):
        assert gr_add(theta(1, 1), theta(1, 1)) == GrassmannElement(1, {0b1: 2})

    def test_additive_inverse_is_empty(self):
        a = theta(1, 1)
        assert gr_add(a, gr_scale(-1, a)) == GrassmannElement.zero(1)
        assert not gr_add(a, gr_scale(-1, a)).terms

    def test_scale(self):
        a = GrassmannElement(2, {0: 2, 0b11: 4})
        assert gr_scale(Fraction(1, 2), a) == GrassmannElement(2, {0: 1, 0b11: 2})


class TestParityAndParts:
    def test_even(self):
        assert parity_of(GrassmannElement(2, {0: 3, 0b11: 1})) is Parity.EVEN

    def test_odd(self):
        assert parity_of(GrassmannElement(3, {0b001: 1, 0b111: 1})) is Parity.ODD

    def test_indefinite(self):
        assert parity_of(GrassmannElement(1, {0: 1, 0b1: 1})) is Parity.INDEFINITE

    def test_zero(self):
        assert parity_of(GrassmannElement.zero(2)) is Parity.ZERO

    def test_body(self):
        a = GrassmannElement(2, {0: 5, 0b01: 2, 0b11: 1})
        assert body(a) == 5
        assert body(theta(2, 1, 2)) == 0

    @given(elements(n=3), elements(n=3))
    def test_body_is_multiplicative(self, a, b):
        assert body(gr_mul(a, b)) == body(a) * body(b)

    def test_part_decompositions(self):
        a = GrassmannElement(2, {0: 5, 0b01: 1, 0b11: 1})
        assert nil_part(a) == GrassmannElement(2, {0b01: 1, 0b11: 1})
        assert even_part(a) == GrassmannElement(2, {0: 5, 0b11: 1})
        assert odd_part(a) == GrassmannElement(2, {0b01: 1})
        assert gr_add(even_part(a), odd_part(a)) == a
        assert gr_add(GrassmannElement.scalar(2, body(a)), nil_part(a)) == a

    def test_nilpotency_bound(self):
        rng = random.Random(11)
        for n in range(1, 5):
            for _ in range(20):
                a = random_element(rng, n)
                power = GrassmannElement.one(n)
                for _ in range(n + 1):
                    power = gr_mul(power, nil_part(a))
                assert power.is_zero()


class TestInverse:
    def test_one_plus_top(self):
        a = gr_add(GrassmannElement.one(2), theta(2, 1, 2))
        assert gr_inv(a) == gr_add(GrassmannElement.one(2), gr_scale(-1, theta(2, 1, 2)))

    def test_scalar(self):
        assert gr_inv(GrassmannElement.scalar(0, 2)) == GrassmannElement.scalar(0, Fraction(1, 2))

    def test_zero_body_rejected(self):
        with pytest.raises(NotInvertibleError):
            gr_inv(theta(2, 1))

    @given(elements())
    def test_inverse_law(self, a):
        if body(a) == 0:
            with pytest.raises(NotInvertibleError):
                gr_inv(a)
        else:
            assert gr_mul(a, gr_inv(a)) == GrassmannElement.one(a.n)
            assert gr_mul(gr_inv(a), a) == GrassmannElement.one(a.n)


class TestMorphisms:
    def test_generator_image(self):
        phi = GrassmannMorphism(1, 2, [gr_add(theta(2, 1), theta(2, 2))])
        assert morphism_apply(phi, theta(1, 1)) == gr_add(theta(2, 1), theta(2, 2))

    def test_terminal_keeps_body(self):
        eps = GrassmannMorphism.terminal(2)
        a = GrassmannElement(2, {0: 3, 0b11: 1})
        assert morphism_apply(eps, a) == GrassmannElement.scalar(0, 3)

    def test_swap_generators(self):
        phi = GrassmannMorphism(2, 2, [theta(2, 2), theta(2, 1)])
        assert morphism_apply(phi, theta(2, 1, 2)) == GrassmannElement.monomial(2, (1, 2), -1)

    def test_even_image_rejected(self):
        with pytest.raises(ParityError):
            GrassmannMorphism(1, 2, [theta(2, 1, 2)])

    def test_wrong_target_rejected(self):
        with pytest.raises(DimensionError):
            GrassmannMorphism(1, 2, [theta(3, 1)])

    @pytest.mark.parametrize("dst_m", [-1, MAX_GENERATORS + 1])
    def test_target_count_out_of_range_rejected(self, dst_m):
        # no image carries the target count, so the constructor checks it itself
        with pytest.raises(DimensionError, match=f"generator count must be in 0..{MAX_GENERATORS}, got {dst_m}"):
            GrassmannMorphism(0, dst_m, [])

    @pytest.mark.parametrize("l", [0, 4, 5, -1])
    def test_kill_generator_index_out_of_range_rejected(self, l):
        with pytest.raises(DimensionError, match=f"generator index {l} outside 1..3"):
            GrassmannMorphism.kill_generator(3, l)

    def test_kill_generator_kills_one_generator(self):
        phi = GrassmannMorphism.kill_generator(3, 2)
        assert phi.images == (theta(3, 1), GrassmannElement.zero(3), theta(3, 3))

    def test_identity_neutral(self):
        rng = random.Random(3)
        from superpoints.sampling import random_morphism

        for _ in range(20):
            phi = random_morphism(rng, 2, 3)
            assert morphism_compose(phi, GrassmannMorphism.identity(2)) == phi
            assert morphism_compose(GrassmannMorphism.identity(3), phi) == phi

    def test_terminal_is_terminal(self):
        rng = random.Random(4)
        from superpoints.sampling import random_morphism

        for _ in range(20):
            phi = random_morphism(rng, 2, 3)
            assert morphism_compose(GrassmannMorphism.terminal(3), phi) == GrassmannMorphism.terminal(2)

    def test_unit_inclusion_after_terminal_fixes_body(self):
        rng = random.Random(9)
        eps = GrassmannMorphism.terminal(3)
        unit = GrassmannMorphism(0, 3, [])
        retract = morphism_compose(unit, eps)
        for _ in range(15):
            a = random_element(rng, 3)
            assert morphism_apply(retract, a) == GrassmannElement.scalar(3, body(a))

    def test_compose_matches_apply(self):
        rng = random.Random(5)
        from superpoints.sampling import random_element, random_morphism

        for _ in range(25):
            phi = random_morphism(rng, 2, 3)
            psi = random_morphism(rng, 3, 2)
            a = random_element(rng, 2)
            assert morphism_apply(morphism_compose(psi, phi), a) == morphism_apply(
                psi, morphism_apply(phi, a)
            )

    def test_apply_preserves_products(self):
        rng = random.Random(6)
        from superpoints.sampling import random_element, random_morphism

        for _ in range(25):
            phi = random_morphism(rng, 3, 3)
            a = random_element(rng, 3)
            b = random_element(rng, 3)
            assert morphism_apply(phi, gr_mul(a, b)) == gr_mul(
                morphism_apply(phi, a), morphism_apply(phi, b)
            )

    def test_apply_preserves_parity(self):
        rng = random.Random(8)
        from superpoints.sampling import random_element, random_morphism

        for _ in range(25):
            phi = random_morphism(rng, 3, 2)
            for parity in (Parity.EVEN, Parity.ODD):
                a = random_element(rng, 3, parity)
                image_parity = parity_of(morphism_apply(phi, a))
                assert image_parity in (parity, Parity.ZERO)


class TestCanonicalForm:
    def test_no_zero_coefficients_stored(self):
        assert GrassmannElement(2, {0b01: 0, 0: 1}).terms == {0: 1}

    def test_out_of_range_monomial(self):
        with pytest.raises(DimensionError):
            GrassmannElement(1, {0b10: 1})

    def test_structural_equality(self):
        a = GrassmannElement(2, {0b11: Fraction(2, 4)})
        b = GrassmannElement(2, {0b11: Fraction(1, 2)})
        assert a == b and hash(a) == hash(b)
