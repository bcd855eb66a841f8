"""JSON encode/decode round trips and byte determinism."""

import json
import random
from fractions import Fraction

import pytest

from superpoints import (
    GrassmannElement,
    Skeleton,
    SuperSpace,
    Superfunction,
    check_naturality,
    injected_constant_family,
    superrep_check,
    vbar_module,
)
from superpoints import jsonio
from superpoints.grassmann import GrassmannMorphism
from superpoints.poly import PolyCoeff
from superpoints.sampling import (
    random_matrix,
    random_morphism,
    random_multilinear,
    random_point,
)
from superpoints.superlinear import MultilinearMap

from helpers import random_polynomial_supermap


class TestRationals:
    def test_integer_string(self):
        assert jsonio.fraction_from_json("3") == 3
        assert jsonio.fraction_from_json(-2) == -2

    def test_ratio_string(self):
        assert jsonio.fraction_from_json("-3/4") == Fraction(-3, 4)

    def test_decimal_rejected(self):
        with pytest.raises(ValueError):
            jsonio.fraction_from_json("0.5")
        with pytest.raises(ValueError):
            jsonio.fraction_from_json(0.5)

    def test_zero_denominator_rejected(self):
        for text in ("1/0", "-3/00"):
            with pytest.raises(ValueError, match="zero denominator"):
                jsonio.fraction_from_json(text)
        assert jsonio.fraction_from_json("0/7") == 0


class TestRoundTrips:
    def test_element(self):
        rng = random.Random(1)
        from superpoints.sampling import random_element

        for _ in range(30):
            e = random_element(rng, rng.randint(0, 5))
            assert jsonio.element_from_json(jsonio.element_to_json(e)) == e

    def test_element_example_schema(self):
        obj = {"n": 2, "terms": [{"idx": [1, 2], "coeff": "3/4"}]}
        e = jsonio.element_from_json(obj)
        assert e == GrassmannElement(2, {0b11: Fraction(3, 4)})
        assert jsonio.element_to_json(e) == obj

    def test_morphism(self):
        rng = random.Random(2)
        for _ in range(20):
            phi = random_morphism(rng, rng.randint(0, 3), rng.randint(0, 3))
            assert jsonio.morphism_from_json(jsonio.morphism_to_json(phi)) == phi

    def test_space_and_multilinear(self):
        rng = random.Random(3)
        for _ in range(20):
            domains = tuple(
                SuperSpace(rng.randint(0, 2), rng.randint(0, 2))
                for _ in range(rng.randint(1, 3))
            )
            codomain = SuperSpace(rng.randint(0, 2), rng.randint(0, 2))
            f = random_multilinear(rng, domains, codomain)
            assert jsonio.multilinear_from_json(jsonio.multilinear_to_json(f)) == f

    def test_point(self):
        rng = random.Random(4)
        for _ in range(20):
            space = SuperSpace(rng.randint(0, 2), rng.randint(0, 2))
            x = random_point(rng, space, rng.randint(0, 4))
            assert jsonio.point_from_json(jsonio.point_to_json(x)) == x

    def test_matrix(self):
        rng = random.Random(5)
        for _ in range(20):
            space = SuperSpace(rng.randint(0, 2), rng.randint(0, 2))
            if space.dim == 0:
                continue
            m = random_matrix(rng, space, rng.randint(0, 3))
            assert jsonio.matrix_from_json(jsonio.matrix_to_json(m)) == m

    def test_skeleton_and_superfunction(self):
        rng = random.Random(6)
        for _ in range(20):
            dom = SuperSpace(rng.randint(0, 2), rng.randint(0, 2))
            cod = SuperSpace(rng.randint(0, 2), rng.randint(0, 2))
            skel = random_polynomial_supermap(rng, dom, cod).skeleton()
            assert jsonio.skeleton_from_json(jsonio.skeleton_to_json(skel)) == skel
        f = Superfunction(1, 2, {0b01: PolyCoeff(1, {(2,): Fraction(1, 3)})})
        assert jsonio.superfunction_from_json(jsonio.superfunction_to_json(f)) == f

    def test_skeleton_with_box(self):
        dom = SuperSpace(1, 1)
        skel = Skeleton(
            dom,
            dom,
            [{((), 1): PolyCoeff.variable(1, 1)}, {((1,), 2): PolyCoeff.const(1, 1)}],
            dom_box=((Fraction(-1, 2), Fraction(3, 2)),),
        )
        again = jsonio.skeleton_from_json(jsonio.skeleton_to_json(skel))
        assert again == skel
        assert jsonio.skeleton_to_json(skel)["dom_box"] == [["-1/2", "3/2"]]

    def test_naturality_report(self):
        rng = random.Random(7)
        v = SuperSpace(1, 0)
        family = injected_constant_family(MultilinearMap.identity(v), 1, (1, 2))
        phi = GrassmannMorphism.kill_generator(2, 1)
        report = check_naturality(family, phi, [(random_point(rng, v, 2),)])
        data = jsonio.naturality_report_to_json(report)
        assert len(data) == 1
        assert set(data[0]) == {"morphism", "sample", "lhs", "rhs"}

    def test_superrep_verdict(self):
        verdict = superrep_check(vbar_module(SuperSpace(1, 1), 3))
        data = jsonio.superrep_verdict_to_json(verdict)
        assert data == {"superrepresentable": True, "format": {"p": 1, "q": 1}, "reasons": []}


class TestDeterminism:
    def test_byte_identical_output(self):
        rng_a = random.Random(42)
        rng_b = random.Random(42)
        from superpoints.sampling import random_element

        for _ in range(10):
            a = random_element(rng_a, 4)
            b = random_element(rng_b, 4)
            assert json.dumps(jsonio.element_to_json(a)) == json.dumps(
                jsonio.element_to_json(b)
            )

    def test_terms_sorted_by_monomial(self):
        e = GrassmannElement(3, {0b100: 1, 0b001: 2, 0b011: 3})
        idx_lists = [t["idx"] for t in jsonio.element_to_json(e)["terms"]]
        assert idx_lists == [[1], [1, 2], [3]]
