"""Skeleton evaluation, composition, superfunctions, and the derived algebra table."""

import random
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superpoints import (
    DimensionError,
    DomainError,
    GrassmannElement,
    GrassmannMorphism,
    LambdaPoint,
    PointFamily,
    Skeleton,
    SuperSpace,
    Superfunction,
    base_change,
    check_supersmooth,
    cs_structure,
    element_to_point,
    identity_family,
    identity_skeleton,
    lift_multilinear,
    point_to_element,
    skeleton_compose,
    skeleton_eval,
    skeleton_to_superfunction,
    superfunction_eval,
    superfunction_mul,
    superfunction_to_skeleton,
)
from superpoints.grassmann import body, gr_mul, gr_scale, nil_part
from superpoints.parser import parse_superfunction
from superpoints.poly import PolyCoeff
from superpoints.sampling import random_point, standard_morphisms
from superpoints.skeleton import _universal_point

from helpers import random_polynomial_supermap


def theta(n, *indices):
    return GrassmannElement.monomial(n, indices)


def x_poly(nvars=1, i=1):
    return PolyCoeff.variable(nvars, i)


class TestEvaluation:
    def test_taylor_with_even_nilpotent(self):
        dom = SuperSpace(1, 0)
        f = Skeleton(dom, dom, [{((), 1): x_poly() ** 2}])
        pt = LambdaPoint(dom, 2, [GrassmannElement(2, {0: 3, 0b11: 5})])
        out = skeleton_eval(f, pt)
        assert out.coords[0] == GrassmannElement(2, {0: 9, 0b11: 30})

    def test_single_odd_form(self):
        dom = SuperSpace(1, 1)
        f = Skeleton(dom, dom, [{}, {((1,), 2): x_poly()}])
        pt = LambdaPoint(dom, 1, [GrassmannElement.scalar(1, 7), theta(1, 1)])
        out = skeleton_eval(f, pt)
        assert out.coords[0].is_zero()
        assert out.coords[1] == GrassmannElement(1, {0b1: 7})

    def test_ground_field_reduces_to_body_map(self):
        rng = random.Random(1)
        dom = SuperSpace(2, 2)
        cod = SuperSpace(1, 1)
        supermap = random_polynomial_supermap(rng, dom, cod)
        skel = supermap.skeleton()
        pt = LambdaPoint(dom, 0, [
            GrassmannElement.scalar(0, 2),
            GrassmannElement.scalar(0, -1),
            GrassmannElement.zero(0),
            GrassmannElement.zero(0),
        ])
        out = skeleton_eval(skel, pt)
        # only the degree-0 form can contribute over the ground field
        expected = supermap.substitute(pt)
        assert out == expected

    def test_substitution_oracle_many_formats(self):
        # the oracle substitutes the coordinates along its own code path;
        # agreement pins every sign
        rng = random.Random(2)
        for trial in range(25):
            dom = SuperSpace(rng.randint(0, 2), rng.randint(0, 2))
            cod = SuperSpace(rng.randint(0, 2), rng.randint(0, 2))
            supermap = random_polynomial_supermap(rng, dom, cod)
            skel = supermap.skeleton()
            for n in range(4):
                pt = random_point(rng, dom, n)
                assert skeleton_eval(skel, pt) == supermap.substitute(pt)

    def test_evaluation_is_natural(self):
        rng = random.Random(3)
        dom = SuperSpace(1, 2)
        cod = SuperSpace(2, 1)
        skel = random_polynomial_supermap(rng, dom, cod).skeleton()
        for src in range(5):
            for dst in range(5):
                for phi in standard_morphisms(src, dst)[:4]:
                    pt = random_point(rng, dom, src)
                    assert skeleton_eval(skel, base_change(phi, pt)) == base_change(
                        phi, skeleton_eval(skel, pt)
                    )

    def test_domain_box(self):
        dom = SuperSpace(1, 0)
        f = Skeleton(dom, dom, [{((), 1): x_poly()}], dom_box=((0, 1),))
        inside = LambdaPoint(dom, 2, [GrassmannElement(2, {0: Fraction(1, 2), 0b11: 1})])
        skeleton_eval(f, inside)
        outside = LambdaPoint(dom, 2, [GrassmannElement(2, {0: 2})])
        with pytest.raises(DomainError):
            skeleton_eval(f, outside)

    def test_format_mismatch(self):
        f = identity_skeleton(SuperSpace(1, 1))
        with pytest.raises(DimensionError):
            skeleton_eval(f, LambdaPoint.zero(SuperSpace(2, 0), 1))


class TestUniqueness:
    def test_probe_agreement_forces_equality(self):
        # two skeletons agreeing on all probes over q+2 generators coincide
        rng = random.Random(4)
        dom = SuperSpace(1, 2)
        cod = SuperSpace(1, 1)
        a = random_polynomial_supermap(rng, dom, cod).skeleton()
        b = random_polynomial_supermap(rng, dom, cod).skeleton()

        def probes():
            n = dom.q + 2
            for u in range(4):
                for mask in range(1 << dom.q):
                    coords = [GrassmannElement(n, {0: u, (1 << (dom.q)) | (1 << (dom.q + 1)): 1})]
                    for b_idx in range(dom.q):
                        if mask & (1 << b_idx):
                            coords.append(GrassmannElement.theta(n, b_idx + 1))
                        else:
                            coords.append(GrassmannElement.zero(n))
                    yield LambdaPoint(dom, n, coords)

        if all(skeleton_eval(a, pt) == skeleton_eval(b, pt) for pt in probes()):
            assert a == b
        else:
            assert a != b

    def test_distinct_skeletons_differ_somewhere(self):
        dom = SuperSpace(1, 1)
        a = Skeleton(dom, dom, [{((), 1): x_poly()}, {((1,), 2): PolyCoeff.const(1, 1)}])
        b = Skeleton(dom, dom, [{((), 1): x_poly()}, {((1,), 2): PolyCoeff.const(1, 2)}])
        pt = LambdaPoint(dom, 1, [GrassmannElement.scalar(1, 1), theta(1, 1)])
        assert skeleton_eval(a, pt) != skeleton_eval(b, pt)


class TestComposition:
    def test_identity_neutral(self):
        rng = random.Random(5)
        dom = SuperSpace(1, 2)
        cod = SuperSpace(2, 1)
        f = random_polynomial_supermap(rng, dom, cod).skeleton()
        assert skeleton_compose(f, identity_skeleton(dom)) == f
        assert skeleton_compose(identity_skeleton(cod), f) == f

    def test_chain_rule_example(self):
        # inner map: body x, plus a 2-form with coefficient c(x) = x
        # outer map: x^2; the composite 2-form coefficient is 2*x*c(x)
        f = Skeleton(SuperSpace(1, 2), SuperSpace(1, 0), [
            {((), 1): x_poly()},
            {},
            {((1, 2), 1): x_poly()},
        ])
        g = Skeleton(SuperSpace(1, 0), SuperSpace(1, 0), [{((), 1): x_poly() ** 2}])
        composite = skeleton_compose(g, f)
        assert composite.forms[0] == {((), 1): x_poly() ** 2}
        assert composite.forms[2] == {((1, 2), 1): PolyCoeff(1, {(2,): 2})}

    def test_evaluation_agreement(self):
        rng = random.Random(6)
        for trial in range(10):
            a = SuperSpace(rng.randint(0, 2), rng.randint(0, 2))
            b = SuperSpace(rng.randint(0, 2), rng.randint(0, 2))
            c = SuperSpace(rng.randint(0, 2), rng.randint(0, 2))
            f = random_polynomial_supermap(rng, a, b).skeleton()
            g = random_polynomial_supermap(rng, b, c).skeleton()
            composite = skeleton_compose(g, f)
            for n in range(4):
                pt = random_point(rng, a, n)
                assert skeleton_eval(composite, pt) == skeleton_eval(
                    g, skeleton_eval(f, pt)
                )

    def test_associative_by_evaluation(self):
        rng = random.Random(7)
        for trial in range(5):
            a = SuperSpace(1, rng.randint(0, 2))
            b = SuperSpace(rng.randint(0, 2), 1)
            c = SuperSpace(1, 1)
            d = SuperSpace(rng.randint(0, 2), rng.randint(0, 2))
            f = random_polynomial_supermap(rng, a, b).skeleton()
            g = random_polynomial_supermap(rng, b, c).skeleton()
            h = random_polynomial_supermap(rng, c, d).skeleton()
            left = skeleton_compose(skeleton_compose(h, g), f)
            right = skeleton_compose(h, skeleton_compose(g, f))
            assert left == right
            for n in range(4):
                pt = random_point(rng, a, n)
                assert skeleton_eval(left, pt) == skeleton_eval(right, pt)

    def test_substitution_oracle(self):
        # the composite's value against substituting twice with the oracle,
        # which shares no code with the skeleton walk or the pullback
        rng = random.Random(13)
        formats = [
            ((3, 4), (3, 4)), ((3, 4), (2, 2)), ((1, 3), (3, 4)), ((2, 4), (3, 1)),
            ((2, 2), (2, 4)), ((0, 3), (1, 2)), ((2, 0), (1, 3)), ((3, 1), (0, 2)),
        ]
        for (a, b), degree in zip(formats, [2, 3] * 4):
            a, b = SuperSpace(*a), SuperSpace(*b)
            c = SuperSpace(rng.randint(1, 2), rng.randint(1, 2))
            f_sm = random_polynomial_supermap(rng, a, b, max_degree=degree, density=0.8)
            g_sm = random_polynomial_supermap(rng, b, c, max_degree=degree, density=0.8)
            composite = skeleton_compose(g_sm.skeleton(), f_sm.skeleton())
            for n in range(5):
                pt = random_point(rng, a, n)
                assert skeleton_eval(composite, pt) == g_sm.substitute(f_sm.substitute(pt))

    def test_composite_inherits_inner_box(self):
        dom = SuperSpace(1, 1)
        f = Skeleton(dom, dom, [{((), 1): x_poly()}, {((1,), 2): x_poly()}], dom_box=((0, 2),))
        g = Skeleton(dom, SuperSpace(1, 0), [{((), 1): x_poly() ** 2}, {}])
        composite = skeleton_compose(g, f)
        assert composite.dom_box == f.dom_box
        inside = LambdaPoint(dom, 1, [GrassmannElement.scalar(1, 1), theta(1, 1)])
        assert skeleton_eval(composite, inside) == skeleton_eval(g, skeleton_eval(f, inside))
        outside = LambdaPoint(dom, 1, [GrassmannElement.scalar(1, 3), theta(1, 1)])
        with pytest.raises(DomainError):
            skeleton_eval(composite, outside)


class TestSuperfunctions:
    def test_round_trip_example(self):
        f = Superfunction(1, 2, {0: x_poly(), 0b11: PolyCoeff.const(1, 1)})
        skel = superfunction_to_skeleton(f)
        assert skel.forms[0] == {((), 1): x_poly()}
        assert skel.forms[2] == {((1, 2), 1): PolyCoeff.const(1, -1)}
        assert skeleton_to_superfunction(skel) == f

    def test_round_trip_single_odd_term(self):
        f = Superfunction(0, 1, {0b1: PolyCoeff.const(0, 1)})
        skel = superfunction_to_skeleton(f)
        assert list(skel.forms[1]) == [((1,), 2)]
        assert skeleton_to_superfunction(skel) == f

    def test_round_trip_random(self):
        rng = random.Random(8)
        for _ in range(40):
            p = rng.randint(0, 2)
            q = rng.randint(0, 3)
            terms = {}
            for mask in range(1 << q):
                if rng.random() < 0.5:
                    poly_terms = {
                        exps: Fraction(rng.randint(-3, 3))
                        for exps in _exponents(p, 3)
                        if rng.random() < 0.4
                    }
                    terms[mask] = PolyCoeff(p, poly_terms)
            f = Superfunction(p, q, terms)
            assert skeleton_to_superfunction(superfunction_to_skeleton(f)) == f

    def test_product_signs(self):
        t1 = Superfunction.theta(0, 2, 1)
        t2 = Superfunction.theta(0, 2, 2)
        t12 = Superfunction(0, 2, {0b11: PolyCoeff.const(0, 1)})
        assert superfunction_mul(t1, t2) == t12
        assert superfunction_mul(t2, t1) == -1 * t12

    def test_square_difference(self):
        x = Superfunction.coordinate(1, 1, 1)
        t1 = Superfunction.theta(1, 1, 1)
        assert (x + t1) * (x - t1) == x * x

    def test_algebra_laws(self):
        rng = random.Random(9)
        for _ in range(15):
            p, q = rng.randint(0, 1), rng.randint(1, 3)
            fs = [_random_superfunction(rng, p, q) for _ in range(3)]
            f, g, h = fs
            assert (f * g) * h == f * (g * h)
            assert f * (g + h) == f * g + f * h
            one = Superfunction.const(p, q, 1)
            assert one * f == f == f * one

    def test_supercommutativity(self):
        rng = random.Random(10)
        for _ in range(15):
            q = rng.randint(1, 3)
            f = _random_superfunction(rng, 1, q, parity=0)
            g = _random_superfunction(rng, 1, q, parity=1)
            h = _random_superfunction(rng, 1, q, parity=1)
            assert f * g == g * f
            assert g * h == -1 * (h * g)

    def test_eval_is_algebra_morphism(self):
        # substitution evaluation turns the superfunction product into the
        # Grassmann product, through the skeleton correspondence
        rng = random.Random(11)
        for _ in range(10):
            p, q = 1, 2
            f = _random_superfunction(rng, p, q)
            g = _random_superfunction(rng, p, q)
            dom = SuperSpace(p, q)
            for n in range(4):
                pt = random_point(rng, dom, n)
                lhs = superfunction_eval(superfunction_mul(f, g), pt)
                rhs = gr_mul(superfunction_eval(f, pt), superfunction_eval(g, pt))
                assert lhs == rhs

    def test_skeleton_eval_matches_substitution(self):
        rng = random.Random(12)
        for _ in range(10):
            f = _random_superfunction(rng, 1, 2)
            skel = superfunction_to_skeleton(f)
            dom = SuperSpace(1, 2)
            for n in range(4):
                pt = random_point(rng, dom, n)
                assert point_to_element(skeleton_eval(skel, pt)) == superfunction_eval(f, pt)

    def test_parse_example(self):
        f = parse_superfunction("x1 + t1*t2", 1, 2)
        assert f == Superfunction(1, 2, {0: x_poly(), 0b11: PolyCoeff.const(1, 1)})

    def test_wrong_codomain_rejected(self):
        skel = identity_skeleton(SuperSpace(1, 2))
        with pytest.raises(DimensionError):
            skeleton_to_superfunction(skel)


def _exponents(p, max_degree):
    import itertools

    return [
        exps
        for exps in itertools.product(range(max_degree + 1), repeat=p)
        if sum(exps) <= max_degree
    ]


def _random_superfunction(rng, p, q, parity=None, max_degree=2):
    terms = {}
    for mask in range(1 << q):
        if parity is not None and mask.bit_count() % 2 != parity:
            continue
        if rng.random() < 0.6:
            poly_terms = {
                exps: Fraction(rng.randint(-2, 2))
                for exps in _exponents(p, max_degree)
                if rng.random() < 0.5
            }
            terms[mask] = PolyCoeff(p, poly_terms)
    return Superfunction(p, q, terms)


class TestCsStructure:
    def test_table_is_derived(self):
        mu = cs_structure()
        assert mu.entry((1, 1), 1) == 1
        assert mu.entry((1, 2), 2) == 1
        assert mu.entry((2, 1), 2) == 1
        assert mu.entry((2, 2), 1) == -1
        assert len(mu.coeffs) == 4

    def test_lifted_product_is_grassmann_product(self):
        mu = cs_structure()
        for n in (1, 2, 3):
            basis = [GrassmannElement(n, {mask: 1}) for mask in range(1 << n)]
            for a in basis:
                for b in basis:
                    lifted = lift_multilinear(mu, (element_to_point(a), element_to_point(b)))
                    assert point_to_element(lifted) == gr_mul(a, b)

    def test_generic_inverse_identity(self):
        # (a + b*t) * (a - b*t) = a^2 + b^2 in the derived algebra, verified
        # symbolically with polynomial scalars
        mu = cs_structure()
        a = PolyCoeff.variable(2, 1)
        b = PolyCoeff.variable(2, 2)

        def cs_mul(u, v):
            out = [PolyCoeff.zero(2), PolyCoeff.zero(2)]
            for (ins, c), coeff in mu.coeffs.items():
                out[c - 1] = out[c - 1] + coeff * u[ins[0] - 1] * v[ins[1] - 1]
            return out

        product = cs_mul([a, b], [a, -b])
        assert product[0] == a * a + b * b
        assert product[1].is_zero()

    def test_noncommutative(self):
        mu = cs_structure()

        def cs_mul(u, v):
            out = [Fraction(0), Fraction(0)]
            for (ins, c), coeff in mu.coeffs.items():
                out[c - 1] += coeff * u[ins[0] - 1] * v[ins[1] - 1]
            return out

        u = [Fraction(0), Fraction(1)]
        assert cs_mul(u, u) == [Fraction(-1), Fraction(0)]  # t*t = -1, not -t*t


class TestCheckSupersmooth:
    def test_recovers_known_skeleton(self):
        rng = random.Random(13)
        dom = SuperSpace(1, 1)
        cod = SuperSpace(1, 1)
        skel = random_polynomial_supermap(rng, dom, cod, max_degree=2).skeleton()
        family = PointFamily((dom,), cod, lambda n, args: skeleton_eval(skel, args[0]))
        verdict = check_supersmooth(family, max_degree=3, n_max=3)
        assert verdict.supersmooth, verdict.diagnostics
        assert verdict.skeleton == skel

    def test_body_scaling_fails_linearity(self):
        dom = SuperSpace(1, 1)

        def component(n, args):
            t_coord, xi = args[0].coords
            return LambdaPoint(dom, n, (t_coord, gr_scale(body(t_coord), xi)))

        family = PointFamily((dom,), dom, component)
        verdict = check_supersmooth(family, max_degree=3, n_max=3)
        assert not verdict.supersmooth
        assert any("universal point" in d for d in verdict.diagnostics)

    def test_constant_family_passes(self):
        dom = SuperSpace(1, 2)
        cod = SuperSpace(1, 0)
        value = GrassmannElement.scalar(0, 5)

        def component(n, args):
            return LambdaPoint(cod, n, (GrassmannElement.scalar(n, 5),))

        family = PointFamily((dom,), cod, component)
        verdict = check_supersmooth(family, max_degree=2, n_max=3)
        assert verdict.supersmooth
        assert verdict.skeleton.forms[0] == {((), 1): PolyCoeff.const(1, 5)}
        assert all(not table for table in verdict.skeleton.forms[1:])


rationals = st.fractions(min_value=-5, max_value=5, max_denominator=4)


@st.composite
def lambda_points(draw):
    p, q, m = draw(st.integers(0, 2)), draw(st.integers(0, 2)), draw(st.integers(0, 4))
    space = SuperSpace(p, q)
    coords = []
    for i in space.indices():
        masks = [mask for mask in range(1 << m) if mask.bit_count() % 2 == space.parity(i)]
        terms = draw(st.dictionaries(st.sampled_from(masks), rationals, max_size=4)) if masks else {}
        coords.append(GrassmannElement(m, terms))
    return LambdaPoint(space, m, coords)


def covering_morphism(x: LambdaPoint) -> GrassmannMorphism:
    """The morphism sending the universal point with the body of ``x`` to ``x``:
    ``s_{a,j} -> t_{j+1}``, ``s'_{a,j}`` -> the odd cofactor of ``t_{j+1}`` among
    the monomials of coordinate ``a`` whose lowest generator is ``t_{j+1}``,
    and the odd generators to the odd coordinates."""
    p, q, m = x.space.p, x.space.q, x.n
    pairs = max(m - 1, 0)
    images = []
    for a in range(p):
        for j in range(pairs):
            cofactor = {
                mask ^ (1 << j): c
                for mask, c in x.coords[a].terms.items()
                if mask & -mask == 1 << j
            }
            images += [theta(m, j + 1), GrassmannElement(m, cofactor)]
    images += x.coords[p:]
    return GrassmannMorphism(2 * p * pairs + q, m, images)


def body_power_scaling(k):
    dom = SuperSpace(1, 1)

    def component(n, args):
        t_coord, xi = args[0].coords
        return LambdaPoint(dom, n, (t_coord, gr_scale(body(t_coord) ** k, xi)))

    return PointFamily((dom,), dom, component)


def sign_branch(n, args):
    t_coord, xi = args[0].coords
    return LambdaPoint(args[0].space, n, (t_coord if body(t_coord) >= 0 else -t_coord, xi))


def injected_t1t2(n, args):
    t_coord, xi = args[0].coords
    if n >= 2:
        t_coord = t_coord + theta(n, 1, 2)
    return LambdaPoint(args[0].space, n, (t_coord, xi))


def square_without_eta_squared(n, args):
    (t_coord,) = args[0].coords
    b = body(t_coord)
    return LambdaPoint(args[0].space, n, (GrassmannElement.scalar(n, b * b) + gr_scale(2 * b, nil_part(t_coord)),))


NOT_SUPERSMOOTH = {
    "body^2 scaling": body_power_scaling(2),
    "body^3 scaling": body_power_scaling(3),
    "sign-of-body branch": PointFamily((SuperSpace(1, 1),), SuperSpace(1, 1), sign_branch),
    "t1*t2 injected": PointFamily((SuperSpace(1, 1),), SuperSpace(1, 1), injected_t1t2),
    "square without eta^2": PointFamily((SuperSpace(1, 0),), SuperSpace(1, 0), square_without_eta_squared),
}


class TestUniversalPointCertificate:
    @settings(max_examples=80, deadline=None)
    @given(lambda_points())
    def test_universal_point_covers_every_point(self, x):
        u = [c.terms.get(0, Fraction(0)) for c in x.coords[: x.space.p]]
        universal = _universal_point(x.space, u, max(x.n - 1, 0))
        assert base_change(covering_morphism(x), universal) == x

    def test_body_scaling_rejected_at_every_seed(self):
        family = body_power_scaling(1)
        passed = [s for s in range(1, 51) if check_supersmooth(family, max_degree=3, n_max=3, seed=s).supersmooth]
        assert passed == []

    @pytest.mark.parametrize("name", NOT_SUPERSMOOTH)
    def test_non_supersmooth_rejected_at_every_seed(self, name):
        family = NOT_SUPERSMOOTH[name]
        for s in range(1, 21):
            verdict = check_supersmooth(family, max_degree=3, n_max=3, seed=s)
            assert not verdict.supersmooth, s
            assert verdict.diagnostics

    @pytest.mark.parametrize("p, q", [(1, 1), (1, 2), (2, 1)])
    def test_polynomial_supermaps_recovered(self, p, q):
        dom, cod = SuperSpace(p, q), SuperSpace(1, 1)
        for s in range(1, 11):
            supermap = random_polynomial_supermap(random.Random(s), dom, cod, max_degree=2)
            family = PointFamily((dom,), cod, lambda n, args: supermap.substitute(args[0]))
            verdict = check_supersmooth(family, max_degree=3, n_max=3, seed=s)
            assert verdict.supersmooth, (s, verdict.diagnostics)
            assert verdict.skeleton == supermap.skeleton()


def dense_only_at_two(n, args):
    """The 1|1 identity, except that over Λ_2 the product of the four
    coefficients of the point is added to the ``t1*t2`` coefficient of its even
    coordinate, which sparse points leave at zero.  Gates 1 and 2 at
    ``n_max = 3`` never call it over Λ_2."""
    t_coord, xi = args[0].coords
    if n == 2:
        weight = prod(c.terms.get(m, 0) for c, m in ((t_coord, 0), (t_coord, 0b11), (xi, 0b01), (xi, 0b10)))
        t_coord = t_coord + gr_scale(weight, theta(2, 1, 2))
    return LambdaPoint(args[0].space, n, (t_coord, xi))


def polynomial_supermap_families():
    for p, q in ((1, 1), (1, 2), (2, 1)):
        dom = SuperSpace(p, q)
        for s in range(1, 4):
            supermap = random_polynomial_supermap(random.Random(s), dom, SuperSpace(1, 1), max_degree=2)
            yield PointFamily((dom,), SuperSpace(1, 1), lambda n, args, f=supermap: f.substitute(args[0]))


class TestFixedNaturalitySamples:
    """Gate 3 at one fixed dense point per source count, and the decision that
    stops at its first failing gate."""

    def test_verdicts_do_not_depend_on_the_seed(self):
        families = [*NOT_SUPERSMOOTH.values(), body_power_scaling(1), *polynomial_supermap_families()]
        for family in families:
            first = check_supersmooth(family, max_degree=3, n_max=3, seed=1)
            for s in range(2, 21):
                assert check_supersmooth(family, max_degree=3, n_max=3, seed=s) == first, s

    def test_change_at_one_unprobed_count_rejected(self):
        family = PointFamily((SuperSpace(1, 1),), SuperSpace(1, 1), dense_only_at_two)
        for s in range(1, 21):
            verdict = check_supersmooth(family, max_degree=3, n_max=3, seed=s)
            assert not verdict.supersmooth
            assert verdict.diagnostics and all(d.startswith("not natural under") for d in verdict.diagnostics)

    def test_no_random_point(self, monkeypatch):
        from superpoints import sampling

        def refuse(*args):
            raise AssertionError("check_supersmooth drew a random point")

        monkeypatch.setattr(sampling, "random_point", refuse)
        family = next(polynomial_supermap_families())
        assert check_supersmooth(family, max_degree=3, n_max=3).supersmooth
        assert not check_supersmooth(NOT_SUPERSMOOTH["t1*t2 injected"], max_degree=3, n_max=3).supersmooth

    @pytest.mark.parametrize("name, failing", [("body^2 scaling", 1), ("sign-of-body branch", 5)])
    def test_gate_2_ends_the_decision(self, name, failing):
        family = NOT_SUPERSMOOTH[name]
        calls = [0]

        def component(n, args):
            calls[0] += 1
            return family.component(n, args)

        verdict = check_supersmooth(PointFamily(family.domains, family.codomain, component), max_degree=3, n_max=3)
        assert not verdict.supersmooth
        assert len(verdict.diagnostics) == 1 and "universal point" in verdict.diagnostics[0]
        assert verdict.checked == (4, failing, 0)
        assert calls[0] == 4 + failing

    def test_checked_counts_every_gate(self):
        verdict = check_supersmooth(identity_family(SuperSpace(3, 2)), max_degree=4, n_max=4)
        assert verdict.supersmooth
        squares = sum(len(standard_morphisms(src, dst)) for src in range(5) for dst in range(5))
        assert verdict.checked == (125, 127, squares) and squares == 121
