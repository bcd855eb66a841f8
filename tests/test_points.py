"""Lambda-points: base change, lifts, reconstruction, naturality, superpoints."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superpoints import (
    CandidateModule,
    DimensionError,
    GrassmannElement,
    GrassmannMorphism,
    LambdaPoint,
    MultilinearMap,
    ParityError,
    ReconstructionError,
    SuperSpace,
    SuperVector,
    apply_multilinear,
    base_change,
    check_naturality,
    gr_add,
    gr_mul,
    decompose_point,
    identity_family,
    injected_constant_family,
    lift_family,
    lift_multilinear,
    morphism_apply,
    morphism_compose,
    morphism_to_point,
    point_to_morphism,
    reconstruct_multilinear,
    scale_point,
    superrep_check,
    vbar_module,
    vnil_module,
)
from superpoints.points import PointFamily
from superpoints.sampling import (
    random_morphism,
    random_multilinear,
    random_point,
    standard_morphisms,
)

from helpers import naturality_reference


def theta(n, *indices):
    return GrassmannElement.monomial(n, indices)


class TestLambdaPoint:
    def test_parity_slots_enforced(self):
        v = SuperSpace(1, 1)
        with pytest.raises(ParityError):
            LambdaPoint(v, 1, [theta(1, 1), GrassmannElement.one(1)])

    def test_zero_point(self):
        x = LambdaPoint.zero(SuperSpace(2, 1), 3)
        assert all(c.is_zero() for c in x.coords)

    def test_generator_count_out_of_range_rejected(self):
        # a point of 0|0 has no coordinate that would carry the count
        with pytest.raises(DimensionError, match="generator count must be in 0..64, got -1"):
            LambdaPoint(SuperSpace(0, 0), -1, [])


class TestBaseChange:
    def test_identity(self):
        rng = random.Random(1)
        v = SuperSpace(1, 2)
        for _ in range(10):
            x = random_point(rng, v, 3)
            assert base_change(GrassmannMorphism.identity(3), x) == x

    def test_terminal_keeps_even_bodies(self):
        v = SuperSpace(1, 1)
        x = LambdaPoint(v, 2, [GrassmannElement(2, {0: 3, 0b11: 1}), theta(2, 1)])
        y = base_change(GrassmannMorphism.terminal(2), x)
        assert y.coords[0] == GrassmannElement.scalar(0, 3)
        assert y.coords[1].is_zero()

    def test_functorial_in_chains(self):
        rng = random.Random(2)
        v = SuperSpace(2, 2)
        for _ in range(15):
            phi = random_morphism(rng, 3, 2)
            psi = random_morphism(rng, 2, 0)
            x = random_point(rng, v, 3)
            assert base_change(morphism_compose(psi, phi), x) == base_change(
                psi, base_change(phi, x)
            )

    def test_functor_laws_on_grid(self):
        rng = random.Random(3)
        v = SuperSpace(1, 1)
        points = [random_point(rng, v, n) for n in range(4) for _ in range(2)]
        for x in points:
            assert base_change(GrassmannMorphism.identity(x.n), x) == x
        for src in range(4):
            for mid in range(4):
                for dst in range(4):
                    for phi in standard_morphisms(src, mid)[:3]:
                        for psi in standard_morphisms(mid, dst)[:3]:
                            for x in points:
                                if x.n != src:
                                    continue
                                assert base_change(
                                    morphism_compose(psi, phi), x
                                ) == base_change(psi, base_change(phi, x))


class TestDecompose:
    def test_example(self):
        v = SuperSpace(1, 1)
        x = LambdaPoint(v, 2, [GrassmannElement(2, {0: 3, 0b11: 1}), theta(2, 1)])
        body_vec, nil = decompose_point(x)
        assert body_vec == SuperVector(v, (3, 0))
        assert nil.coords[0] == theta(2, 1, 2)
        assert nil.coords[1] == theta(2, 1)

    def test_rational_point_has_zero_nil(self):
        v = SuperSpace(2, 0)
        x = LambdaPoint.from_vector(SuperVector(v, (1, 2)), 2)
        _, nil = decompose_point(x)
        assert nil == LambdaPoint.zero(v, 2)

    def test_recompose(self):
        rng = random.Random(4)
        v = SuperSpace(2, 1)
        for _ in range(20):
            x = random_point(rng, v, 3)
            body_vec, nil = decompose_point(x)
            assert LambdaPoint.from_vector(body_vec, 3) + nil == x


class TestLift:
    def test_reversed_coordinate_order(self):
        # bilinear form on the purely odd line: value theta2*theta1 = -t1*t2
        v = SuperSpace(0, 1)
        w = SuperSpace(1, 0)
        b = MultilinearMap((v, v), w, {((1, 1), 1): 1})
        x1 = LambdaPoint(v, 2, [theta(2, 1)])
        x2 = LambdaPoint(v, 2, [theta(2, 2)])
        assert lift_multilinear(b, (x1, x2)).coords[0] == GrassmannElement.monomial(
            2, (1, 2), -1
        )

    def test_identity_lift(self):
        rng = random.Random(5)
        v = SuperSpace(2, 2)
        ident = MultilinearMap.identity(v)
        for _ in range(10):
            x = random_point(rng, v, 3)
            assert lift_multilinear(ident, (x,)) == x

    def test_reduces_to_plain_map_over_ground_field(self):
        rng = random.Random(6)
        v = SuperSpace(2, 1)
        w = SuperSpace(1, 2)
        f = random_multilinear(rng, (v, v), w)
        for _ in range(10):
            vec_a = SuperVector(v, tuple(Fraction(rng.randint(-2, 2)) if v.parity(i) == 0 else Fraction(0) for i in v.indices()))
            vec_b = SuperVector(v, tuple(Fraction(rng.randint(-2, 2)) if v.parity(i) == 0 else Fraction(0) for i in v.indices()))
            lifted = lift_multilinear(
                f, (LambdaPoint.from_vector(vec_a, 0), LambdaPoint.from_vector(vec_b, 0))
            )
            plain = apply_multilinear(f, (vec_a, vec_b))
            assert lifted == LambdaPoint.from_vector(plain, 0)

    def test_linear_over_even_scalars(self):
        rng = random.Random(7)
        v = SuperSpace(1, 1)
        f = random_multilinear(rng, (v, v), v)
        scalar = GrassmannElement(3, {0: 2, 0b011: 1})
        for _ in range(5):
            x = random_point(rng, v, 3)
            y = random_point(rng, v, 3)
            assert lift_multilinear(f, (scale_point(scalar, x), y)) == scale_point(
                scalar, lift_multilinear(f, (x, y))
            )


def naive_lift(f, args):
    """Reference lift: per entry, a chain of products over the arguments in
    reversed order, added to its output coordinate."""
    n = args[0].n
    out = [GrassmannElement.zero(n)] * f.codomain.dim
    for (ins, c), coeff in f.coeffs.items():
        factor = GrassmannElement.scalar(n, coeff)
        for x, i in zip(reversed(args), reversed(ins)):
            factor = gr_mul(factor, x.coords[i - 1])
        out[c - 1] = gr_add(out[c - 1], factor)
    return LambdaPoint(f.codomain, n, out)


def sparse_point(rng, space, n):
    """A point with at most one monomial per coordinate and most coordinates zero."""
    x = random_point(rng, space, n, max_terms=1)
    coords = [c if rng.random() < 0.4 else GrassmannElement.zero(n) for c in x.coords]
    return LambdaPoint(space, n, coords)


small_formats = st.tuples(st.integers(0, 2), st.integers(0, 2)).map(lambda pq: SuperSpace(*pq))


class TestFusedLift:
    """The fused sum of products agrees with the chain of products it replaces."""

    @settings(max_examples=80, deadline=None)
    @given(
        st.randoms(use_true_random=False),
        st.lists(small_formats, min_size=1, max_size=3),
        small_formats,
        st.integers(0, 6),
        st.sampled_from([0.0, 0.3, 1.0]),
        st.booleans(),
    )
    def test_matches_the_chain_of_products(self, rng, domains, codomain, n, density, sparse):
        f = random_multilinear(rng, tuple(domains), codomain, density)
        make = sparse_point if sparse else lambda r, s, m: random_point(r, s, m, max_terms=4)
        args = [make(rng, space, n) for space in domains]
        want = naive_lift(f, args)
        for _ in range(2):  # the second call walks the cached trie
            got = lift_multilinear(f, args)
            assert got == want and hash(got) == hash(want)
            assert all(type(c) is Fraction and c for coord in got.coords for c in coord.terms.values())

    def test_shape_errors(self):
        v = SuperSpace(1, 1)
        with pytest.raises(DimensionError):
            lift_multilinear(MultilinearMap((), v, {}), [])
        f = MultilinearMap.identity(v)
        with pytest.raises(DimensionError):
            lift_multilinear(f, [LambdaPoint.zero(v, 1)] * 2)
        with pytest.raises(DimensionError):
            lift_multilinear(f, [LambdaPoint.zero(SuperSpace(1, 0), 1)])
        g = MultilinearMap((v, v), v, {((1, 1), 1): 1})
        with pytest.raises(DimensionError):
            lift_multilinear(g, [LambdaPoint.zero(v, 1), LambdaPoint.zero(v, 2)])

    def test_caches_leave_equality_and_hash_alone(self):
        rng = random.Random(3)
        v = SuperSpace(1, 2)
        f = random_multilinear(rng, (v, v), v)
        g = MultilinearMap(f.domains, f.codomain, f.coeffs)
        before = hash(f)
        lift_multilinear(f, [random_point(rng, v, 3), random_point(rng, v, 3)])
        assert f._trie is not None and g._trie is None
        assert f == g and g == f and hash(f) == hash(g) == before
        phi = random_morphism(rng, 3, 4)
        psi = GrassmannMorphism(phi.src_n, phi.dst_m, phi.images)
        before = hash(phi)
        morphism_apply(phi, GrassmannElement.one(3) + theta(3, 1, 2))
        assert phi._nums is not None and psi._nums is None
        assert phi == psi and psi == phi and hash(phi) == hash(psi) == before

    def test_zero_maps_to_the_zero_of_the_target(self):
        phi = random_morphism(random.Random(4), 2, 5)
        image = morphism_apply(phi, GrassmannElement.zero(2))
        assert image == GrassmannElement.zero(5) and image.n == 5


class TestReconstruct:
    def test_round_trip_random(self):
        rng = random.Random(8)
        for _ in range(30):
            arity = rng.randint(1, 3)
            domains = tuple(
                SuperSpace(rng.randint(0, 2), rng.randint(0, 2)) for _ in range(arity)
            )
            codomain = SuperSpace(rng.randint(0, 2), rng.randint(0, 2))
            f = random_multilinear(rng, domains, codomain, density=0.4)
            assert reconstruct_multilinear(lift_family(f)) == f

    def test_zero_family(self):
        v = SuperSpace(1, 1)
        zero = MultilinearMap.zero((v, v), v)
        assert reconstruct_multilinear(lift_family(zero)) == zero

    def test_lift_of_reconstruction_matches_family(self):
        rng = random.Random(9)
        v = SuperSpace(1, 1)
        f = random_multilinear(rng, (v, v), v)
        family = lift_family(f)
        g = reconstruct_multilinear(family)
        for n in range(4):
            for _ in range(5):
                args = (random_point(rng, v, n), random_point(rng, v, n))
                assert lift_multilinear(g, args) == family(n, args)

    def test_constant_injection_rejected_by_kill_morphisms(self):
        # the constant lands exactly on the top probe monomial, so only the
        # generator-killing morphisms expose it
        v = SuperSpace(0, 1)
        w = SuperSpace(1, 0)
        b = MultilinearMap((v, v), w, {((1, 1), 1): 1})
        family = injected_constant_family(b, out_index=1, indices=(1, 2))
        with pytest.raises(ReconstructionError) as exc_info:
            reconstruct_multilinear(family)
        assert exc_info.value.witness is not None
        assert "morphism" in exc_info.value.witness

    def test_stray_lower_term_rejected(self):
        # every probe of this map uses two generators, so a constant term in
        # the output is a lower-order monomial relative to the top
        v = SuperSpace(0, 2)
        w = SuperSpace(1, 0)
        f = MultilinearMap((v, v), w, {((1, 2), 1): 1, ((2, 1), 1): -1})

        def polluted(n, args):
            value = lift_multilinear(f, args)
            coords = list(value.coords)
            coords[0] = coords[0] + GrassmannElement.one(n)
            return LambdaPoint(w, n, coords)

        family = PointFamily((v, v), w, polluted)
        with pytest.raises(ReconstructionError) as exc_info:
            reconstruct_multilinear(family)
        assert "stray" in str(exc_info.value)


class TestNaturality:
    def test_lifted_maps_pass_everywhere(self):
        rng = random.Random(10)
        v = SuperSpace(1, 1)
        w = SuperSpace(2, 1)
        f = random_multilinear(rng, (v, w), v)
        family = lift_family(f)
        for src in range(4):
            for dst in range(4):
                for phi in standard_morphisms(src, dst):
                    samples = [
                        (random_point(rng, v, src), random_point(rng, w, src))
                        for _ in range(3)
                    ]
                    report = check_naturality(family, phi, samples)
                    assert report.passed, report.violations

    def test_identity_family_passes(self):
        rng = random.Random(11)
        v = SuperSpace(1, 2)
        family = identity_family(v)
        for phi in standard_morphisms(3, 2):
            samples = [(random_point(rng, v, 3),) for _ in range(3)]
            assert check_naturality(family, phi, samples).passed

    def test_equals_the_reference_on_base_change(self):
        rng = random.Random(13)
        v, w = SuperSpace(1, 1), SuperSpace(0, 2)
        families = [
            (lift_family(random_multilinear(rng, (v, w), v)), (v, w)),
            (injected_constant_family(MultilinearMap.identity(v), out_index=1, indices=(1, 2)), (v,)),
            (injected_constant_family(random_multilinear(rng, (w, v), v), out_index=2, indices=(2,)), (w, v)),
            (identity_family(w), (w,)),
        ]
        violations = 0
        for family, domains in families:
            for src in range(4):
                for dst in range(4):
                    for phi in standard_morphisms(src, dst):
                        samples = [tuple(random_point(rng, d, src, 3) for d in domains) for _ in range(2)]
                        report = check_naturality(family, phi, samples)
                        assert report == naturality_reference(family, phi, samples)
                        violations += len(report.violations)
        assert violations

    @pytest.mark.parametrize("refuse", [lambda n: False, lambda n: True, lambda n: n == 2, lambda n: n == 3])
    def test_errors_of_the_reference(self, refuse):
        v = SuperSpace(1, 1)

        def component(n, args):
            if refuse(n):
                raise ValueError(f"refused over {n} generators")
            return args[0]

        family = PointFamily((v,), v, component)
        phi = standard_morphisms(2, 3)[-1]
        x = random_point(random.Random(14), v, 2)

        def outcome(check, samples):
            try:
                return check(family, phi, samples)
            except ValueError as exc:
                return type(exc), str(exc)

        for samples in ([(x,)], [x], [(x,), (LambdaPoint.zero(v, 3),)]):
            assert outcome(check_naturality, samples) == outcome(naturality_reference, samples)

    def test_fixed_constant_family_fails_with_witness(self):
        rng = random.Random(12)
        v = SuperSpace(1, 0)
        ident = MultilinearMap.identity(v)
        family = injected_constant_family(ident, out_index=1, indices=(1, 2))
        phi = GrassmannMorphism.kill_generator(2, 1)
        samples = [(random_point(rng, v, 2),) for _ in range(3)]
        report = check_naturality(family, phi, samples)
        assert not report.passed
        violation = report.violations[0]
        assert violation.lhs != violation.rhs
        assert violation.morphism == phi


class TestSuperpoints:
    def test_morphism_to_point_unwinds_images(self):
        image = GrassmannElement(3, {0b111: 1, 0b010: 1})
        phi = GrassmannMorphism(1, 3, [image])
        x = morphism_to_point(phi)
        assert x.space == SuperSpace(0, 1)
        assert x.coords == (image,)

    def test_terminal_becomes_zero_point(self):
        phi = GrassmannMorphism.terminal(3)
        assert morphism_to_point(phi) == LambdaPoint.zero(SuperSpace(0, 3), 0)

    def test_round_trip(self):
        rng = random.Random(13)
        for _ in range(20):
            phi = random_morphism(rng, rng.randint(0, 3), rng.randint(0, 3))
            assert point_to_morphism(morphism_to_point(phi)) == phi

    def test_yoneda_square(self):
        # pushing the point forward matches composing the morphisms
        rng = random.Random(14)
        for _ in range(20):
            phi = random_morphism(rng, 2, 2)
            psi = random_morphism(rng, 2, 3)
            lhs = base_change(psi, morphism_to_point(phi))
            rhs = morphism_to_point(morphism_compose(psi, phi))
            assert lhs == rhs


class TestSuperrepresentability:
    def test_full_point_functor_accepted(self):
        verdict = superrep_check(vbar_module(SuperSpace(1, 2), 4))
        assert verdict.superrepresentable
        assert verdict.format == SuperSpace(1, 2)

    def test_nilpotent_part_with_even_dimensions_rejected(self):
        verdict = superrep_check(vnil_module(SuperSpace(1, 0), 4))
        assert not verdict.superrepresentable
        assert any("2 generators" in reason for reason in verdict.reasons)

    def test_nilpotent_part_of_odd_line_accepted(self):
        verdict = superrep_check(vnil_module(SuperSpace(0, 1), 4))
        assert verdict.superrepresentable
        assert verdict.format == SuperSpace(0, 1)


def embedded_candidate(drop=None, skip_body=False):
    """The points of 1|2, pushed into 2|3 by an injective even map, with one
    redundant point per generator count; ``drop=(n, i)`` removes point ``i``
    over ``n`` generators, ``skip_body`` the even point over one generator."""
    fmt, ambient = SuperSpace(1, 2), SuperSpace(2, 3)
    embedding = MultilinearMap(
        (fmt,),
        ambient,
        {((1,), 1): 1, ((1,), 2): 2, ((2,), 3): 1, ((2,), 4): "-1/2", ((3,), 3): 1, ((3,), 5): 3},
    )
    rebuilt = vbar_module(fmt, 3)

    def basis(n):
        points = [lift_multilinear(embedding, (x,)) for x in rebuilt.basis(n)]
        if skip_body and n == 1:
            points = points[1:]
        if drop is not None and drop[0] == n:
            del points[drop[1]]
        return points + [points[0] + scale_point(Fraction(-3, 2), points[-1])]

    return CandidateModule(ambient, 3, basis)


class TestSuperrepOnEmbeddedCandidates:
    def test_embedded_format_with_redundant_points_accepted(self):
        verdict = superrep_check(embedded_candidate())
        assert verdict.superrepresentable and verdict.format == SuperSpace(1, 2)

    def test_dropped_point_rejected(self):
        for n in (2, 3):
            verdict = superrep_check(embedded_candidate(drop=(n, 1)))
            assert not verdict.superrepresentable and verdict.format is None
            assert verdict.reasons == (f"points over {n} generators differ from the rebuilt module of format 1|2",)

    def test_missing_body_direction_rejected(self):
        verdict = superrep_check(embedded_candidate(skip_body=True))
        assert not verdict.superrepresentable
        assert verdict.reasons == (
            "killing the generator of the 1-generator algebra is not surjective onto the ground value",
        )

    def test_basis_point_outside_the_ambient_raises(self):
        short = LambdaPoint(SuperSpace(1, 0), 0, [GrassmannElement.scalar(0, 1)])
        candidate = CandidateModule(SuperSpace(2, 1), 1, lambda n: [short] if n == 0 else [])
        with pytest.raises(DimensionError, match="basis point 0 for n=0"):
            superrep_check(candidate)
        over_two = LambdaPoint(SuperSpace(2, 1), 2, [GrassmannElement.zero(2)] * 3)
        candidate = CandidateModule(SuperSpace(2, 1), 2, lambda n: [over_two] * 2)
        with pytest.raises(DimensionError, match="basis point 0 for n=0"):
            superrep_check(candidate)
