"""The integer Grassmann product kernel against a naive reference.

The reference works on plain ``{mask: Fraction}`` dicts: signs come from
counting the inversions of the concatenated index words, powers from
repeated multiplication, base change from substituting one generator at a
time.  Every library entry point that runs the kernel is checked against it:
``gr_mul``, ``**``, ``gr_inv``, ``morphism_apply``, ``morphism_compose``,
``base_change``, ``mat_base_change`` and ``mat_mul``.  The kernels also leave
no reference cycles behind, so that a call never waits on the cyclic garbage
collector.
"""

import gc
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superpoints import (
    DimensionError,
    GrassmannElement,
    GrassmannMorphism,
    LambdaPoint,
    SuperMatrix,
    SuperSpace,
    Superfunction,
    base_change,
    check_supersmooth,
    gr_inv,
    gr_mul,
    lift_multilinear,
    mat_base_change,
    mat_inv,
    mat_mul,
    morphism_apply,
    morphism_compose,
    reconstruct_multilinear,
    skeleton_compose,
    skeleton_eval,
    superfunction_eval,
    superfunction_to_skeleton,
)
from superpoints.cli import family_from_json
from superpoints.points import PointFamily, lift_family
from superpoints.poly import PolyCoeff
from superpoints.sampling import random_multilinear, random_point
from superpoints.grassmann import indices_of_mask

# -- the naive reference -----------------------------------------------------------


def ref_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            word = indices_of_mask(ma) + indices_of_mask(mb)
            if len(set(word)) < len(word):
                continue
            inversions = sum(
                1 for i in range(len(word)) for j in range(i + 1, len(word)) if word[i] > word[j]
            )
            out[ma | mb] = out.get(ma | mb, 0) + (-1) ** inversions * ca * cb
    return {m: c for m, c in out.items() if c}


def ref_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, 0) + c
    return {m: c for m, c in out.items() if c}


def ref_pow(a: dict, k: int) -> dict:
    out = {0: Fraction(1)}
    for _ in range(k):
        out = ref_mul(out, a)
    return out


def ref_apply(images: list, a: dict) -> dict:
    out: dict = {}
    for mask, coeff in a.items():
        term = {0: coeff}
        for i in indices_of_mask(mask):
            term = ref_mul(term, images[i - 1])
        out = ref_add(out, term)
    return out


def assert_canonical(e: GrassmannElement, want: dict):
    assert e.terms == want
    assert all(type(c) is Fraction and c for c in e.terms.values())
    public = GrassmannElement(e.n, want)
    assert e == public and hash(e) == hash(public)


# -- strategies ----------------------------------------------------------------------

coefficients = st.fractions(min_value=-7, max_value=7, max_denominator=6)


@st.composite
def terms(draw, n, parity=None, max_size=None):
    masks = [m for m in range(1 << n) if parity is None or m.bit_count() % 2 == parity]
    if not masks:
        return {}
    size = len(masks) if max_size is None else max_size
    return draw(st.dictionaries(st.sampled_from(masks), coefficients, max_size=size))


@st.composite
def operand_pairs(draw):
    """Two elements over one n; either may be zero, a single term, or dense."""
    n = draw(st.integers(min_value=0, max_value=5))
    shapes = st.sampled_from(("any", "single", "dense"))

    def draw_terms(shape):
        if shape == "single":
            return draw(terms(n, max_size=1))
        if shape == "dense":
            return {m: draw(coefficients) or Fraction(1) for m in range(1 << n)}
        return draw(terms(n))

    return n, draw_terms(draw(shapes)), draw_terms(draw(shapes))


# -- products ------------------------------------------------------------------------


class TestProduct:
    @settings(max_examples=150, deadline=None)
    @given(operand_pairs())
    def test_matches_reference(self, case):
        n, a, b = case
        ea, eb = GrassmannElement(n, a), GrassmannElement(n, b)
        assert_canonical(gr_mul(ea, eb), ref_mul(ea.terms, eb.terms))

    def test_overlapping_masks_cancel(self):
        a = GrassmannElement(3, {0b011: 2, 0b100: Fraction(-1, 3)})
        b = GrassmannElement(3, {0b001: 5, 0b011: 7})
        assert_canonical(gr_mul(a, b), ref_mul(a.terms, b.terms))
        assert gr_mul(GrassmannElement(3, {0b011: 1}), b).is_zero()

    def test_zero_operands(self):
        for n in (0, 3):
            z, one = GrassmannElement.zero(n), GrassmannElement.one(n)
            assert_canonical(gr_mul(z, one), {})
            assert_canonical(gr_mul(one, z), {})
        assert_canonical(gr_mul(GrassmannElement.scalar(0, Fraction(-2, 3)), GrassmannElement.scalar(0, 3)), {0: Fraction(-2)})


# -- powers and inverses ----------------------------------------------------------------


class TestSeries:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(min_value=0, max_value=4).flatmap(lambda n: st.tuples(st.just(n), terms(n))),
           st.integers(min_value=0, max_value=7))
    def test_power_matches_repeated_multiplication(self, case, k):
        n, a = case
        e = GrassmannElement(n, a)
        assert_canonical(e**k, ref_pow(e.terms, k))

    @settings(max_examples=80, deadline=None)
    @given(st.integers(min_value=0, max_value=5).flatmap(lambda n: st.tuples(st.just(n), terms(n))),
           coefficients.filter(bool))
    def test_inverse_is_two_sided(self, case, b):
        n, a = case
        a = dict(a)
        a[0] = b
        e = GrassmannElement(n, a)
        inv = gr_inv(e)
        assert all(type(c) is Fraction for c in inv.terms.values())
        assert ref_mul(e.terms, inv.terms) == {0: 1} == ref_mul(inv.terms, e.terms)

    def test_huge_exponent_of_nilpotent_element(self):
        start = time.perf_counter()
        e = GrassmannElement(3, {0b001: 1, 0b010: 1})
        assert (e ** 10**9).is_zero()
        assert time.perf_counter() - start < 0.5

    def test_zero_to_the_zero_is_one(self):
        assert GrassmannElement.zero(2) ** 0 == GrassmannElement.one(2)


# -- base change ----------------------------------------------------------------------


@st.composite
def morphisms(draw, src=None, dst=None):
    src = draw(st.integers(min_value=0, max_value=4)) if src is None else src
    dst = draw(st.integers(min_value=0, max_value=4)) if dst is None else dst
    images = [GrassmannElement(dst, draw(terms(dst, parity=1, max_size=4))) for _ in range(src)]
    return GrassmannMorphism(src, dst, images)


class TestBaseChange:
    @settings(max_examples=100, deadline=None)
    @given(morphisms().flatmap(lambda phi: st.tuples(st.just(phi), terms(phi.src_n))))
    def test_apply_matches_substitution(self, case):
        phi, a = case
        e = GrassmannElement(phi.src_n, a)
        want = ref_apply([img.terms for img in phi.images], e.terms)
        assert_canonical(morphism_apply(phi, e), want)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3),
           st.integers(min_value=0, max_value=3), st.data())
    def test_compose_matches_substitution(self, k, m, n, data):
        phi = data.draw(morphisms(k, m))
        psi = data.draw(morphisms(m, n))
        chi = morphism_compose(psi, phi)
        psi_images = [img.terms for img in psi.images]
        for got, img in zip(chi.images, phi.images):
            assert_canonical(got, ref_apply(psi_images, img.terms))

    @settings(max_examples=60, deadline=None)
    @given(morphisms(), st.integers(min_value=0, max_value=2), st.integers(min_value=0, max_value=2), st.data())
    def test_point_matches_substitution(self, phi, p, q, data):
        # zero and nonzero coordinates mixed, the format 0|0 included
        space = SuperSpace(p, q)
        coords = [
            GrassmannElement(phi.src_n, data.draw(terms(phi.src_n, parity=space.parity(i), max_size=6)))
            for i in space.indices()
        ]
        y = base_change(phi, LambdaPoint(space, phi.src_n, coords))
        assert (y.space, y.n, len(y.coords)) == (space, phi.dst_m, space.dim)
        images = [img.terms for img in phi.images]
        for got, c in zip(y.coords, coords):
            assert_canonical(got, ref_apply(images, c.terms))

    @settings(max_examples=40, deadline=None)
    @given(morphisms(), st.integers(min_value=0, max_value=2), st.integers(min_value=0, max_value=2), st.data())
    def test_matrix_matches_substitution(self, phi, p, q, data):
        space = SuperSpace(p, q)
        rows = [
            [
                GrassmannElement(phi.src_n, data.draw(terms(phi.src_n, parity=space.parity(i) ^ space.parity(j), max_size=4)))
                for j in space.indices()
            ]
            for i in space.indices()
        ]
        b = mat_base_change(phi, SuperMatrix(space, phi.src_n, rows))
        assert (b.space, b.n) == (space, phi.dst_m)
        images = [img.terms for img in phi.images]
        assert len(b.entries) == space.dim
        for got_row, row in zip(b.entries, rows):
            assert len(got_row) == space.dim
            for got, e in zip(got_row, row):
                assert_canonical(got, ref_apply(images, e.terms))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3), st.data())
    def test_compose_with_no_source_generators(self, m, n, data):
        phi = data.draw(morphisms(0, m))
        psi = data.draw(morphisms(m, n))
        chi = morphism_compose(psi, phi)
        assert chi == GrassmannMorphism(0, n, [])
        c = data.draw(coefficients)
        assert_canonical(morphism_apply(chi, GrassmannElement.scalar(0, c)), {0: c} if c else {})

    def test_wrong_generator_count_rejected(self):
        phi = GrassmannMorphism.identity(2)
        a = GrassmannElement(3, {0b101: 1})
        with pytest.raises(DimensionError, match="element over 3 generators, morphism expects 2"):
            morphism_apply(phi, a)
        with pytest.raises(DimensionError):
            base_change(phi, LambdaPoint(SuperSpace(1, 0), 3, [a]))
        with pytest.raises(DimensionError):
            mat_base_change(phi, SuperMatrix(SuperSpace(1, 0), 3, [[a]]))
        with pytest.raises(DimensionError):
            morphism_compose(phi, GrassmannMorphism.identity(3))


# -- no reference cycles -----------------------------------------------------------------


def unreachable_after(call, times=20) -> int:
    """The objects that ``times`` calls leave for the cyclic garbage collector."""
    gc.collect()
    gc.disable()
    try:
        for _ in range(times):
            call()
        return gc.collect()
    finally:
        gc.enable()


def cycle_cases():
    """One call of each kernel entry point, by name, on small fixed inputs."""
    rng = random.Random(12)
    phi = GrassmannMorphism(3, 4, [
        GrassmannElement(4, {0b0001: 1, 0b1110: Fraction(2, 3)}),
        GrassmannElement(4, {0b0010: -1}),
        GrassmannElement(4, {0b1000: 5}),
    ])
    psi = GrassmannMorphism(4, 2, [
        GrassmannElement(2, {0b01: 1}), GrassmannElement(2, {0b10: 3}),
        GrassmannElement(2, {}), GrassmannElement(2, {0b01: Fraction(1, 2)}),
    ])
    a = GrassmannElement(3, {0: 2, 0b011: Fraction(-1, 3), 0b111: 4, 0b100: 1})
    space = SuperSpace(1, 2)
    x = random_point(rng, space, 3)
    zero = GrassmannElement(3, {})
    matrix = SuperMatrix(space, 3, [
        [GrassmannElement(3, {0: 1, 0b011: 2}), GrassmannElement(3, {0b001: 1}), zero],
        [zero, zero, zero],
        [zero, zero, zero],
    ])
    f = random_multilinear(rng, (space, space), SuperSpace(1, 1))
    args = (x, random_point(rng, space, 3))
    sf = Superfunction(1, 2, {
        0: PolyCoeff(1, {(2,): 1, (0,): Fraction(1, 2)}),
        0b11: PolyCoeff(1, {(1,): -3}),
        0b01: PolyCoeff(1, {(0,): 1}),
    })
    outer = Superfunction(1, 1, {0: PolyCoeff(1, {(2,): 1}), 0b1: PolyCoeff(1, {(1,): -2})})
    family = family_from_json({"domains": [{"p": 1, "q": 1}], "codomain": {"p": 1, "q": 1}, "outputs": [
        {"out": 1, "terms": [{"coeff": "2", "vars": [[1, 1], [1, 1]]}, {"coeff": "1", "vars": [[1, 2]], "theta": [1]}]},
    ]})
    y = random_point(rng, SuperSpace(1, 1), 3)
    lifted = lift_family(random_multilinear(rng, (space, space), SuperSpace(1, 1)), n_max=3)
    identity = PointFamily((SuperSpace(1, 1),), SuperSpace(1, 1), lambda n, xs: xs[0], 2)
    inverse_input = SuperMatrix(space, 3, [
        [GrassmannElement(3, {0: 1, 0b011: 2}), GrassmannElement(3, {0b001: 1}), GrassmannElement(3, {0b100: 3})],
        [GrassmannElement(3, {0b010: -1}), GrassmannElement(3, {0: 2, 0b101: 1}), GrassmannElement(3, {0b110: 1})],
        [GrassmannElement(3, {0b111: 1}), GrassmannElement(3, {0: 1}), GrassmannElement(3, {0: Fraction(1, 2)})],
    ])
    return {
        "morphism_apply": lambda: morphism_apply(phi, a),
        "base_change": lambda: base_change(phi, x),
        "mat_base_change": lambda: mat_base_change(phi, matrix),
        "morphism_compose": lambda: morphism_compose(psi, phi),
        "lift_multilinear": lambda: lift_multilinear(f, args),
        "superfunction_eval": lambda: superfunction_eval(sf, x),
        "family_from_json component": lambda: family(3, (y,)),
        "skeleton_eval": lambda: skeleton_eval(superfunction_to_skeleton(sf), x),
        "skeleton_compose": lambda: skeleton_compose(superfunction_to_skeleton(outer), superfunction_to_skeleton(sf)),
        "reconstruct_multilinear": lambda: reconstruct_multilinear(lifted),
        "check_supersmooth": lambda: check_supersmooth(identity, max_degree=2, n_max=2),
        "gr_inv": lambda: gr_inv(a),
        "mat_inv": lambda: mat_inv(inverse_input),
    }


CYCLE_CASES = (
    "morphism_apply", "base_change", "mat_base_change", "morphism_compose", "lift_multilinear",
    "superfunction_eval", "family_from_json component", "skeleton_eval", "skeleton_compose",
    "reconstruct_multilinear", "check_supersmooth", "gr_inv", "mat_inv",
)


class TestNoReferenceCycles:
    """A recursive closure is a function-cell reference cycle: each call that
    defines one leaves garbage that only the cyclic collector frees."""

    @pytest.mark.parametrize("name", CYCLE_CASES)
    def test_calls_leave_no_garbage(self, name):
        call = cycle_cases()[name]
        call()  # fill the caches of first use
        assert unreachable_after(call) == 0


# -- supermatrix products ----------------------------------------------------------------


@st.composite
def matrix_pairs(draw):
    p = draw(st.integers(min_value=0, max_value=2))
    q = draw(st.integers(min_value=0 if p else 1, max_value=2))
    n = draw(st.integers(min_value=0, max_value=4))
    space = SuperSpace(p, q)

    def matrix():
        rows = []
        for i in space.indices():
            parity_i = space.parity(i)
            rows.append([
                GrassmannElement(n, draw(terms(n, parity=parity_i ^ space.parity(j), max_size=5)))
                for j in space.indices()
            ])
        return SuperMatrix(space, n, rows)

    return matrix(), matrix()


class TestMatrixProduct:
    @settings(max_examples=60, deadline=None)
    @given(matrix_pairs())
    def test_entries_match_sums_of_products(self, case):
        a, b = case
        c = mat_mul(a, b)
        d = a.space.dim
        for i in range(d):
            for j in range(d):
                want: dict = {}
                for k in range(d):
                    want = ref_add(want, ref_mul(a.entries[i][k].terms, b.entries[k][j].terms))
                assert_canonical(c.entries[i][j], want)
