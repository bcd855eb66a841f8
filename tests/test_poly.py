"""The integer PolyCoeff kernel and superfunction evaluation against naive references.

The polynomial reference works on plain ``{exponents: Fraction}`` dicts:
products multiply every pair of terms, powers multiply repeatedly, and
evaluation raises each value to its exponent.  Skeleton evaluation is
checked against plain substitution into a superfunction,
plain substitution (``superfunction_eval``) against ``helpers.poly_eval`` at the
even coordinates times the odd coordinates in ascending order, and
superfunction products against signs found by sorting index words.
"""

from fractions import Fraction
from math import prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from superpoints import (
    GrassmannElement,
    LambdaPoint,
    SuperSpace,
    Superfunction,
    gr_add,
    gr_mul,
    point_to_element,
    skeleton_eval,
    superfunction_eval,
    superfunction_mul,
    superfunction_to_skeleton,
)
from superpoints.grassmann import indices_of_mask
from superpoints.jsonio import fraction_from_json
from superpoints.poly import PolyCoeff, poly_dot

from helpers import poly_eval, sign_by_sorting

# -- the naive reference -----------------------------------------------------------


def ref_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def ref_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            out[key] = out.get(key, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def ref_pow(a: dict, nvars: int, k: int) -> dict:
    out = {(0,) * nvars: Fraction(1)}
    for _ in range(k):
        out = ref_mul(out, a)
    return out


def ref_eval(a: dict, values) -> Fraction:
    return sum((c * prod(v**e for v, e in zip(values, exps)) for exps, c in a.items()), Fraction(0))


def assert_canonical(p: PolyCoeff, want: dict):
    assert p.terms == want
    assert all(type(c) is Fraction and c for c in p.terms.values())
    public = PolyCoeff(p.nvars, want)
    assert p == public and hash(p) == hash(public)


# -- strategies ----------------------------------------------------------------------

coefficients = st.fractions(min_value=-7, max_value=7, max_denominator=6)


@st.composite
def poly_terms(draw, nvars, max_exp=4, max_size=6):
    exps = st.tuples(*[st.integers(min_value=0, max_value=max_exp)] * nvars)
    return draw(st.dictionaries(exps, coefficients, max_size=max_size))


@st.composite
def operand_pairs(draw):
    """Two polynomials in one nvars; either may be zero, a single term, or larger."""
    nvars = draw(st.integers(min_value=0, max_value=3))
    shapes = st.sampled_from(("any", "single", "many"))

    def draw_terms(shape):
        if shape == "single":
            return draw(poly_terms(nvars, max_size=1))
        if shape == "many":
            return draw(poly_terms(nvars, max_size=12))
        return draw(poly_terms(nvars))

    return nvars, draw_terms(draw(shapes)), draw_terms(draw(shapes))


def canonical(terms: dict) -> dict:
    return {e: Fraction(c) for e, c in terms.items() if c}


# -- arithmetic ----------------------------------------------------------------------


class TestArithmetic:
    @settings(max_examples=150, deadline=None)
    @given(operand_pairs())
    def test_ring_operations_match_reference(self, case):
        nvars, a, b = case
        pa, pb = PolyCoeff(nvars, a), PolyCoeff(nvars, b)
        a, b = canonical(a), canonical(b)
        assert_canonical(pa + pb, ref_add(a, b))
        assert_canonical(pa - pb, ref_add(a, {e: -c for e, c in b.items()}))
        assert_canonical(-pa, {e: -c for e, c in a.items()})
        assert_canonical(pa * pb, ref_mul(a, b))
        assert_canonical(pb * pa, ref_mul(a, b))
        assert_canonical(pa * Fraction(-2, 3), {e: c * Fraction(-2, 3) for e, c in a.items()})
        assert_canonical(pa * 0, {})

    @settings(max_examples=80, deadline=None)
    @given(st.integers(min_value=0, max_value=3).flatmap(lambda n: st.tuples(st.just(n), poly_terms(n, max_exp=2, max_size=4))),
           st.integers(min_value=0, max_value=5))
    def test_power_matches_repeated_multiplication(self, case, k):
        nvars, a = case
        assert_canonical(PolyCoeff(nvars, a) ** k, ref_pow(canonical(a), nvars, k))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=3).flatmap(
        lambda n: st.tuples(st.just(n), poly_terms(n, max_exp=6), st.lists(coefficients, min_size=n, max_size=n))))
    def test_eval_matches_reference(self, case):
        nvars, a, values = case
        got = poly_eval(PolyCoeff(nvars, a), values)
        assert type(got) is Fraction and got == ref_eval(canonical(a), values)

    def test_eval_at_grassmann_values(self):
        # x1^3*x2 - 2*x2^2 + 5 at x1 = 1 + t1*t2, x2 = 2 + t1*t3
        n = 3
        x1 = GrassmannElement(n, {0: 1, 0b011: 1})
        x2 = GrassmannElement(n, {0: 2, 0b101: 1})
        p = PolyCoeff(2, {(3, 1): 1, (0, 2): -2, (0, 0): 5})
        want = x1 * x1 * x1 * x2 - 2 * x2 * x2 + 5
        assert poly_eval(p, [x1, x2], one=GrassmannElement.one(n)) == want

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=3).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(st.tuples(poly_terms(n), poly_terms(n)), max_size=4))))
    def test_dot_matches_sum_of_products(self, case):
        nvars, pairs = case
        want: dict = {}
        for a, b in pairs:
            want = ref_add(want, ref_mul(canonical(a), canonical(b)))
        got = poly_dot(nvars, [(PolyCoeff(nvars, a), PolyCoeff(nvars, b)) for a, b in pairs])
        assert_canonical(got, want)

    def test_dot_with_rational_scalars(self):
        x = PolyCoeff.variable(2, 1)
        y = PolyCoeff.variable(2, 2)
        got = poly_dot(2, [(x, Fraction(1, 2)), (y, 3), (x * y, Fraction(0)), (x, Fraction(1, 2))])
        assert_canonical(got, {(1, 0): Fraction(1), (0, 1): Fraction(3)})


class TestWideExponents:
    """Packed keys must never carry from one exponent field into the next."""

    def test_wide_exponent_times_single_term_operand(self):
        x1, x2 = PolyCoeff.variable(2, 1), PolyCoeff.variable(2, 2)
        k = 2**21
        assert_canonical(x1**k * (x1 + x2), {(k + 1, 0): Fraction(1), (k, 1): Fraction(1)})

    def test_wide_exponent_in_many_term_product(self):
        x1, x2 = PolyCoeff.variable(2, 1), PolyCoeff.variable(2, 2)
        for k in (2**15, 2**16 - 1, 2**16, 2**21, 2**40):
            got = (x1**k + x2) * (x1**k + x1 + 3 * x2)
            want = ref_mul(
                {(k, 0): Fraction(1), (0, 1): Fraction(1)},
                {(k, 0): Fraction(1), (1, 0): Fraction(1), (0, 1): Fraction(3)},
            )
            assert_canonical(got, want)

    def test_field_boundary_in_every_variable(self):
        k = 2**16 - 1
        a = PolyCoeff(3, {(k, 0, 0): 1, (0, k, 0): 2, (0, 0, k): 3})
        b = PolyCoeff(3, {(1, 0, 0): 1, (0, 1, 0): -1, (0, 0, 1): Fraction(1, 2), (0, 0, 0): 1})
        assert_canonical(a * b, ref_mul(a.terms, b.terms))


class TestHashing:
    @settings(max_examples=100, deadline=None)
    @given(operand_pairs())
    def test_equal_values_hash_equal(self, case):
        nvars, a, b = case
        pa, pb = PolyCoeff(nvars, a), PolyCoeff(nvars, b)
        public = PolyCoeff(nvars, ref_mul(pa.terms, pb.terms))
        for p in (pa * pb, pb * pa, (pa + pb) * pb - pb * pb, -(-(pa * pb))):
            assert p == public and hash(p) == hash(public)

    def test_variable_count_distinguishes(self):
        assert PolyCoeff.const(1, 2) != PolyCoeff.const(2, 2)
        assert PolyCoeff.zero(1) != PolyCoeff.zero(2)


@st.composite
def superfunctions(draw, p, q):
    masks = st.integers(min_value=0, max_value=(1 << q) - 1)
    table = draw(st.dictionaries(masks, poly_terms(p, max_exp=3, max_size=4), min_size=1, max_size=1 << q))
    return Superfunction(p, q, {m: PolyCoeff(p, t) for m, t in table.items()})


@st.composite
def points(draw, p, q, n):
    def element(parity, body):
        masks = [m for m in range(1 << n) if m.bit_count() % 2 == parity and (m or body)]
        terms = draw(st.dictionaries(st.sampled_from(masks), coefficients, min_size=1, max_size=4)) if masks else {}
        return GrassmannElement(n, terms)

    coords = [element(0, True) for _ in range(p)] + [element(1, False) for _ in range(q)]
    return LambdaPoint(SuperSpace(p, q), n, coords)


@st.composite
def superfunction_cases(draw):
    p = draw(st.integers(min_value=0, max_value=2))
    q = draw(st.integers(min_value=0, max_value=3))
    n = draw(st.integers(min_value=0, max_value=8))
    return draw(superfunctions(p, q)), draw(points(p, q, n))


# exponents far beyond any path length: each even coordinate has body 0 or +-1,
# so its power is a binomial series of at most n terms
WIDE_EXPONENT_CASES = [
    (
        Superfunction(
            1, 1, {0: PolyCoeff(1, {(2**40,): 1, (2**15,): Fraction(1, 2)}), 1: PolyCoeff(1, {(2**15,): 3, (0,): 1})}
        ),
        LambdaPoint(
            SuperSpace(1, 1),
            3,
            [GrassmannElement(3, {0: 1, 0b011: 2, 0b110: -1}), GrassmannElement(3, {0b001: 1, 0b100: Fraction(1, 3)})],
        ),
    ),
    (
        Superfunction(2, 0, {0: PolyCoeff(2, {(2**15, 2**40): -2, (2**40 + 1, 1): 1, (0, 2**16): Fraction(5, 7)})}),
        LambdaPoint(
            SuperSpace(2, 0),
            4,
            [
                GrassmannElement(4, {0: -1, 0b0011: Fraction(1, 2), 0b1100: 1}),
                GrassmannElement(4, {0b0101: 1, 0b1010: -3}),
            ],
        ),
    ),
]


class TestEvaluation:
    @settings(max_examples=80, deadline=None)
    @given(superfunction_cases())
    def test_skeleton_eval_matches_substitution(self, case):
        f, x = case
        got = point_to_element(skeleton_eval(superfunction_to_skeleton(f), x))
        assert got == superfunction_eval(f, x)

    @settings(max_examples=80, deadline=None)
    @given(superfunction_cases())
    @example(WIDE_EXPONENT_CASES[0])
    @example(WIDE_EXPONENT_CASES[1])
    def test_superfunction_eval_matches_plain_substitution(self, case):
        # the reference: each coefficient polynomial at the even coordinates,
        # then times the odd coordinates of its monomial in ascending order
        f, x = case
        one = GrassmannElement.one(x.n)
        want = GrassmannElement.zero(x.n)
        for mask, poly in f.terms.items():
            value = poly_eval(poly, x.coords[: f.p], one=one)
            for i in indices_of_mask(mask):
                value = gr_mul(value, x.coords[f.p + i - 1])
            want = gr_add(want, value)
        got = superfunction_eval(f, x)
        assert got == want and hash(got) == hash(want)
        assert all(type(c) is Fraction and c for c in got.terms.values())

    @settings(max_examples=80, deadline=None)
    @given(st.integers(min_value=0, max_value=2), st.integers(min_value=0, max_value=3), st.data())
    def test_superfunction_product_matches_sorting_signs(self, p, q, data):
        f, g = data.draw(superfunctions(p, q)), data.draw(superfunctions(p, q))
        want: dict = {}
        for ma, pa in f.terms.items():
            for mb, pb in g.terms.items():
                merged = sign_by_sorting(indices_of_mask(ma), indices_of_mask(mb))
                if merged is None:
                    continue
                word, sign = merged
                mask = sum(1 << (i - 1) for i in word)
                want[mask] = ref_add(want.get(mask, {}), ref_mul({e: sign * c for e, c in pa.terms.items()}, pb.terms))
        got = superfunction_mul(f, g)
        assert {m: dict(pl.terms) for m, pl in got.terms.items()} == {m: t for m, t in want.items() if t}


# -- coefficient strings ----------------------------------------------------------------


class TestCoefficientStrings:
    @pytest.mark.parametrize("text", ["1.5", "1e3", "0.5", "1/2.0", " 1", "1/", "+1", "1_000", "inf", "nan"])
    def test_outside_grammar_rejected(self, text):
        with pytest.raises(ValueError):
            GrassmannElement(2, {0: text})
        with pytest.raises(ValueError):
            GrassmannElement.scalar(2, text)
        with pytest.raises(ValueError):
            PolyCoeff(1, {(0,): text})
        with pytest.raises(ValueError):
            PolyCoeff.const(1, text)
        with pytest.raises(ValueError):
            fraction_from_json(text)

    def test_zero_denominator_rejected(self):
        for build in (lambda: GrassmannElement(1, {0: "1/0"}), lambda: PolyCoeff(1, {(1,): "3/0"})):
            with pytest.raises(ValueError, match="zero denominator"):
                build()

    def test_grammar_and_exact_values_accepted(self):
        for value, want in (("-3/4", Fraction(-3, 4)), ("12", Fraction(12)), (5, Fraction(5)), (Fraction(2, 7), Fraction(2, 7))):
            assert GrassmannElement(2, {0b11: value}).terms == {0b11: want}
            assert PolyCoeff(2, {(1, 2): value}).terms == {(1, 2): want}
        assert PolyCoeff(1, {(0,): "0/5"}).is_zero()
