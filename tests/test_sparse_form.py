"""The canonical sparse form shared by GrassmannElement, PolyCoeff and Superfunction.

Superfunction arithmetic is checked against a naive reference on plain
``{mask: {exponents: Fraction}}`` dicts, with product signs found by sorting
index words.  For all three classes: equal values hash equal whichever
constructor built them, mismatched dimensions raise ``DimensionError``, and
the canonical text is pinned byte for byte.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superpoints import DimensionError, GrassmannElement, Superfunction, jsonio
from superpoints.grassmann import indices_of_mask, sum_terms
from superpoints.poly import PolyCoeff

from helpers import sign_by_sorting

# -- the naive reference -----------------------------------------------------------


def poly_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            out[key] = out.get(key, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def ref_add(f: dict, g: dict) -> dict:
    out = dict(f)
    for m, t in g.items():
        out[m] = poly_add(out.get(m, {}), t)
    return {m: t for m, t in out.items() if t}


def ref_scale(f: dict, r: dict) -> dict:
    """``f`` times the polynomial ``r``."""
    return {m: s for m, t in f.items() if (s := poly_mul(t, r))}


def ref_mul(f: dict, g: dict) -> dict:
    out: dict = {}
    for ma, pa in f.items():
        for mb, pb in g.items():
            merged = sign_by_sorting(indices_of_mask(ma), indices_of_mask(mb))
            if merged is None:
                continue
            word, sign = merged
            mask = sum(1 << (i - 1) for i in word)
            out[mask] = poly_add(out.get(mask, {}), poly_mul({e: sign * c for e, c in pa.items()}, pb))
    return {m: t for m, t in out.items() if t}


def assert_superfunction(f: Superfunction, p: int, q: int, want: dict):
    assert (f.p, f.q) == (p, q)
    assert {m: dict(c.terms) for m, c in f.terms.items()} == want
    assert all(type(c) is PolyCoeff and c.nvars == p and c for c in f.terms.values())
    public = Superfunction(p, q, {m: PolyCoeff(p, t) for m, t in want.items()})
    assert f == public and hash(f) == hash(public)


# -- strategies ----------------------------------------------------------------------

coefficients = st.fractions(min_value=-5, max_value=5, max_denominator=4)


def polys(nvars, max_exp=2, max_size=3):
    exps = st.tuples(*[st.integers(min_value=0, max_value=max_exp)] * nvars)
    return st.dictionaries(exps, coefficients, max_size=max_size).map(
        lambda t: {e: Fraction(c) for e, c in t.items() if c}
    )


@st.composite
def superfunction_pairs(draw, max_size=4):
    p = draw(st.integers(min_value=0, max_value=2))
    q = draw(st.integers(min_value=0, max_value=3))
    masks = st.integers(min_value=0, max_value=(1 << q) - 1)
    tables = st.dictionaries(masks, polys(p), max_size=max_size).map(lambda d: {m: t for m, t in d.items() if t})
    return p, q, draw(tables), draw(tables)


def superfunction(p: int, q: int, table: dict) -> Superfunction:
    return Superfunction(p, q, {m: PolyCoeff(p, t) for m, t in table.items()})


# -- Superfunction arithmetic ----------------------------------------------------------


class TestSuperfunctionArithmetic:
    @settings(max_examples=120, deadline=None)
    @given(superfunction_pairs())
    def test_ring_operations_match_reference(self, case):
        p, q, a, b = case
        f, g = superfunction(p, q, a), superfunction(p, q, b)
        minus_b = {m: {e: -c for e, c in t.items()} for m, t in b.items()}
        assert_superfunction(f + g, p, q, ref_add(a, b))
        assert_superfunction(f - g, p, q, ref_add(a, minus_b))
        assert_superfunction(-g, p, q, minus_b)
        assert_superfunction(f * g, p, q, ref_mul(a, b))
        assert_superfunction(sum_terms([f, g, f]), p, q, ref_add(ref_add(a, b), a))
        one = {(0,) * p: Fraction(1)}
        assert_superfunction(f + 1, p, q, ref_add(a, {0: one}))
        assert_superfunction(1 - f, p, q, ref_add({0: one}, {m: {e: -c for e, c in t.items()} for m, t in a.items()}))

    @settings(max_examples=120, deadline=None)
    @given(superfunction_pairs(), st.integers(min_value=-3, max_value=3), coefficients, st.data())
    def test_scaling_by_int_fraction_and_polynomial(self, case, k, r, data):
        p, q, a, _ = case
        f = superfunction(p, q, a)
        unit = (0,) * p
        assert_superfunction(f * k, p, q, ref_scale(a, {unit: Fraction(k)} if k else {}))
        assert_superfunction(k * f, p, q, ref_scale(a, {unit: Fraction(k)} if k else {}))
        assert_superfunction(r * f, p, q, ref_scale(a, {unit: r} if r else {}))
        s = data.draw(polys(p))
        assert_superfunction(f * PolyCoeff(p, s), p, q, ref_scale(a, s))
        assert_superfunction(PolyCoeff(p, s) * f, p, q, ref_scale(a, s))

    @settings(max_examples=60, deadline=None)
    @given(superfunction_pairs(max_size=3), st.integers(min_value=0, max_value=4))
    def test_power_matches_repeated_multiplication(self, case, k):
        p, q, a, _ = case
        want = {0: {(0,) * p: Fraction(1)}}
        for _ in range(k):
            want = ref_mul(want, a)
        assert_superfunction(superfunction(p, q, a) ** k, p, q, want)


# -- what the three classes share ---------------------------------------------------

KINDS = ("grassmann", "poly", "superfunction")


@st.composite
def values(draw, kind):
    """Two values of one kind and one shape, built by the public constructors."""
    if kind == "grassmann":
        n = draw(st.integers(min_value=0, max_value=4))
        terms = st.dictionaries(st.integers(min_value=0, max_value=(1 << n) - 1), coefficients, max_size=6)
        return GrassmannElement(n, draw(terms)), GrassmannElement(n, draw(terms))
    if kind == "poly":
        nvars = draw(st.integers(min_value=0, max_value=3))
        return PolyCoeff(nvars, draw(polys(nvars))), PolyCoeff(nvars, draw(polys(nvars)))
    p, q, a, b = draw(superfunction_pairs())
    return superfunction(p, q, a), superfunction(p, q, b)


def rebuilt(v):
    """``v`` again through its public constructor, with its terms in reverse order."""
    terms = dict(reversed(list(v.terms.items())))
    if isinstance(v, GrassmannElement):
        return GrassmannElement(v.n, terms)
    if isinstance(v, PolyCoeff):
        return PolyCoeff(v.nvars, terms)
    return Superfunction(v.p, v.q, terms)


class TestSharedCore:
    @pytest.mark.parametrize("kind", KINDS)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_equal_values_hash_equal(self, kind, data):
        a, b = data.draw(values(kind))
        public = rebuilt(a)
        for v in (a, public, (a + b) - b, -(-a), a * 1, 0 + a, sum_terms([b, a, -b])):
            assert v == public and hash(v) == hash(public)

    @pytest.mark.parametrize(
        "a, b",
        [
            (GrassmannElement.one(1), GrassmannElement.one(2)),
            (PolyCoeff.const(1, 1), PolyCoeff.const(2, 1)),
            (Superfunction.const(1, 1, 1), Superfunction.const(1, 2, 1)),
            (Superfunction.const(1, 1, 1), Superfunction.const(2, 1, 1)),
        ],
    )
    def test_mismatched_dimensions(self, a, b):
        for op in (lambda: a + b, lambda: a - b, lambda: a * b, lambda: sum_terms([a, b])):
            with pytest.raises(DimensionError):
                op()
        assert a != b

    def test_polynomial_scalar_of_other_variable_count(self):
        with pytest.raises(DimensionError):
            Superfunction.const(1, 1, 1) * PolyCoeff.const(2, 1)


# -- the canonical text ---------------------------------------------------------------


def poly(nvars: int, terms: dict) -> PolyCoeff:
    return PolyCoeff(nvars, terms)


x1, x2 = PolyCoeff.variable(2, 1), PolyCoeff.variable(2, 2)

TEXTS = [
    (GrassmannElement.zero(3), "0"),
    (GrassmannElement(2, {0: -1}), "-1"),
    (GrassmannElement(3, {0b001: -1, 0b110: 2}), "-t1 + 2*t2*t3"),
    (GrassmannElement(3, {0: 1, 0b001: -1, 0b010: 1, 0b101: Fraction(-3, 2)}), "1 - t1 + t2 - 3/2*t1*t3"),
    (GrassmannElement(2, {0: Fraction(-1, 3), 0b11: Fraction(5, 7)}), "-1/3 + 5/7*t1*t2"),
    (PolyCoeff.zero(2), "0"),
    (PolyCoeff.const(2, 1), "1"),
    (poly(1, {(3,): -1}), "-x1^3"),
    (poly(3, {(2, 0, 1): 1, (0, 0, 0): -2, (1, 1, 0): Fraction(1, 2), (0, 1, 0): -1}), "-2 - x2 + 1/2*x1*x2 + x1^2*x3"),
    (Superfunction.zero(2, 2), "0"),
    (Superfunction(1, 1, {0b1: poly(1, {(1,): -1})}), "-x1*t1"),
    (Superfunction(2, 2, {0: x1 * x1, 0b01: PolyCoeff.const(2, 1), 0b10: -x2, 0b11: x1 - 1}),
     "x1^2 + t1 - x2*t2 + (-1 + x1)*t1*t2"),
    (Superfunction(2, 2, {0: 1 + x2, 0b01: PolyCoeff.const(2, -1), 0b10: PolyCoeff.const(2, Fraction(2, 3))}),
     "(1 + x2) - t1 + 2/3*t2"),
    (Superfunction(2, 1, {0: PolyCoeff.const(2, -3), 0b1: -x1 - x2}), "-3 + (-x2 - x1)*t1"),
]


class TestCanonicalText:
    @pytest.mark.parametrize("value, text", TEXTS, ids=[t for _, t in TEXTS])
    def test_text(self, value, text):
        assert str(value) == text

    def test_poly_to_json(self):
        assert jsonio.poly_to_json(poly(2, {(0, 0): Fraction(-1, 2), (0, 3): 1, (1, 0): -1})) == "-1/2 + x2^3 - x1"
