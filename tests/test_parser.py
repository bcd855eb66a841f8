"""Expression grammar, error positions, and print/parse round trips."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superpoints import (
    GrassmannElement,
    ParseError,
    Superfunction,
    parse_element,
    parse_expr,
    parse_poly,
    parse_superfunction,
)
from superpoints import grassmann, parser
from superpoints.poly import PolyCoeff


def theta(n, *indices):
    return GrassmannElement.monomial(n, indices)


class TestGrammar:
    def test_sum_and_product(self):
        assert parse_element("t1*t2 + 3", 2) == GrassmannElement(2, {0: 3, 0b11: 1})

    def test_sign_from_order(self):
        assert parse_element("t2*t1", 2) == GrassmannElement.monomial(2, (1, 2), -1)

    def test_power_nilpotent(self):
        assert parse_element("t1^2", 2).is_zero()

    def test_rational_literal(self):
        assert parse_element("3/4*t1", 1) == GrassmannElement(1, {0b1: Fraction(3, 4)})

    def test_parentheses_and_unary_minus(self):
        assert parse_element("-(1 - t1)*2", 1) == GrassmannElement(1, {0: -2, 0b1: 2})

    def test_power_binds_tighter_than_product(self):
        assert parse_poly("2*x1^2", 1) == PolyCoeff(1, {(2,): 2})

    def test_power_binds_tighter_than_unary_minus(self):
        assert parse_poly("-x1^2", 1) == parse_poly("-(x1^2)", 1) == PolyCoeff(1, {(2,): -1})

    def test_whitespace_insignificant(self):
        assert parse_element(" t1 * t2+1 ", 2) == parse_element("t1*t2+1", 2)

    def test_superfunction_mode(self):
        f = parse_superfunction("x1^2*t1 - 1/2", 1, 1)
        assert f == Superfunction(
            1, 1, {0: PolyCoeff.const(1, Fraction(-1, 2)), 0b1: PolyCoeff(1, {(2,): 1})}
        )

    def test_parse_expr_dispatch(self):
        assert parse_expr("t1", n=1) == theta(1, 1)
        assert isinstance(parse_expr("t1", p=0, q=1), Superfunction)
        with pytest.raises(ValueError):
            parse_expr("1")


class TestErrors:
    def test_syntax_error_position(self):
        with pytest.raises(ParseError) as exc:
            parse_element("t1 + $", 2)
        assert exc.value.position == 5

    def test_unclosed_parenthesis(self):
        with pytest.raises(ParseError):
            parse_element("(1 + t1", 2)

    def test_out_of_range_generator(self):
        with pytest.raises(ParseError) as exc:
            parse_element("t1*t3", 2)
        assert exc.value.position == 3

    def test_negative_exponent(self):
        with pytest.raises(ParseError) as exc:
            parse_element("t1^-1", 2)
        assert "exponent" in str(exc.value)

    def test_negative_exponent_after_unary_minus(self):
        with pytest.raises(ParseError) as exc:
            parse_element("-t1^-1", 2)
        assert "exponent" in str(exc.value)
        assert exc.value.position == 4

    def test_fractional_exponent(self):
        with pytest.raises(ParseError):
            parse_element("2^1/2", 1)  # '^' expects a bare natural number

    def test_exponent_with_a_slash_is_refused_even_when_it_reduces(self):
        with pytest.raises(ParseError, match="exponent must be a non-negative integer") as exc:
            parse_superfunction("x1^4/2", 1, 1)
        assert exc.value.position == 3
        with pytest.raises(ParseError, match="exponent must be a non-negative integer") as exc:
            parse_element("2^6/3", 1)
        assert exc.value.position == 2

    def test_lexical_error_wins_over_an_earlier_semantic_one(self):
        # the whole text is tokenized before anything is evaluated
        with pytest.raises(ParseError, match="unexpected character") as exc:
            parse_element("t9 + $", 2)
        assert exc.value.position == 5
        with pytest.raises(ParseError, match="zero denominator") as exc:
            parse_element("t9 + 3/0", 2)
        assert exc.value.position == 7

    def test_semantic_error_wins_over_a_later_syntax_error(self):
        with pytest.raises(ParseError, match="generator t9 outside") as exc:
            parse_element("t9 + (", 2)
        assert exc.value.position == 0

    def test_variables_rejected_in_grassmann_mode(self):
        with pytest.raises(ParseError):
            parse_element("x1", 2)

    def test_generators_rejected_in_poly_mode(self):
        with pytest.raises(ParseError):
            parse_poly("t1", 2)

    def test_missing_index(self):
        with pytest.raises(ParseError) as exc:
            parse_element("t + 1", 2)
        assert exc.value.position == 0

    def test_bad_rational(self):
        with pytest.raises(ParseError):
            parse_element("3/", 1)

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_element("1 2", 1)


rationals = st.fractions(min_value=-9, max_value=9, max_denominator=6)


@st.composite
def elements(draw):
    n = draw(st.integers(min_value=0, max_value=6))
    masks = st.integers(min_value=0, max_value=(1 << n) - 1)
    terms = draw(st.dictionaries(masks, rationals, max_size=5))
    return GrassmannElement(n, terms)


class TestRoundTrip:
    @given(elements())
    def test_element_print_parse(self, element):
        assert parse_element(str(element), element.n) == element

    def test_superfunction_print_parse(self):
        rng = random.Random(1)
        import itertools

        for _ in range(40):
            p, q = rng.randint(0, 2), rng.randint(0, 3)
            terms = {}
            for mask in range(1 << q):
                if rng.random() < 0.5:
                    poly = PolyCoeff(
                        p,
                        {
                            exps: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                            for exps in itertools.product(range(3), repeat=p)
                            if rng.random() < 0.5
                        },
                    )
                    terms[mask] = poly
            f = Superfunction(p, q, terms)
            assert parse_superfunction(str(f), p, q) == f

    def test_poly_print_parse(self):
        rng = random.Random(2)
        import itertools

        for _ in range(40):
            nvars = rng.randint(0, 3)
            poly = PolyCoeff(
                nvars,
                {
                    exps: Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                    for exps in itertools.product(range(3), repeat=nvars)
                    if rng.random() < 0.4
                },
            )
            assert parse_poly(str(poly), nvars) == poly

    def test_dense_512_term_element(self):
        rng = random.Random(3)
        element = GrassmannElement(
            9, {mask: Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4)) for mask in range(512)}
        )
        parsed = parse_element(str(element), 9)
        assert parsed == element and str(parsed) == str(element)

    def test_poly_with_explicit_first_powers(self):
        rng = random.Random(4)
        import itertools

        for _ in range(40):
            nvars = rng.randint(1, 3)
            poly = PolyCoeff(
                nvars,
                {
                    exps: Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                    for exps in itertools.product(range(4), repeat=nvars)
                    if rng.random() < 0.4
                },
            )
            text = explicit_poly_text(poly)
            parsed = parse_poly(text, nvars)
            assert parsed == poly and str(parsed) == str(poly), text


def explicit_poly_text(poly: PolyCoeff) -> str:
    """``(c)*x1^1*x3^2 + ...``: every coefficient in parentheses and every
    variable with its exponent, even 1."""
    parts = [
        "*".join([f"({c})"] + [f"x{i}^{e}" for i, e in enumerate(exps, start=1) if e])
        for exps, c in sorted(poly.terms.items())
    ]
    return " + ".join(parts) or "0"


# -- differential test: random expression trees against the ring operators -------
#
# A tree is a tuple: ("num", c), ("t", k), ("x", k), ("()", a), ("neg", a),
# ("^", a, k), or (op, a, b) for op in "+", "-", "*".  The reference evaluates
# it with the public constructors and operators, which never call the parser.


def render(tree) -> tuple[str, int]:
    """The text of a tree and how tightly it binds: 0 a sum, 1 a product,
    2 a factor, 3 an atom or a parenthesised expression."""
    op = tree[0]
    if op == "num":
        return (str(tree[1]), 3) if tree[1] >= 0 else (f"({tree[1]})", 3)
    if op in ("t", "x"):
        return f"{op}{tree[1]}", 3
    if op == "()":
        return f"({render(tree[1])[0]})", 3
    if op == "neg":
        return "-" + bound(tree[1], 2), 2
    if op == "^":
        return f"{bound(tree[1], 3)}^{tree[2]}", 2
    if op == "*":
        return f"{bound(tree[1], 1)}*{bound(tree[2], 2)}", 1
    return f"{bound(tree[1], 0)} {op} {bound(tree[2], 1)}", 0


def bound(tree, level: int) -> str:
    text, own = render(tree)
    return text if own >= level else f"({text})"


def evaluate(tree, ring):
    op = tree[0]
    if op == "num":
        return tree[1] * ring["one"]
    if op in ("t", "x"):
        return ring[op](tree[1])
    if op == "()":
        return evaluate(tree[1], ring)
    if op == "neg":
        return -evaluate(tree[1], ring)
    if op == "^":
        return evaluate(tree[1], ring) ** tree[2]
    a, b = evaluate(tree[1], ring), evaluate(tree[2], ring)
    return a * b if op == "*" else a + b if op == "+" else a - b


def context(mode: str, a: int, b: int):
    """The reference atoms, the parser, and the odd and even dimensions of a
    mode: Grassmann on ``a`` generators, superfunctions on ``a|b``, or
    polynomials in ``a`` variables."""
    if mode == "element":
        atoms = {"one": GrassmannElement.one(a), "t": lambda k: GrassmannElement.theta(a, k)}
        return atoms, lambda text: parse_element(text, a), a, 0
    if mode == "superfunction":
        atoms = {
            "one": Superfunction.const(a, b, 1),
            "t": lambda k: Superfunction.theta(a, b, k),
            "x": lambda k: Superfunction.coordinate(a, b, k),
        }
        return atoms, lambda text: parse_superfunction(text, a, b), b, a
    atoms = {"one": PolyCoeff.const(a, 1), "x": lambda k: PolyCoeff.variable(a, k)}
    return atoms, lambda text: parse_poly(text, a), 0, a


@st.composite
def trees(draw, q: int, p: int):
    atoms = [st.tuples(st.just("num"), st.fractions(min_value=-4, max_value=4, max_denominator=3))]
    if q:
        atoms.append(st.tuples(st.just("t"), st.integers(1, q)))
    if p:
        atoms.append(st.tuples(st.just("x"), st.integers(1, p)))

    def extend(children):
        return st.one_of(
            st.tuples(st.sampled_from(["+", "-", "*"]), children, children),
            st.tuples(st.just("neg"), children),
            st.tuples(st.just("()"), children),
            st.tuples(st.just("^"), children, st.integers(0, 3)),
        )

    return draw(st.recursive(st.one_of(atoms), extend, max_leaves=10))


class TestDifferential:
    """The parse of a rendered random tree equals the tree evaluated through
    the public ring operators: same value, same hash, same text."""

    @pytest.mark.parametrize("mode", ["element", "superfunction", "poly"])
    @given(data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_parse_equals_ring_evaluation(self, mode, data):
        a = data.draw(st.integers(0, 3), label="first dimension")
        b = data.draw(st.integers(0, 3), label="second dimension")
        ring, parse, q, p = context(mode, a, b)
        tree = data.draw(trees(q, p), label="tree")
        text = render(tree)[0]
        expected = evaluate(tree, ring)
        parsed = parse(text)
        assert parsed == expected, text
        assert hash(parsed) == hash(expected) and str(parsed) == str(expected)

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("t2*t1", lambda: -GrassmannElement.monomial(3, (1, 2))),
            ("t1*t1", lambda: GrassmannElement.zero(3)),
            ("t3*t1*t2 + t2*t1*t3", lambda: GrassmannElement.zero(3)),
            ("t3*t1*t2", lambda: GrassmannElement.monomial(3, (1, 2, 3))),
            ("0*t1 + 0 + t2 - t2", lambda: GrassmannElement.zero(3)),
            ("-(-(2*t1))^1*(t3)", lambda: 2 * GrassmannElement.monomial(3, (1, 3))),
            ("((1 + t1))*((1 + t2))", lambda: (1 + GrassmannElement.theta(3, 1)) * (1 + GrassmannElement.theta(3, 2))),
            ("(1 + t1 + t2)^3", lambda: (1 + GrassmannElement.theta(3, 1) + GrassmannElement.theta(3, 2)) ** 3),
            ("(t1*t2)^0 + (t1)^1 + t2^5", lambda: 1 + GrassmannElement.theta(3, 1)),
            ("(3/2)^3*t1^1 - 0^0", lambda: Fraction(27, 8) * GrassmannElement.theta(3, 1) - 1),
        ],
    )
    def test_pinned_grassmann_cases(self, text, expected):
        assert parse_element(text, 3) == expected()

    def test_pinned_superfunction_cases(self):
        x1, x2 = Superfunction.coordinate(2, 2, 1), Superfunction.coordinate(2, 2, 2)
        t1, t2 = Superfunction.theta(2, 2, 1), Superfunction.theta(2, 2, 2)
        assert parse_superfunction("x2*t2*x1^2*t1", 2, 2) == -(x1**2) * x2 * t1 * t2
        assert parse_superfunction("(2 + x1)^5*t1", 2, 2) == (2 + x1) ** 5 * t1
        assert parse_superfunction("(x1 + t1)^2", 2, 2) == x1**2 + 2 * x1 * t1
        assert parse_superfunction("(x1*t1)^2 + (x1*t1*t2)^1", 2, 2) == x1 * t1 * t2
        assert parse_superfunction("-(x1 - x2)*(t2 - t1)", 2, 2) == -(x1 - x2) * (t2 - t1)


class TestMonomialTerms:
    """Text whose terms are monomials is read without any ring product, power
    or sum: each term is one monomial and the sum one dict."""

    @staticmethod
    def refuse_ring_arithmetic(monkeypatch):
        def refuse(*args):
            raise AssertionError("ring arithmetic while parsing monomial terms")

        for cls in (GrassmannElement, Superfunction, PolyCoeff):
            monkeypatch.setattr(cls, "__mul__", refuse)
        monkeypatch.setattr(grassmann, "gr_mul", refuse)
        monkeypatch.setattr(grassmann._SparseForm, "__pow__", refuse)
        monkeypatch.setattr(parser, "sum_terms", refuse)

    def test_dense_element_text(self, monkeypatch):
        rng = random.Random(9)
        element = GrassmannElement(9, {m: Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for m in range(512)})
        text = str(element)
        self.refuse_ring_arithmetic(monkeypatch)
        assert parse_element(text, 9) == element

    def test_superfunction_text(self, monkeypatch):
        rng = random.Random(10)
        terms, parts = {}, []
        for mask in range(8):
            # the generators are written in the order t3, t1, t2
            order = [i for i in (3, 1, 2) if mask >> (i - 1) & 1]
            sign = (-1) ** sum(a > b for j, a in enumerate(order) for b in order[j + 1 :])
            poly = PolyCoeff(2, {(i, j): rng.randint(-5, 5) for i in range(3) for j in range(3)})
            terms[mask] = sign * poly
            parts += ["*".join([explicit_poly_text(PolyCoeff(2, {exps: c}))] + [f"t{i}" for i in order])
                      for exps, c in poly.terms.items()]
        text = " + ".join(parts)
        self.refuse_ring_arithmetic(monkeypatch)
        assert parse_superfunction(text, 2, 3) == Superfunction(2, 3, terms)

    def test_bench_style_poly_text(self, monkeypatch):
        rng = random.Random(11)
        poly = PolyCoeff(3, {(i, j, k): Fraction(rng.randint(-7, 7), rng.randint(1, 3)) for i in range(3) for j in range(3) for k in range(3)})
        text = explicit_poly_text(poly)
        self.refuse_ring_arithmetic(monkeypatch)
        assert parse_poly(text, 3) == poly
