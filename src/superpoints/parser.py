"""Recursive-descent parser for Grassmann, superfunction and polynomial expressions.

Grammar (whitespace insignificant)::

    expr   := term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := base ('^' nat)?
    base   := rational | 't' nat | 'x' nat | '(' expr ')' | '-' factor

``nat`` is a bare run of decimal digits and a rational is ``nat`` or
``nat/nat``; ``t<k>`` are the odd generators, ``x<k>`` the even variables.
Errors carry precise byte offsets.

Terms are evaluated as monomials ``(coeff, key)``: atoms, products and powers
of monomials and negated monomials stay monomials, without a ring value, and
the monomials of a sum go into one ``{key: coeff}`` dict.  Ring products,
powers and sums run only where an operand is a sum of several terms.
"""

from __future__ import annotations

import functools
import re
import sys
from fractions import Fraction
from math import comb, lcm, log10
from operator import add

from .errors import ParseError
from .grassmann import GrassmannElement, monomial_sign, sum_terms
from .poly import PolyCoeff
from .skeleton import Superfunction


#: The most decimal digits, the highest degree and the most terms that the
#: part of a power which does not vanish may reach.  It is Python's default
#: limit on the digits of an int converted to text, so a power refused for its
#: digits could not, cancellation aside, be printed either.
POWER_LIMIT = 4300


def max_str_digits() -> int:
    """The most decimal digits of an int that the interpreter converts to or
    from text, 0 for no limit."""
    return getattr(sys, "get_int_max_str_digits", int)()


def too_many_digits(body: dict, k: int) -> bool:
    """Whether a product of ``k`` factors like ``body`` may have coefficients of
    more than ``POWER_LIMIT`` digits.

    With ``den`` the common denominator of the coefficients of the nonempty
    ``body`` and ``num`` the sum of their numerators over it, such a product
    has coefficients of at most ``k * log10(max(num, den))`` digits.
    """
    den = lcm(*[c.denominator for c in body.values()])
    num = sum(abs(c.numerator) * (den // c.denominator) for c in body.values())
    # the float log10, compared exactly: k * a / b > POWER_LIMIT
    a, b = log10(max(num, den)).as_integer_ratio()
    return k * a > POWER_LIMIT * b


def _check_power(body: dict, k: int, pos: int) -> None:
    """Refuse a power to the ``k`` before any work when the power of its body is too large.

    The body ``{exponents: coeff}`` is the part of the base free of odd
    generators; the rest is nilpotent and adds a bounded number of binomial
    terms.  The body to the ``k`` has coefficients within the digit bound of
    ``too_many_digits``, the degree ``k*deg`` for a body of degree ``deg``, and
    at most ``C(k*deg + p, p)`` terms, the monomials of that degree in the
    ``p`` variables the body contains; the power of a body of one term is one
    term.
    """
    if not body:
        return
    degree = k * max(map(sum, body))
    p = sum(map(any, zip(*body)))
    if too_many_digits(body, k):
        bound = "digits"
    elif degree > POWER_LIMIT:
        bound = "in degree"
    elif len(body) > 1 and comb(degree + p, p) > POWER_LIMIT:
        bound = "terms"
    else:
        return
    raise ValueError(
        f"exponent {k} at offset {pos} is too large: the power would exceed {POWER_LIMIT} {bound}"
    )


#: One token after whitespace: digits and an optional ``/`` with a denominator
#: (groups 1, 2), an atom letter and its index (3, 4), an operator (5) or any
#: other character (6).  ``\d`` is ``str.isdecimal``, ``\s`` ``str.isspace``.
_TOKEN = re.compile(r"\s*(?:(\d+)(?:/(\d*))?|([tx])(\d*)|([-+*^()])|(\S))")


def _tokenize(text: str) -> list[tuple]:
    """``(kind, value, pos)`` tuples: ``nat`` with an int, ``rat`` with
    ``(num, den)``, ``t`` or ``x`` with the index, an operator, or ``end``."""
    limit = max_str_digits()
    tokens = []
    for match in _TOKEN.finditer(text):
        group = match.lastindex
        if limit and match.end() - match.start() > limit:
            for g in (1, 2, 4):
                if match[g] and len(match[g]) > limit:
                    raise ParseError(
                        f"integer literal of {len(match[g])} digits is longer than the limit of {limit}",
                        match.start(g),
                    )
        if group == 5:
            tokens.append((match[5], None, match.start(5)))
        elif group == 4:
            if not match[4]:
                raise ParseError(f"expected an index after '{match[3]}'", match.start(3))
            tokens.append((match[3], int(match[4]), match.start(3)))
        elif group == 1:
            tokens.append(("nat", int(match[1]), match.start(1)))
        elif group == 2:
            den = int(match[2] or 0)
            if not den:
                raise ParseError("zero denominator" if match[2] else "expected digits after '/'", match.start(2))
            tokens.append(("rat", (int(match[1]), den), match.start(1)))
        else:
            raise ParseError(f"unexpected character {match[6]!r}", match.start(6))
    tokens.append(("end", None, len(text)))
    return tokens


def _negate(value):
    return (-value[0], value[1]) if type(value) is tuple else -value


class _Parser:
    """Evaluates while parsing.  A value is a monomial ``(coeff, key)``, its
    coefficient an int until a ``/`` makes it a ``Fraction``, or a ring value."""

    def __init__(self, text: str, algebra):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.algebra = algebra

    def ring(self, value):
        return self.algebra.value({value[1]: value[0]}) if type(value) is tuple else value

    def parse(self):
        value = self.expr()
        kind, _, pos = self.tokens[self.pos]
        if kind != "end":
            raise ParseError("unexpected trailing input", pos)
        return self.ring(value)

    def expr(self):
        values = [self.term()]
        while (kind := self.tokens[self.pos][0]) == "+" or kind == "-":
            self.pos += 1
            values.append(self.term() if kind == "+" else _negate(self.term()))
        if len(values) == 1:
            return values[0]
        terms: dict = {}
        rings = []
        for value in values:
            if type(value) is tuple:
                c, key = value
                terms[key] = terms[key] + c if key in terms else c
            else:
                rings.append(value)
        value = self.algebra.value(terms)
        return sum_terms(rings + [value]) if rings else value

    def term(self):
        value = self.factor()
        while self.tokens[self.pos][0] == "*":
            self.pos += 1
            rhs = self.factor()
            if type(value) is tuple and type(rhs) is tuple:
                sign, key = self.algebra.mul(value[1], rhs[1])
                c = value[0] if rhs[0] == 1 else value[0] * rhs[0]
                value = (c if sign > 0 else -c if sign else 0), key
            else:
                value = self.ring(value) * self.ring(rhs)
        return value

    def factor(self):
        value = self.base()
        if self.tokens[self.pos][0] != "^":
            return value
        kind, k, pos = self.tokens[self.pos + 1]
        if kind != "nat":
            raise ParseError("exponent must be a non-negative integer", pos)
        self.pos += 2
        if type(value) is not tuple:
            part = value if isinstance(value, PolyCoeff) else value.terms.get(0)
            _check_power(part.terms if isinstance(part, PolyCoeff) else {(): part} if part else {}, k, pos)
            return value**k
        c, key = value
        exps = self.algebra.even(key)
        if exps is None:  # an odd monomial squares to zero
            return (1, self.algebra.unit) if k == 0 else value if k == 1 else (0, key)
        _check_power({exps: c} if c else {}, k, pos)
        # square and multiply; even keys multiply without a sign
        mul, out, e = self.algebra.mul, self.algebra.unit, k
        while e:
            if e & 1:
                out = mul(out, key)[1]
            e >>= 1
            key = mul(key, key)[1]
        return c**k, out

    def base(self):
        kind, value, pos = self.tokens[self.pos]
        self.pos += 1
        if kind == "nat":
            return value, self.algebra.unit
        if kind == "rat":
            return Fraction(*value), self.algebra.unit
        if kind == "t" or kind == "x":
            return 1, self.algebra.atom(kind, value, pos)
        if kind == "(":
            value = self.expr()
            kind, _, pos = self.tokens[self.pos]
            if kind != ")":
                raise ParseError("expected ')'", pos)
            self.pos += 1
            return value
        if kind == "-":
            if self.tokens[self.pos][0] == "end":
                raise ParseError("dangling '-'", pos)
            # unary minus binds tighter than '*' but respects '^' on its operand
            return _negate(self.factor())
        raise ParseError("expected a value", pos)


# An algebra adapter gives the keys their meaning: ``atom`` maps ``t<k>`` or
# ``x<k>`` to a key, ``mul`` multiplies two keys into ``(sign, key)`` (sign 0
# if it vanishes), ``even`` gives a key's even exponents (None if it holds an
# odd generator) and ``value`` builds a ring value from ``{key: coeff}``.
# ``unit``, the key of a constant, builds the unit through the public
# constructor, and ``atom`` reads it after its range check, so the dimensions
# are checked at the first atom, where they always were.


def _fractions(terms: dict) -> dict:
    return {key: c if type(c) is Fraction else Fraction(c) for key, c in terms.items() if c}


def _odd_mul(a: int, b: int) -> tuple[int, int]:
    return (0, 0) if a & b else (monomial_sign(a, b), a | b)


class _GrassmannAlgebra:
    mul = staticmethod(_odd_mul)
    even = staticmethod(lambda key: None if key else ())

    def __init__(self, n: int):
        self.n = n

    @functools.cached_property
    def unit(self) -> int:
        GrassmannElement.one(self.n)
        return 0

    def atom(self, kind: str, k: int, pos: int) -> int:
        if kind == "x":
            raise ParseError("even variables are not allowed in a Grassmann expression", pos)
        if not 1 <= k <= self.n:
            raise ParseError(f"generator t{k} outside 1..{self.n}", pos)
        return self.unit | 1 << (k - 1)

    def value(self, terms: dict) -> GrassmannElement:
        return GrassmannElement._make(self.n, _fractions(terms))


class _SuperfunctionAlgebra:
    """Keys are pairs ``(exponents, mask)``."""

    even = staticmethod(lambda key: None if key[1] else key[0])

    def __init__(self, p: int, q: int):
        self.p = p
        self.q = q

    @functools.cached_property
    def unit(self) -> tuple:
        Superfunction.const(self.p, self.q, 1)
        return (0,) * self.p, 0

    def atom(self, kind: str, k: int, pos: int) -> tuple:
        if kind == "t":
            if not 1 <= k <= self.q:
                raise ParseError(f"generator t{k} outside 1..{self.q}", pos)
            return self.unit[0], 1 << (k - 1)
        if not 1 <= k <= self.p:
            raise ParseError(f"variable x{k} outside 1..{self.p}", pos)
        return tuple([int(j == k) for j in range(1, self.p + 1)]), self.unit[1]

    @staticmethod
    def mul(a: tuple, b: tuple) -> tuple:
        sign, mask = _odd_mul(a[1], b[1])
        return sign, (tuple(map(add, a[0], b[0])), mask)

    def value(self, terms: dict) -> Superfunction:
        polys: dict = {}
        for (exps, mask), c in _fractions(terms).items():
            polys.setdefault(mask, {})[exps] = c
        return Superfunction._make(self.p, self.q, {m: PolyCoeff._make(self.p, t) for m, t in polys.items()})


class _PolyAlgebra:
    mul = staticmethod(lambda a, b: (1, tuple(map(add, a, b))))
    even = staticmethod(lambda key: key)

    def __init__(self, nvars: int):
        self.nvars = nvars

    @functools.cached_property
    def unit(self) -> tuple:
        PolyCoeff.const(self.nvars, 1)
        return (0,) * self.nvars

    def atom(self, kind: str, k: int, pos: int) -> tuple:
        if kind == "t":
            raise ParseError("odd generators are not allowed in a polynomial", pos)
        if not 1 <= k <= self.nvars:
            raise ParseError(f"variable x{k} outside 1..{self.nvars}", pos)
        return tuple([int(j == k) for j in range(1, self.nvars + 1)])

    def value(self, terms: dict) -> PolyCoeff:
        return PolyCoeff._make(self.nvars, _fractions(terms))


def parse_element(text: str, n: int) -> GrassmannElement:
    return _Parser(text, _GrassmannAlgebra(n)).parse()


def parse_superfunction(text: str, p: int, q: int) -> Superfunction:
    return _Parser(text, _SuperfunctionAlgebra(p, q)).parse()


def parse_poly(text: str, nvars: int) -> PolyCoeff:
    return _Parser(text, _PolyAlgebra(nvars)).parse()


def parse_expr(text: str, n: int | None = None, p: int | None = None, q: int | None = None):
    """Dispatch on the context: a generator count alone selects Grassmann mode,
    a format ``p|q`` selects superfunction mode."""
    if n is not None:
        return parse_element(text, n)
    if p is not None or q is not None:
        return parse_superfunction(text, p or 0, q or 0)
    raise ValueError("a parsing context (-n, or -p/-q) is required")
