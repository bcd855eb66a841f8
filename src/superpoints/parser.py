"""Recursive-descent parser for Grassmann, superfunction and polynomial expressions.

Grammar (whitespace insignificant)::

    expr   := term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := base ('^' nat)?
    base   := rational | 't' nat | 'x' nat | '(' expr ')' | '-' factor

Rationals are ``p`` or ``p/q`` with integer parts; ``t<k>`` are the odd
generators, ``x<k>`` the even variables.  Errors carry precise byte offsets.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm, log10

from .errors import ParseError
from .grassmann import GrassmannElement, sum_terms
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


def _check_power(value, k: int, pos: int) -> None:
    """Refuse ``value ** k`` before any work when the power of its body is too large.

    The body is the part of ``value`` free of odd generators; the rest is
    nilpotent and adds a bounded number of binomial terms.  With ``den`` the
    common denominator of the body's coefficients and ``num`` the sum of their
    numerators over it, the body to the ``k`` has coefficients of at most
    ``k * log10(max(num, den))`` digits, ``k`` times the body's degree ``deg``,
    and at most ``C(k*deg + p, p)`` terms, the monomials of that degree in the
    ``p`` variables the body contains.
    """
    part = value if isinstance(value, PolyCoeff) else value.terms.get(0)
    body = part.terms if isinstance(part, PolyCoeff) else {(): part} if part else {}
    if not body:
        return
    den = lcm(*[c.denominator for c in body.values()])
    num = sum(abs(c.numerator) * (den // c.denominator) for c in body.values())
    degree = k * max(map(sum, body))
    p = sum(map(any, zip(*body)))
    if k * Fraction(log10(max(num, den))) > POWER_LIMIT:
        bound = "digits"
    elif degree > POWER_LIMIT:
        bound = "in degree"
    elif comb(degree + p, p) > POWER_LIMIT:
        bound = "terms"
    else:
        return
    raise ValueError(
        f"exponent {k} at offset {pos} is too large: the power would exceed {POWER_LIMIT} {bound}"
    )


def _integer(text: str, start: int, end: int) -> int:
    """The decimal literal ``text[start:end]``; refused with its offset when it
    has more digits than the interpreter converts."""
    limit = max_str_digits()
    if limit and end - start > limit:
        raise ParseError(f"integer literal of {end - start} digits is longer than the limit of {limit}", start)
    return int(text[start:end])


@dataclass(frozen=True)
class _Token:
    kind: str  # NUMBER, GEN, VAR, OP, END
    value: object
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i = 0
    size = len(text)
    while i < size:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdecimal():
            start = i
            while i < size and text[i].isdecimal():
                i += 1
            num = _integer(text, start, i)
            if i < size and text[i] == "/":
                slash = i
                i += 1
                dstart = i
                while i < size and text[i].isdecimal():
                    i += 1
                if dstart == i:
                    raise ParseError("expected digits after '/'", slash + 1)
                den = _integer(text, dstart, i)
                if den == 0:
                    raise ParseError("zero denominator", dstart)
                tokens.append(_Token("NUMBER", Fraction(num, den), start))
            else:
                tokens.append(_Token("NUMBER", Fraction(num), start))
            continue
        if ch in ("t", "x"):
            start = i
            i += 1
            dstart = i
            while i < size and text[i].isdecimal():
                i += 1
            if dstart == i:
                raise ParseError(f"expected an index after '{ch}'", start)
            index = _integer(text, dstart, i)
            tokens.append(_Token("GEN" if ch == "t" else "VAR", index, start))
            continue
        if ch in "+-*^()":
            tokens.append(_Token("OP", ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("END", None, size))
    return tokens


class _Parser:
    """Evaluates while parsing; the algebra adapter supplies the atoms."""

    def __init__(self, tokens: list[_Token], algebra):
        self.tokens = tokens
        self.pos = 0
        self.algebra = algebra

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def expect_op(self, op: str):
        token = self.peek()
        if token.kind != "OP" or token.value != op:
            raise ParseError(f"expected {op!r}", token.pos)
        return self.next()

    def parse(self):
        value = self.expr()
        token = self.peek()
        if token.kind != "END":
            raise ParseError("unexpected trailing input", token.pos)
        return value

    def expr(self):
        values = [self.term()]
        while True:
            token = self.peek()
            if token.kind == "OP" and token.value in "+-":
                self.next()
                rhs = self.term()
                values.append(rhs if token.value == "+" else -rhs)
            elif len(values) == 1:
                return values[0]
            else:
                return sum_terms(values)

    def term(self):
        value = self.factor()
        while True:
            token = self.peek()
            if token.kind == "OP" and token.value == "*":
                self.next()
                value = value * self.factor()
            else:
                return value

    def factor(self):
        value = self.base()
        token = self.peek()
        if token.kind == "OP" and token.value == "^":
            self.next()
            exp = self.peek()
            if exp.kind != "NUMBER" or exp.value.denominator != 1:
                raise ParseError("exponent must be a non-negative integer", exp.pos)
            self.next()
            _check_power(value, int(exp.value), exp.pos)
            value = value ** int(exp.value)
        return value

    def base(self):
        token = self.next()
        if token.kind == "NUMBER":
            return self.algebra.rational(token.value)
        if token.kind == "GEN":
            return self.algebra.generator(token.value, token.pos)
        if token.kind == "VAR":
            return self.algebra.variable(token.value, token.pos)
        if token.kind == "OP" and token.value == "(":
            value = self.expr()
            self.expect_op(")")
            return value
        if token.kind == "OP" and token.value == "-":
            if self.peek().kind == "END":
                raise ParseError("dangling '-'", token.pos)
            # unary minus binds tighter than '*' but respects '^' on its operand
            return -self.factor()
        raise ParseError("expected a value", token.pos)


# Each algebra builds its unit through the public constructors at the first
# atom, so the dimensions are checked where they always were; the atoms are
# built from the unit and the checked index without a second check.


class _GrassmannAlgebra:
    def __init__(self, n: int):
        self.n = n

    @functools.cached_property
    def one(self) -> GrassmannElement:
        return GrassmannElement.one(self.n)

    def rational(self, value: Fraction) -> GrassmannElement:
        return value * self.one

    def generator(self, k: int, pos: int) -> GrassmannElement:
        if not 1 <= k <= self.n:
            raise ParseError(f"generator t{k} outside 1..{self.n}", pos)
        return GrassmannElement._make(self.one.n, {1 << (k - 1): Fraction(1)})

    def variable(self, k: int, pos: int):
        raise ParseError("even variables are not allowed in a Grassmann expression", pos)


class _SuperfunctionAlgebra:
    def __init__(self, p: int, q: int):
        self.p = p
        self.q = q

    @functools.cached_property
    def one(self) -> Superfunction:
        return Superfunction.const(self.p, self.q, 1)

    def rational(self, value: Fraction) -> Superfunction:
        return value * self.one

    def generator(self, k: int, pos: int) -> Superfunction:
        if not 1 <= k <= self.q:
            raise ParseError(f"generator t{k} outside 1..{self.q}", pos)
        return Superfunction._make(self.p, self.q, {1 << (k - 1): self.one.terms[0]})

    def variable(self, k: int, pos: int) -> Superfunction:
        if not 1 <= k <= self.p:
            raise ParseError(f"variable x{k} outside 1..{self.p}", pos)
        return Superfunction._make(self.p, self.q, {0: PolyCoeff.variable(self.one.p, k)})


class _PolyAlgebra:
    def __init__(self, nvars: int):
        self.nvars = nvars

    @functools.cached_property
    def one(self) -> PolyCoeff:
        return PolyCoeff.const(self.nvars, 1)

    def rational(self, value: Fraction) -> PolyCoeff:
        return value * self.one

    def generator(self, k: int, pos: int):
        raise ParseError("odd generators are not allowed in a polynomial", pos)

    def variable(self, k: int, pos: int) -> PolyCoeff:
        if not 1 <= k <= self.nvars:
            raise ParseError(f"variable x{k} outside 1..{self.nvars}", pos)
        return PolyCoeff.variable(self.nvars, k)


def parse_element(text: str, n: int) -> GrassmannElement:
    return _Parser(_tokenize(text), _GrassmannAlgebra(n)).parse()


def parse_superfunction(text: str, p: int, q: int) -> Superfunction:
    return _Parser(_tokenize(text), _SuperfunctionAlgebra(p, q)).parse()


def parse_poly(text: str, nvars: int) -> PolyCoeff:
    return _Parser(_tokenize(text), _PolyAlgebra(nvars)).parse()


def parse_expr(text: str, n: int | None = None, p: int | None = None, q: int | None = None):
    """Dispatch on the context: a generator count alone selects Grassmann mode,
    a format ``p|q`` selects superfunction mode."""
    if n is not None:
        return parse_element(text, n)
    if p is not None or q is not None:
        return parse_superfunction(text, p or 0, q or 0)
    raise ValueError("a parsing context (-n, or -p/-q) is required")
