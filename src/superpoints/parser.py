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

from dataclasses import dataclass
from fractions import Fraction

from .errors import ParseError
from .grassmann import GrassmannElement, sum_terms
from .poly import PolyCoeff
from .skeleton import Superfunction


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
        if ch.isdigit():
            start = i
            while i < size and text[i].isdigit():
                i += 1
            num = int(text[start:i])
            if i < size and text[i] == "/":
                slash = i
                i += 1
                dstart = i
                while i < size and text[i].isdigit():
                    i += 1
                if dstart == i:
                    raise ParseError("expected digits after '/'", slash + 1)
                den = int(text[dstart:i])
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
            while i < size and text[i].isdigit():
                i += 1
            if dstart == i:
                raise ParseError(f"expected an index after '{ch}'", start)
            index = int(text[dstart:i])
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


class _GrassmannAlgebra:
    def __init__(self, n: int):
        self.n = n

    def rational(self, value: Fraction) -> GrassmannElement:
        return GrassmannElement.scalar(self.n, value)

    def generator(self, k: int, pos: int) -> GrassmannElement:
        if not 1 <= k <= self.n:
            raise ParseError(f"generator t{k} outside 1..{self.n}", pos)
        return GrassmannElement.theta(self.n, k)

    def variable(self, k: int, pos: int):
        raise ParseError("even variables are not allowed in a Grassmann expression", pos)


class _SuperfunctionAlgebra:
    def __init__(self, p: int, q: int):
        self.p = p
        self.q = q

    def rational(self, value: Fraction) -> Superfunction:
        return Superfunction.const(self.p, self.q, value)

    def generator(self, k: int, pos: int) -> Superfunction:
        if not 1 <= k <= self.q:
            raise ParseError(f"generator t{k} outside 1..{self.q}", pos)
        return Superfunction.theta(self.p, self.q, k)

    def variable(self, k: int, pos: int) -> Superfunction:
        if not 1 <= k <= self.p:
            raise ParseError(f"variable x{k} outside 1..{self.p}", pos)
        return Superfunction.coordinate(self.p, self.q, k)


class _PolyAlgebra:
    def __init__(self, nvars: int):
        self.nvars = nvars

    def rational(self, value: Fraction) -> PolyCoeff:
        return PolyCoeff.const(self.nvars, value)

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
