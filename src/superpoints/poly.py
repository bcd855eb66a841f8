"""Sparse multivariate polynomials with exact rational coefficients.

Used as the coefficient maps of skeletons: variables ``x1..xp`` range over the
even directions of a domain.  Exponent tuples are the monomial keys, and
exact partial derivatives of any order are available.

The product kernel works on integers and computes sums of products
``sum(a_i * b_i)`` in one pass (``poly_dot``; a single product is the case
of one pair).  Each operand is brought to one common denominator with
integer numerators, and each exponent tuple is packed into one integer with
a field per variable, so that adding two packed keys adds the exponents.
The field width is ``FIELD_BITS``, or wider when the operands' largest
exponents need it, so no sum carries into the next field and any exponent
stays exact.  The packed form of a polynomial is cached on it for the last
width used.  Products of numerators are summed per packed key over the
common denominator of all pairs, and one ``Fraction`` per output term is
built at the end, so the canonical form is the same as with ``Fraction``
arithmetic throughout.  A single product with a one-term operand has
distinct output monomials and takes a direct ``Fraction`` path.  Evaluation
keeps one table of powers per variable instead of multiplying by a value
once per unit of exponent.

Results of internal arithmetic go through a trusted constructor that skips
the coercion and validation of the public ``PolyCoeff(nvars, terms)``.  The
hash key of a polynomial is built on first use.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import add, lshift
from typing import Mapping, Sequence

from .grassmann import as_fraction

#: Field width, in bits, of a packed exponent in products whose exponents
#: stay below ``2**FIELD_BITS``; wider exponents get wider fields.
FIELD_BITS = 16


class PolyCoeff:
    __slots__ = ("nvars", "terms", "_key", "_ints")

    def __init__(self, nvars: int, terms: Mapping[tuple[int, ...], Fraction | int | str]):
        if nvars < 0:
            raise ValueError("nvars must be non-negative")
        clean: dict[tuple[int, ...], Fraction] = {}
        for exps, coeff in terms.items():
            c = coeff if type(coeff) is Fraction else as_fraction(coeff)
            if not c:
                continue
            exps = tuple(exps)
            if len(exps) != nvars or any(e < 0 for e in exps):
                raise ValueError(f"bad exponent tuple {exps} for {nvars} variables")
            clean[exps] = c
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_key", None)
        object.__setattr__(self, "_ints", None)

    def __setattr__(self, name, value):
        raise AttributeError("PolyCoeff is immutable")

    @classmethod
    def zero(cls, nvars: int) -> "PolyCoeff":
        return cls(nvars, {})

    @classmethod
    def const(cls, nvars: int, value) -> "PolyCoeff":
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def variable(cls, nvars: int, i: int) -> "PolyCoeff":
        """The variable ``x_i``, 1-based."""
        if not 1 <= i <= nvars:
            raise ValueError(f"variable index {i} outside 1..{nvars}")
        exps = tuple(int(j == i) for j in range(1, nvars + 1))
        return cls(nvars, {exps: 1})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_constant(self) -> bool:
        return all(not any(e) for e in self.terms)

    def constant_value(self) -> Fraction:
        return self.terms.get((0,) * self.nvars, Fraction(0))

    def degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def __eq__(self, other):
        return isinstance(other, PolyCoeff) and self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        if self._key is None:
            object.__setattr__(self, "_key", (self.nvars, tuple(sorted(self.terms.items()))))
        return hash(self._key)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = PolyCoeff.const(self.nvars, other)
        if not isinstance(other, PolyCoeff):
            return NotImplemented
        if other.nvars != self.nvars:
            raise ValueError("mismatched variable counts")
        terms = dict(self.terms)
        for exps, coeff in other.terms.items():
            acc = terms.get(exps, 0) + coeff
            if acc:
                terms[exps] = acc
            else:
                terms.pop(exps, None)
        return _trusted(self.nvars, terms)

    __radd__ = __add__

    def __neg__(self):
        return _trusted(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = PolyCoeff.const(self.nvars, other)
        if not isinstance(other, PolyCoeff):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            r = Fraction(other)
            if not r:
                return _trusted(self.nvars, {})
            return _trusted(self.nvars, {e: r * c for e, c in self.terms.items()})
        if not isinstance(other, PolyCoeff):
            return NotImplemented
        if other.nvars != self.nvars:
            raise ValueError("mismatched variable counts")
        return poly_dot(self.nvars, [(self, other)])

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = PolyCoeff.const(self.nvars, 1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def diff(self, var: int) -> "PolyCoeff":
        """Exact partial derivative with respect to ``x_var`` (1-based)."""
        terms: dict[tuple[int, ...], Fraction] = {}
        for exps, coeff in self.terms.items():
            e = exps[var - 1]
            if e:
                terms[exps[: var - 1] + (e - 1,) + exps[var:]] = e * coeff
        return _trusted(self.nvars, terms)

    def diff_multi(self, orders: Sequence[int]) -> "PolyCoeff":
        out = self
        for var, k in enumerate(orders, start=1):
            for _ in range(k):
                out = out.diff(var)
                if out.is_zero():
                    return out
        return out

    def eval(self, values: Sequence, one=Fraction(1)):
        """Evaluate at a value tuple; works for any commutative ring via duck typing.

        ``one`` must be the multiplicative unit of the target ring so that
        constant terms embed correctly (e.g. a Grassmann unit when evaluating
        at even Grassmann elements).
        """
        if len(values) != self.nvars:
            raise ValueError(f"expected {self.nvars} values, got {len(values)}")
        powers = power_tables(values, self.terms, one)
        total = None
        for exps, coeff in self.terms.items():
            term = monomial_value(powers, exps, one) * coeff
            total = term if total is None else total + term
        if total is None:
            return one * Fraction(0)
        return total

    def __str__(self):
        return format_poly(self)

    def __repr__(self):
        return f"<PolyCoeff {format_poly(self)}>"


_set_nvars = PolyCoeff.nvars.__set__
_set_terms = PolyCoeff.terms.__set__
_set_key = PolyCoeff._key.__set__
_set_ints = PolyCoeff._ints.__set__


def _trusted(nvars: int, terms: dict[tuple[int, ...], Fraction]) -> PolyCoeff:
    """A polynomial from canonical terms (nonzero ``Fraction`` values, valid exponent tuples)."""
    p = object.__new__(PolyCoeff)
    _set_nvars(p, nvars)
    _set_terms(p, terms)
    _set_key(p, None)
    _set_ints(p, None)
    return p


def poly_dot(nvars: int, pairs) -> PolyCoeff:
    """``sum(a * b for a, b in pairs)`` over one integer accumulator.

    Each ``a`` is a polynomial in ``nvars`` variables; each ``b`` is one or a
    rational scalar.  The products share one denominator and one field width.
    """
    ops = []
    for a, b in pairs:
        if not isinstance(b, PolyCoeff):
            b = _trusted(nvars, {(0,) * nvars: Fraction(b)} if b else {})
        if a.terms and b.terms:
            ops.append((a, b))
    if not ops:
        return _trusted(nvars, {})
    if len(ops) == 1:
        at, bt = ops[0][0].terms, ops[0][1].terms
        if len(at) == 1 or len(bt) == 1:
            # one term on one side: the output monomials are distinct, so
            # each coefficient is a single product of the inputs' Fractions
            return _trusted(
                nvars, {tuple(map(add, ea, eb)): ca * cb for ea, ca in at.items() for eb, cb in bt.items()}
            )
    width = FIELD_BITS
    packed = [(_packed(a, width), _packed(b, width)) for a, b in ops]
    # no exponent of a product may reach 2**width, or packed keys would carry
    top = max(ta + tb for (ta, _, _), (tb, _, _) in packed)
    if top >> width:
        width = top.bit_length()
        packed = [(_packed(a, width), _packed(b, width)) for a, b in ops]
    den = lcm(*[da * db for (_, da, _), (_, db, _) in packed])
    acc: dict[int, int] = {}
    get = acc.get
    for (_, da, na), (_, db, nb) in packed:
        scale = den // (da * db)
        right = nb.items()
        for ka, x in na.items():
            x *= scale
            for kb, y in right:
                k = ka + kb
                acc[k] = get(k, 0) + x * y
    shifts = range(0, width * nvars, width)
    field = (1 << width) - 1
    return _trusted(
        nvars,
        {tuple([k >> s & field for s in shifts]): Fraction(v, den) for k, v in acc.items() if v},
    )


def _packed(p: PolyCoeff, width: int) -> tuple[int, int, dict[int, int]]:
    """``(top, den, {key: numerator})``: the largest exponent of ``p`` and its
    terms over one common denominator, keyed by exponents packed into fields
    of ``width`` bits.  Cached on ``p`` for the last width asked for."""
    cached = p._ints
    if cached is None or cached[0] != width:
        terms = p.terms
        den = lcm(*[c.denominator for c in terms.values()])
        shifts = range(0, width * p.nvars, width)
        keys = {
            sum(map(lshift, exps, shifts)): c.numerator * (den // c.denominator)
            for exps, c in terms.items()
        }
        top = max(map(max, terms)) if p.nvars else 0
        cached = (width, top, den, keys)
        _set_ints(p, cached)
    return cached[1:]


def power_tables(values: Sequence, monomials, one) -> list[dict[int, object]]:
    """``tables[a][e] == values[a] ** e`` for every exponent ``e`` of variable
    ``a`` among the monomials; each power comes from the next lower one."""
    tables = []
    for a, v in enumerate(values):
        table = {0: one}
        prev = 0
        for e in sorted({exps[a] for exps in monomials} - {0}):
            step = v if e - prev == 1 else v ** (e - prev)
            table[e] = step if not prev else table[prev] * step
            prev = e
        tables.append(table)
    return tables


def monomial_value(tables: list[dict[int, object]], exps: tuple[int, ...], one):
    """The product of the tabled powers ``values[a] ** exps[a]``."""
    term = None
    for table, e in zip(tables, exps):
        if e:
            term = table[e] if term is None else term * table[e]
    return one if term is None else term


def format_poly(p: PolyCoeff) -> str:
    """Canonical text: terms sorted by exponent tuple, variables ascending."""
    if not p.terms:
        return "0"
    parts = []
    for exps in sorted(p.terms):
        coeff = p.terms[exps]
        factors = []
        for i, e in enumerate(exps, start=1):
            if e == 1:
                factors.append(f"x{i}")
            elif e > 1:
                factors.append(f"x{i}^{e}")
        if not factors:
            text = str(coeff)
        else:
            gens = "*".join(factors)
            if coeff == 1:
                text = gens
            elif coeff == -1:
                text = f"-{gens}"
            else:
                text = f"{coeff}*{gens}"
        if not parts:
            parts.append(text)
        elif text.startswith("-"):
            parts.append(f" - {text[1:]}")
        else:
            parts.append(f" + {text}")
    return "".join(parts)
