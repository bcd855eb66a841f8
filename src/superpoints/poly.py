"""Sparse multivariate polynomials with exact rational coefficients.

Used as the coefficient maps of skeletons: variables ``x1..xp`` range over the
even directions of a domain.  Exponent tuples are the monomial keys of the
canonical sparse form that ``grassmann._SparseForm`` shares.

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
distinct output monomials and takes a direct ``Fraction`` path.  Skeleton
evaluation raises values to powers through ``power_tables``, which keeps one
table of powers per variable instead of multiplying by a value once per unit
of exponent.

The public ``PolyCoeff(nvars, terms)`` checks its input; the results of
arithmetic are built with ``_make`` without a second check (the validation
policy of ``_value``).  The hash key of a polynomial is built on first use.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import add, attrgetter, lshift
from typing import Mapping, Sequence

from .grassmann import _SparseForm, as_fraction

#: Field width, in bits, of a packed exponent in products whose exponents
#: stay below ``2**FIELD_BITS``; wider exponents get wider fields.
FIELD_BITS = 16


class PolyCoeff(_SparseForm):
    __slots__ = ("nvars", "_ints")

    _dims = property(attrgetter("nvars"))
    _dims_name = "variable counts"
    _scalars = (int, Fraction)

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
        self._fill(nvars, clean)

    def _new(self, terms):
        return PolyCoeff._make(self.nvars, terms)

    def _embed(self, value):
        return PolyCoeff.const(self.nvars, value)

    @staticmethod
    def _monomial(exps: tuple[int, ...]) -> str:
        return "*".join([f"x{i}" if e == 1 else f"x{i}^{e}" for i, e in enumerate(exps, start=1) if e])

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
        return cls._make(nvars, {tuple(int(j == i) for j in range(1, nvars + 1)): Fraction(1)})

    def constant_value(self) -> Fraction:
        return self.terms.get((0,) * self.nvars, Fraction(0))

    def __mul__(self, other):
        if isinstance(other, PolyCoeff):
            self._check_dims(other)
            return poly_dot(self.nvars, [(self, other)])
        return self.__rmul__(other)

    def __repr__(self):
        return f"<PolyCoeff {self}>"


def poly_dot(nvars: int, pairs) -> PolyCoeff:
    """``sum(a * b for a, b in pairs)`` over one integer accumulator.

    Each ``a`` is a polynomial in ``nvars`` variables; each ``b`` is one or a
    rational scalar.  The products share one denominator and one field width.
    """
    ops = []
    for a, b in pairs:
        if not isinstance(b, PolyCoeff):
            b = PolyCoeff._make(nvars, {(0,) * nvars: Fraction(b)} if b else {})
        if a.terms and b.terms:
            ops.append((a, b))
    if not ops:
        return PolyCoeff._make(nvars, {})
    if len(ops) == 1:
        at, bt = ops[0][0].terms, ops[0][1].terms
        if len(at) == 1 or len(bt) == 1:
            # one term on one side: the output monomials are distinct, so
            # each coefficient is a single product of the inputs' Fractions
            return PolyCoeff._make(
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
    return PolyCoeff._make(
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
        p._cache("_ints", cached)
    return cached[1:]


def power_tables(values: Sequence, monomials) -> list[dict[int, object]]:
    """``tables[a][e] == values[a] ** e`` for every exponent ``e > 0`` of
    variable ``a`` among the monomials; each power comes from the next lower one."""
    tables = []
    for a, v in enumerate(values):
        table = {}
        prev = 0
        for e in sorted({exps[a] for exps in monomials} - {0}):
            step = v if e - prev == 1 else v ** (e - prev)
            table[e] = step if not prev else table[prev] * step
            prev = e
        tables.append(table)
    return tables


def format_poly(p: PolyCoeff) -> str:
    """Canonical text: terms sorted by exponent tuple, variables ascending."""
    return str(p)
