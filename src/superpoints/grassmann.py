"""Exact arithmetic in finitely generated Grassmann algebras over the rationals.

The algebra on ``n`` anticommuting generators ``t1..tn`` (so ``ti*tj == -tj*ti``
and ``ti*ti == 0``) is modelled sparsely: an element is a map from monomials to
nonzero rational coefficients, where a monomial is the strictly increasing
index set of its generators stored as a bitmask (bit ``i-1`` set means ``ti``
is present).

Sign convention, fixed bit-exactly for reproducibility:
merging two disjoint ascending monomials A and B costs one transposition per
inversion, i.e. per pair ``i in A, j in B`` with ``i > j``; the product sign is
``(-1) ** inversions``.  Overlapping monomials multiply to zero.

The product kernel works on integers.  Each operand is brought to one common
denominator with integer numerators, products of numerators are summed per
output monomial, and one ``Fraction`` per output term is built at the end, so
the canonical form is the same as with ``Fraction`` arithmetic throughout.
The sign of a pair is ``(-1) ** (mb & sign_mask(ma)).bit_count()``, where
``sign_mask(ma)`` holds the bits lying below an odd number of the generators
of ``ma``.  When the right operand has more terms than there are monomials
disjoint from ``ma``, the kernel walks the submasks of the complement of
``ma`` instead of scanning every pair, so a dense product visits ``3**n``
pairs rather than ``4**n``.  Sums of products (matrix entries), powers (a
binomial series in the nilpotent part, at most ``n`` products) and inverses
(``_peel_inverse``: one recursion on the last generator for elements and
supermatrices, two fused products per generator) share the kernel, and so
does the one substitution walk ``_sum_of_products``: a
polynomial with rational coefficients, stored as a trie of prefix products,
evaluated at Grassmann elements.  Base change of any number of elements
under one morphism, the lift of a multilinear map and the evaluation of a
skeleton or a superfunction at a point each run one such walk.  So does the
composition of skeletons, at superfunctions on ``p|q``, whose term
``c * x**e * t_I`` is the packed key ``I + sum_a e_a << (q + W*a)``: the sign
and the disjointness test read the odd mask ``I`` in the low ``q`` bits, and
the key of a product is the sum of the keys.

Validation follows the policy of ``_value``: the public constructors
``GrassmannElement(n, terms)`` and ``GrassmannMorphism(src_n, dst_m, images)``
check their input, and the results of arithmetic, base change and
composition are built with ``_make`` without a second check.

The canonical sparse form is shared: a Grassmann element, a ``PolyCoeff``
(exponent tuple -> rational) and a ``Superfunction`` (odd bitmask ->
``PolyCoeff``) each map monomial keys to nonzero exact coefficients.  Their
base ``_SparseForm`` holds structural ``==`` with a hash key built on first
use, ``bool``, the additive group with rationals embedded as
constants, scaling, square-and-multiply ``**`` that stops at a zero square,
and the text through ``format_terms``; ``sum_terms`` adds many at once.  A
subclass supplies its validating constructor, ``_dims`` (the dimensions
operands must share), ``_new`` (``_make`` with its own dimensions), ``_embed`` (a
constant), ``_monomial`` (the text of one key) and ``__mul__``: ``gr_mul``
here, ``poly_dot`` in ``poly``, ``_gd_mul`` in ``skeleton``.  ``_gd_mul``, the
product of two superfunctions, collects pairs for ``poly_dot``.
"""

from __future__ import annotations

import re
from enum import Enum
from fractions import Fraction
from math import comb, lcm
from operator import attrgetter
from typing import Callable, Iterable, Mapping, Sequence

from ._value import Value
from .errors import DimensionError, NotInvertibleError, ParityError

#: Monomials are bitmasks; 64 generators is far beyond desk scale already.
MAX_GENERATORS = 64

#: The grammar of a coefficient string: an integer ``p`` or a fraction ``p/q``.
RATIONAL_RE = re.compile(r"-?\d+(/\d+)?")


class Parity(Enum):
    EVEN = "even"
    ODD = "odd"
    INDEFINITE = "indefinite"
    ZERO = "zero"


def check_generator_count(n) -> None:
    if not isinstance(n, int) or n < 0 or n > MAX_GENERATORS:
        raise DimensionError(f"generator count must be in 0..{MAX_GENERATORS}, got {n}")


def monomial_sign(a: int, b: int) -> int:
    """Sign of sorting the concatenation of disjoint ascending monomials a, b.

    Counts inversions: each pair ``i in a, j in b`` with ``i > j`` contributes
    one transposition.  The caller guarantees ``a & b == 0``.
    """
    swaps = 0
    rest = b
    while rest:
        low = rest & -rest
        swaps += (a >> low.bit_length()).bit_count()
        rest ^= low
    return -1 if swaps & 1 else 1


def parse_rational(text: str) -> Fraction:
    """A coefficient string in the grammar ``RATIONAL_RE`` as a ``Fraction``."""
    if not RATIONAL_RE.fullmatch(text):
        raise ValueError(f"expected a rational string 'p' or 'p/q', got {text!r}")
    _, _, den = text.partition("/")
    if den and not int(den):
        raise ValueError(f"zero denominator in {text!r}")
    return Fraction(text)


def as_fraction(value) -> Fraction:
    """A coefficient as a ``Fraction``; strings must match ``RATIONAL_RE``."""
    if isinstance(value, str):
        return parse_rational(value)
    return Fraction(value)


def mask_of_indices(indices: Iterable[int]) -> int:
    mask = 0
    for i in indices:
        bit = 1 << (i - 1)
        if i < 1 or mask & bit:
            raise ValueError(f"monomial indices must be distinct and >= 1, got {indices!r}")
        mask |= bit
    return mask


def indices_of_mask(mask: int) -> tuple[int, ...]:
    return tuple([i + 1 for i in _path(mask)])


def _path(mask: int) -> list[int]:
    """The 0-based positions of the generators of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class _SparseForm(Value):
    """An immutable map from monomial keys to nonzero exact coefficients.

    Besides the hooks named in the module docstring, a subclass sets
    ``_dims_name`` (for error messages) and ``_scalars`` (what scales it).
    """

    __slots__ = ("terms", "_key")

    def _check_dims(self, other: "_SparseForm"):
        if self._dims != other._dims:
            raise DimensionError(f"mismatched {self._dims_name}: {self._dims} vs {other._dims}")

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other):
        return type(other) is type(self) and self._dims == other._dims and self.terms == other.terms

    def __hash__(self):
        if self._key is None:
            self._cache("_key", (self._dims, tuple(sorted(self.terms.items()))))
        return hash(self._key)

    # -- the additive group and scaling ------------------------------------------

    def _add(self, other: "_SparseForm") -> "_SparseForm":
        self._check_dims(other)
        terms = dict(self.terms)
        for key, coeff in other.terms.items():
            acc = terms.get(key, 0) + coeff
            if acc:
                terms[key] = acc
            else:
                terms.pop(key, None)
        return self._new(terms)

    def _scale(self, r) -> "_SparseForm":
        """``r * self`` for a rational ``r`` or a coefficient-ring element ``r``."""
        if not isinstance(r, _SparseForm):
            r = Fraction(r)
        if not r:
            return self._new({})
        return self._new({key: r * coeff for key, coeff in self.terms.items()})

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self._embed(other)
        elif type(other) is not type(self):
            return NotImplemented
        return self._add(other)

    __radd__ = __add__

    def __neg__(self):
        return self._new({key: -coeff for key, coeff in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self._embed(other)
        elif type(other) is not type(self):
            return NotImplemented
        return self._add(-other)

    def __rsub__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._embed(other)._add(-self)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, self._scalars):
            return self._scale(other)
        return NotImplemented

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a non-negative integer")
        return self._power(exponent)

    def _power(self, exponent: int) -> "_SparseForm":
        """Square and multiply, stopping at a square that vanishes."""
        result = self._embed(1)
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            exponent >>= 1
            if exponent:
                base = base * base
                if not base:
                    return self._new({})
        return result

    def __str__(self):
        return format_terms(self.terms, self._monomial)


def sum_terms(values: Sequence[_SparseForm]) -> _SparseForm:
    """The sum of one or more values of one class and shape.

    The coefficients that meet at one key are summed at once, and
    coefficients that are themselves sparse forms are summed the same way,
    so the work is linear in the number of terms.
    """
    first = values[0]
    groups: dict = {}
    for v in values:
        first._check_dims(v)
        for key, coeff in v.terms.items():
            groups.setdefault(key, []).append(coeff)
    terms = {}
    for key, coeffs in groups.items():
        if len(coeffs) == 1:
            terms[key] = coeffs[0]
            continue
        total = sum_terms(coeffs) if isinstance(coeffs[0], _SparseForm) else sum(coeffs)
        if total:
            terms[key] = total
    return first._new(terms)


def format_terms(terms: Mapping, monomial: Callable[[object], str]) -> str:
    """Canonical text of ``{key: coeff}``: terms in increasing key order, joined with signs.

    ``monomial(key)`` is the text of a key, empty for the constant monomial.
    A coefficient with several terms is parenthesised, and a unit
    coefficient is dropped before a nonempty monomial.
    """
    if not terms:
        return "0"
    parts = []
    for key in sorted(terms):
        coeff = terms[key]
        text = str(coeff)
        if isinstance(coeff, _SparseForm) and len(coeff.terms) > 1:
            text = f"({text})"
        gens = monomial(key)
        if gens:
            if text == "1":
                text = gens
            elif text == "-1":
                text = f"-{gens}"
            else:
                text = f"{text}*{gens}"
        if not parts:
            parts.append(text)
        elif text.startswith("-"):
            parts.append(f" - {text[1:]}")
        else:
            parts.append(f" + {text}")
    return "".join(parts)


def _odd_monomial(mask: int) -> str:
    """``t1*t3`` for the bitmask ``0b101``, empty for ``0``."""
    return "*".join([f"t{i}" for i in indices_of_mask(mask)])


class GrassmannElement(_SparseForm):
    """An element of the Grassmann algebra on ``n`` generators, in canonical form,
    with only ``Fraction`` coefficients."""

    __slots__ = ("n",)

    _dims = property(attrgetter("n"))
    _dims_name = "generator counts"
    _scalars = (int, Fraction)
    _monomial = staticmethod(_odd_monomial)

    def __init__(self, n: int, terms: Mapping[int, Fraction | int | str]):
        check_generator_count(n)
        clean: dict[int, Fraction] = {}
        for mask, coeff in terms.items():
            c = coeff if type(coeff) is Fraction else as_fraction(coeff)
            if not c:
                continue
            if mask < 0 or mask >> n:
                raise DimensionError(f"monomial {indices_of_mask(mask)} outside generators 1..{n}")
            clean[mask] = c
        self._fill(n, clean)

    def _new(self, terms):
        return GrassmannElement._make(self.n, terms)

    def _embed(self, value):
        return GrassmannElement.scalar(self.n, value)

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "GrassmannElement":
        return cls(n, {})

    @classmethod
    def scalar(cls, n: int, value) -> "GrassmannElement":
        return cls(n, {0: value})

    @classmethod
    def one(cls, n: int) -> "GrassmannElement":
        return cls(n, {0: 1})

    @classmethod
    def theta(cls, n: int, i: int) -> "GrassmannElement":
        """The generator ``t_i``, 1-based."""
        if not 1 <= i <= n:
            raise DimensionError(f"generator index {i} outside 1..{n}")
        check_generator_count(n)
        return cls._make(n, {1 << (i - 1): Fraction(1)})

    @classmethod
    def monomial(cls, n: int, indices: Iterable[int], coeff=1) -> "GrassmannElement":
        return cls(n, {mask_of_indices(indices): coeff})

    # -- structure and arithmetic ---------------------------------------------

    def coefficient(self, indices: Iterable[int]) -> Fraction:
        return self.terms.get(mask_of_indices(indices), Fraction(0))

    def __mul__(self, other):
        if isinstance(other, GrassmannElement):
            return gr_mul(self, other)
        return self.__rmul__(other)

    def _power(self, exponent: int):
        """Binomial series ``sum_j C(k, j) b**(k-j) N**j`` in the nilpotent part ``N``;
        ``N**j`` vanishes for ``j > n``, so at most ``n`` products are taken."""
        b = body(self)
        return _nil_series(
            self, [comb(exponent, j) * b ** (exponent - j) for j in range(min(exponent, self.n) + 1)]
        )

    def __repr__(self):
        return f"<GrassmannElement n={self.n} {self}>"


# -- the integer product kernel ---------------------------------------------------


def _sign_mask(ma: int) -> int:
    """Bits below an odd number of the generators of ``ma``: the sign of merging
    ``ma`` with a disjoint ``mb`` is ``(-1) ** (mb & _sign_mask(ma)).bit_count()``."""
    mask = 0
    while ma:
        low = ma & -ma
        mask ^= low - 1
        ma ^= low
    return mask


def _numerators(term_maps: list[Mapping[int, Fraction]]) -> tuple[int, list[dict[int, int]]]:
    """The maps over one common denominator: ``(den, [{mask: numerator}, ...])``."""
    den = lcm(*[c.denominator for terms in term_maps for c in terms.values()])
    if den == 1:
        return 1, [{m: c.numerator for m, c in terms.items()} for terms in term_maps]
    return den, [
        {m: c.numerator * (den // c.denominator) for m, c in terms.items()} for terms in term_maps
    ]


def _mul_into(acc: dict[int, int], left: dict[int, int], right: dict[int, int], n: int, bare: bool = True) -> None:
    """Add the product of the numerator maps ``left * right`` into ``acc``.

    Unless ``bare``, keys hold exponent fields above the odd mask in their low
    ``n`` bits: the sign reads only the mask, the keys of a product add, and
    the submask walk, which looks up bare masks, is not taken."""
    get = acc.get
    full = (1 << n) - 1
    dense_at = n - (len(right) - 1).bit_length() if bare else n
    pairs = right.items()
    lookup = right.get
    for ka, x in left.items():
        ma = ka & full
        sm = _sign_mask(ma)
        neg = -x
        if ma.bit_count() > dense_at:
            free = s = full ^ ma
            while True:
                y = lookup(s)
                if y is not None:
                    m = ka + s
                    acc[m] = get(m, 0) + (neg * y if (s & sm).bit_count() & 1 else x * y)
                if not s:
                    break
                s = (s - 1) & free
        else:
            for kb, y in pairs:
                if not ma & kb:
                    m = ka + kb
                    acc[m] = get(m, 0) + (neg * y if (kb & sm).bit_count() & 1 else x * y)


def _element(n: int, acc: dict[int, int], den: int) -> GrassmannElement:
    """The element ``acc / den``: one ``Fraction`` per nonzero numerator."""
    return GrassmannElement._make(n, {m: Fraction(v, den) for m, v in acc.items() if v})


def _product_trie(entries: Iterable[tuple[Sequence[int], int, Fraction]]) -> tuple[int, int, tuple]:
    """The sum of products ``coeff * f[k_1] * ... * f[k_j]`` into output ``out``,
    for the entries ``(path, out, coeff)`` with ``path == (k_1, ..., k_j)``, as a
    trie ``(den, depth, root)`` for ``_sum_of_products``.

    A node is ``(leaves, children)``: ``leaves`` maps an output to the summed
    numerators, over ``den``, of the coefficients of the paths that end at the
    node, and ``children`` maps the next factor key to a node, so paths with a
    common prefix share its nodes.  ``depth`` is the longest path.
    """
    entries = list(entries)
    den = lcm(*[c.denominator for _, _, c in entries])
    root: tuple[dict, dict] = ({}, {})
    depth = 0
    for path, out, coeff in entries:
        node = root
        for key in path:
            children = node[1]
            node = children.get(key) or children.setdefault(key, ({}, {}))
        num = coeff.numerator
        if den != 1:
            num *= den // coeff.denominator
        leaves = node[0]
        leaves[out] = leaves.get(out, 0) + num
        if len(path) > depth:
            depth = len(path)
    return den, depth, root


def _sum_of_products(
    n: int, trie: tuple[int, int, tuple], factors: Sequence[dict[int, int]], fden: int, dim: int, bare: bool = True
) -> tuple[list[dict[int, int]], int]:
    """The sums of the trie of ``_product_trie`` at the factors ``f[k]``, one
    numerator map per output ``0..dim-1``, and their common denominator.

    This is the one substitution kernel: the lift of a multilinear map, base
    change (``_substitute``), ``skeleton.skeleton_eval`` and
    ``skeleton.superfunction_eval`` each evaluate a polynomial with rational
    coefficients at Grassmann elements through it, and
    ``skeleton.skeleton_compose`` at superfunctions on packed keys (``bare``).
    ``factors[k]`` holds the numerators of ``f[k]`` over the denominator
    ``fden`` shared by all factors.  The walk multiplies each node's prefix
    product by one factor and stops a branch at the first zero, so a zero
    factor prunes every path through it.  A path shorter than the trie's depth
    is padded with powers of ``fden``, so all sums share one denominator and
    each output term becomes one ``Fraction`` at the end.  The walk keeps an
    explicit stack: a recursive closure would form a reference cycle that only
    the cyclic garbage collector frees.
    """
    den, depth, root = trie
    pads = [fden ** (depth - level) for level in range(depth + 1)]
    accs: list[dict[int, int]] = [{} for _ in range(dim)]
    stack = [(root, {0: 1}, 0)]
    while stack:
        (leaves, children), prod, level = stack.pop()
        pad = pads[level]
        for out, c in leaves.items():
            acc = accs[out]
            get = acc.get
            scale = c * pad
            for m, v in prod.items():
                acc[m] = get(m, 0) + scale * v
        level += 1
        for key, child in children.items():
            right = factors[key]
            if right:
                nxt: dict[int, int] = {}
                _mul_into(nxt, prod, right, n, bare)
                if len(prod) > 1 and len(right) > 1:
                    nxt = {m: v for m, v in nxt.items() if v}
                if nxt:
                    stack.append((child, nxt, level))
    return accs, den * fden**depth


def _elements(n: int, sums: tuple[list[dict[int, int]], int]) -> list[GrassmannElement]:
    """The elements of the sums ``(accs, den)`` of ``_sum_of_products``."""
    return [_element(n, acc, sums[1]) for acc in sums[0]]


def _numerator_products(
    n: int, rows: Sequence[Sequence[dict[int, int]]], cols: Sequence[Sequence[dict[int, int]]]
) -> list[list[dict[int, int]]]:
    """The numerator maps of ``sum_k row[k] * col[k]`` for every row and column."""
    out = []
    for row in rows:
        out_row = []
        for col in cols:
            acc: dict[int, int] = {}
            for x, y in zip(row, col):
                if x and y:
                    _mul_into(acc, x, y, n)
            out_row.append(acc)
        out.append(out_row)
    return out


def _matrix_product(
    n: int, rows: Iterable[Iterable[GrassmannElement]], cols: Iterable[Iterable[GrassmannElement]]
) -> list[list[GrassmannElement]]:
    """The sums of products ``sum_k row[k] * col[k]`` for every row and column.

    Each row and each column is brought to one denominator once, so the
    products of an entry share the denominator ``row_den * col_den`` and the
    entry is canonicalised once instead of once per product.
    """
    left = [_numerators([e.terms for e in row]) for row in rows]
    right = [_numerators([e.terms for e in col]) for col in cols]
    sums = _numerator_products(n, [row for _, row in left], [col for _, col in right])
    return [
        [_element(n, acc, row_den * col_den) for acc, (col_den, _) in zip(accs, right)]
        for accs, (row_den, _) in zip(sums, left)
    ]


def _nil_series(a: GrassmannElement, weights: list[Fraction]) -> GrassmannElement:
    """``sum_j weights[j] * N**j`` for the nilpotent part ``N`` of ``a``.

    The powers stop at the first that vanishes, which is at ``N**(n+1)`` at
    the latest, so at most ``n`` products are taken.
    """
    n = a.n
    den, (nil,) = _numerators([{m: c for m, c in a.terms.items() if m}])
    power: dict[int, int] = {0: 1}  # numerators of N**j over den**j
    parts = []
    for j, w in enumerate(weights):
        if j:
            acc: dict[int, int] = {}
            _mul_into(acc, power, nil, n)
            power = {m: v for m, v in acc.items() if v}
            if not power:
                break
        if w:
            parts.append((w, power, den**j))
    total_den = lcm(*[w.denominator * d for w, _, d in parts])
    total: dict[int, int] = {}
    get = total.get
    for w, p, d in parts:
        scale = w.numerator * (total_den // (w.denominator * d))
        for m, v in p.items():
            total[m] = get(m, 0) + scale * v
    return _element(n, total, total_den)


def _peel_inverse(
    n: int, body_inv: Sequence[Sequence[Fraction]], rows: Sequence[Sequence[GrassmannElement]]
) -> list[list[GrassmannElement]]:
    """The inverse of the ``d x d`` matrix ``rows`` over ``n`` generators whose
    body has the rational inverse ``body_inv``, by recursion on the last generator.

    At level ``k`` the matrix over the generators ``t1..tk`` is
    ``M = M0 + M1*t_k`` with ``M0`` and ``M1`` free of ``t_k``, and
    ``B = M0^-1`` is the inverse found at level ``k-1``.  Moving ``t_k`` past
    a monomial of degree ``j`` costs ``(-1)**j``, so ``t_k*e == s(e)*t_k``
    where ``s`` negates the odd monomials of ``e``.  Hence
    ``(M0 + M1*t_k) * (B - Y*t_k) == 1 + (M1*s(B) - M0*Y)*t_k`` (the term in
    ``t_k*t_k`` vanishes), and ``M^-1 = B - (B*M1*s(B))*t_k``.  ``t_k`` is the
    highest generator at level ``k``, so ``m*t_k`` is the sorted monomial
    ``m | t_k`` with no sign: the new terms are those of ``-B*M1*s(B)`` with
    ``t_k`` set, and the terms of ``B`` stay.  A level whose ``M1`` is zero
    keeps ``B``.

    The two products of a level run on integer numerators over ``k-1``
    generators: ``P = B*M1`` stays integer, ``s(B)`` is read off the
    numerators of ``B``, and each new term is one ``Fraction`` over
    ``den(B)**2 * den(M1)``.  ``B`` is kept as ``Fraction``s from one level to
    the next, so its denominators stay reduced.
    """
    d = len(rows)
    inv = [[{0: c} if c else {} for c in row] for row in body_inv]
    # levels[k][i][j]: the coefficient of t_k in entry (i, j), over t1..t_{k-1}
    levels: dict[int, list[list[dict[int, Fraction]]]] = {}
    for i, row in enumerate(rows):
        for j, e in enumerate(row):
            for m, c in e.terms.items():
                if m:
                    k = m.bit_length()
                    grid = levels.get(k) or levels.setdefault(k, [[{} for _ in range(d)] for _ in range(d)])
                    grid[i][j][m ^ (1 << (k - 1))] = c
    for k in sorted(levels):
        top = 1 << (k - 1)
        den_b, flat = _numerators([e for row in inv for e in row])
        b = [flat[i : i + d] for i in range(0, d * d, d)]
        sb = [[{m: -v if m.bit_count() & 1 else v for m, v in e.items()} for e in row] for row in b]
        den_1, flat = _numerators([e for row in levels[k] for e in row])
        p = _numerator_products(k - 1, b, [flat[j :: d] for j in range(d)])
        p = [[{m: v for m, v in e.items() if v} for e in row] for row in p]
        q = _numerator_products(k - 1, p, list(zip(*sb)))
        den = den_b * den_b * den_1
        for q_row, inv_row in zip(q, inv):
            for acc, entry in zip(q_row, inv_row):
                for m, v in acc.items():
                    if v:
                        entry[m | top] = Fraction(-v, den)
    return [[GrassmannElement._make(n, e) for e in row] for row in inv]


# -- arithmetic -------------------------------------------------------------------


gr_add = GrassmannElement._add


def gr_scale(r, a: GrassmannElement) -> GrassmannElement:
    return a._scale(r)


def gr_mul(a: GrassmannElement, b: GrassmannElement) -> GrassmannElement:
    a._check_dims(b)
    at, bt = a.terms, b.terms
    if len(at) == 1 or len(bt) == 1:
        # one side has one term: the output monomials are distinct, so each
        # coefficient is a single product of the inputs' Fractions
        terms = {}
        for ma, ca in at.items():
            sm = _sign_mask(ma)
            neg = -ca
            for mb, cb in bt.items():
                if not ma & mb:
                    terms[ma | mb] = neg * cb if (mb & sm).bit_count() & 1 else ca * cb
        return GrassmannElement._make(a.n, terms)
    da, (na,) = _numerators([at])
    db, (nb,) = _numerators([bt])
    acc: dict[int, int] = {}
    _mul_into(acc, na, nb, a.n)
    return _element(a.n, acc, da * db)


def parity_of(a: GrassmannElement) -> Parity:
    if not a.terms:
        return Parity.ZERO
    degrees = {mask.bit_count() & 1 for mask in a.terms}
    if degrees == {0}:
        return Parity.EVEN
    if degrees == {1}:
        return Parity.ODD
    return Parity.INDEFINITE


def body(a: GrassmannElement) -> Fraction:
    """Coefficient of the empty monomial: the image under the morphism to the field."""
    return a.terms.get(0, Fraction(0))


def nil_part(a: GrassmannElement) -> GrassmannElement:
    return GrassmannElement._make(a.n, {m: c for m, c in a.terms.items() if m})


def even_part(a: GrassmannElement) -> GrassmannElement:
    return GrassmannElement._make(a.n, {m: c for m, c in a.terms.items() if not m.bit_count() & 1})


def odd_part(a: GrassmannElement) -> GrassmannElement:
    return GrassmannElement._make(a.n, {m: c for m, c in a.terms.items() if m.bit_count() & 1})


def gr_inv(a: GrassmannElement) -> GrassmannElement:
    """Inverse of an element with nonzero body, by recursion on the last generator.

    The recursion starts from ``1/body(a)``, the inverse over no generators.
    Over ``t1..tk`` write ``a = a0 + a1*t_k`` with ``a0`` and ``a1`` free of
    ``t_k``, and let ``b = 1/a0`` be known from the level below.  Then
    ``1/a = b - (b*a1*s(b))*t_k``, where ``s`` negates the odd terms
    (``t_k*e == s(e)*t_k``).  ``t_k`` is the highest generator at its level,
    so appending it to a monomial costs no sign, and each level only adds
    terms.  This is the ``1x1`` case of ``_peel_inverse``.  The derivation
    never uses parity, so an inhomogeneous element is inverted the same way.
    """
    b = body(a)
    if not b:
        raise NotInvertibleError("not invertible: zero body")
    return _peel_inverse(a.n, [[1 / b]], [[a]])[0][0]


# -- morphisms ---------------------------------------------------------------


class GrassmannMorphism(Value):
    """A parity-preserving unital algebra morphism between Grassmann algebras.

    Determined by the images of the source generators, which must be odd (or
    zero) elements of the target algebra; this is validated at construction.
    """

    __slots__ = ("src_n", "dst_m", "images", "_nums")

    _key = property(attrgetter("src_n", "dst_m", "images"))

    def __init__(self, src_n: int, dst_m: int, images: Iterable[GrassmannElement]):
        images = tuple(images)
        if len(images) != src_n:
            raise DimensionError(f"expected {src_n} generator images, got {len(images)}")
        for i, img in enumerate(images, start=1):
            if img.n != dst_m:
                raise DimensionError(f"image of t{i} lives over {img.n} generators, expected {dst_m}")
            if parity_of(img) not in (Parity.ODD, Parity.ZERO):
                raise ParityError(f"image of t{i} is not odd: {img}")
        check_generator_count(src_n)
        check_generator_count(dst_m)
        self._fill(src_n, dst_m, images)

    @classmethod
    def identity(cls, n: int) -> "GrassmannMorphism":
        return cls.inclusion(n, n)

    @classmethod
    def terminal(cls, n: int) -> "GrassmannMorphism":
        """The unique morphism onto the ground field: every generator maps to zero."""
        check_generator_count(n)
        return cls._make(n, 0, (GrassmannElement._make(0, {}),) * n)

    @classmethod
    def inclusion(cls, n: int, m: int) -> "GrassmannMorphism":
        """The inclusion sending ``t_i`` to ``t_i``; requires ``n <= m``."""
        if n > m:
            raise DimensionError(f"cannot include {n} generators into {m}")
        check_generator_count(n)
        check_generator_count(m)
        return cls._make(n, m, tuple(GrassmannElement.theta(m, i) for i in range(1, n + 1)))

    @classmethod
    def kill_generator(cls, n: int, l: int) -> "GrassmannMorphism":
        """The endomorphism sending ``t_l`` to zero and fixing the other generators."""
        check_generator_count(n)
        if not 1 <= l <= n:
            raise DimensionError(f"generator index {l} outside 1..{n}")
        zero = GrassmannElement._make(n, {})
        return cls._make(n, n, tuple(zero if i == l else GrassmannElement.theta(n, i) for i in range(1, n + 1)))

    def __call__(self, a: GrassmannElement) -> GrassmannElement:
        return morphism_apply(self, a)

    def __str__(self):
        if not self.src_n:
            return f"<unit inclusion into {self.dst_m} generators>"
        parts = [f"t{i} -> {img}" for i, img in enumerate(self.images, start=1)]
        return "; ".join(parts)

    def __repr__(self):
        return f"<GrassmannMorphism {self.src_n}->{self.dst_m}: {self}>"


def morphism_apply(phi: GrassmannMorphism, a: GrassmannElement) -> GrassmannElement:
    """Substitute the generator images into ``a``: the one-element case of ``_substitute``."""
    if a.n != phi.src_n:
        raise DimensionError(f"element over {a.n} generators, morphism expects {phi.src_n}")
    return _substitute(phi, (a,))[0]


def _element_trie(elements: Sequence[GrassmannElement]) -> tuple[int, int, tuple]:
    """The trie of ``_substitute`` for ``elements``: the path of a monomial is
    its generator indices in ascending order and the leaf is the element's
    position.  It does not depend on the morphism."""
    return _product_trie((_path(mask), out, c) for out, a in enumerate(elements) for mask, c in a.terms.items())


def _substitute(
    phi: GrassmannMorphism, elements: Sequence[GrassmannElement], trie: tuple[int, int, tuple] | None = None
) -> list[GrassmannElement]:
    """The images under ``phi`` of elements over ``phi.src_n``, in one walk.

    The elements form one trie for ``_sum_of_products`` (``_element_trie``;
    a caller that pushes the same elements along several morphisms passes it
    as ``trie``), and the factors are the numerators of the generator images
    over their one denominator, cached on ``phi``.  Monomials with the same
    lower generators share one prefix product, also across elements.
    """
    if not any(a.terms for a in elements):
        return [GrassmannElement._make(phi.dst_m, {})] * len(elements)
    nums = phi._nums
    if nums is None:
        nums = _numerators([img.terms for img in phi.images])
        phi._cache("_nums", nums)
    d, gens = nums
    if trie is None:
        trie = _element_trie(elements)
    return _elements(phi.dst_m, _sum_of_products(phi.dst_m, trie, gens, d, len(elements)))


def morphism_compose(psi: GrassmannMorphism, phi: GrassmannMorphism) -> GrassmannMorphism:
    """The composite ``psi after phi``."""
    if phi.dst_m != psi.src_n:
        raise DimensionError(f"cannot compose {psi.src_n}->{psi.dst_m} after {phi.src_n}->{phi.dst_m}")
    return GrassmannMorphism._make(phi.src_n, psi.dst_m, tuple(_substitute(psi, phi.images)))


# -- canonical text form ------------------------------------------------------


def format_element(a: GrassmannElement) -> str:
    """Canonical text: terms in increasing bitmask order, unit coefficients omitted."""
    return str(a)
