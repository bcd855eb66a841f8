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
pairs rather than ``4**n``.  Sums of products (matrix entries), base change
(one product per source monomial, through a per-call table of monomial
images) and powers and inverses (a series in the nilpotent part, at most
``n`` products) share the kernel.

Results of internal arithmetic go through a trusted constructor that skips
the coercion and range checks of the public ``GrassmannElement(n, terms)``.
The hash key of an element is built on first use.
"""

from __future__ import annotations

import re
from enum import Enum
from fractions import Fraction
from math import comb, lcm
from typing import Iterable, Mapping

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
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


class GrassmannElement:
    """An element of the Grassmann algebra on ``n`` generators, in canonical form.

    Immutable; all operations return new elements.  Canonical form stores no
    zero coefficients and only ``Fraction`` values, so equality is structural.
    """

    __slots__ = ("n", "terms", "_key")

    def __init__(self, n: int, terms: Mapping[int, Fraction | int | str]):
        if not isinstance(n, int) or n < 0 or n > MAX_GENERATORS:
            raise DimensionError(f"generator count must be in 0..{MAX_GENERATORS}, got {n}")
        clean: dict[int, Fraction] = {}
        for mask, coeff in terms.items():
            c = coeff if type(coeff) is Fraction else as_fraction(coeff)
            if not c:
                continue
            if mask < 0 or mask >> n:
                raise DimensionError(f"monomial {indices_of_mask(mask)} outside generators 1..{n}")
            clean[mask] = c
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_key", None)

    def __setattr__(self, name, value):
        raise AttributeError("GrassmannElement is immutable")

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
        return cls(n, {1 << (i - 1): 1})

    @classmethod
    def monomial(cls, n: int, indices: Iterable[int], coeff=1) -> "GrassmannElement":
        return cls(n, {mask_of_indices(indices): coeff})

    # -- structure ----------------------------------------------------------

    def coefficient(self, indices: Iterable[int]) -> Fraction:
        return self.terms.get(mask_of_indices(indices), Fraction(0))

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, GrassmannElement) and self.n == other.n and self.terms == other.terms

    def __hash__(self):
        if self._key is None:
            object.__setattr__(self, "_key", (self.n, tuple(sorted(self.terms.items()))))
        return hash(self._key)

    # -- arithmetic sugar ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, GrassmannElement):
            return gr_add(self, other)
        if isinstance(other, (int, Fraction)):
            return gr_add(self, GrassmannElement.scalar(self.n, other))
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return gr_scale(-1, self)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = GrassmannElement.scalar(self.n, other)
        if isinstance(other, GrassmannElement):
            return gr_add(self, gr_scale(-1, other))
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (int, Fraction)):
            return gr_add(GrassmannElement.scalar(self.n, other), gr_scale(-1, self))
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, GrassmannElement):
            return gr_mul(self, other)
        if isinstance(other, (int, Fraction)):
            return gr_scale(other, self)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return gr_scale(other, self)
        return NotImplemented

    def __pow__(self, exponent: int):
        """Binomial series ``sum_j C(k, j) b**(k-j) N**j`` in the nilpotent part ``N``;
        ``N**j`` vanishes for ``j > n``, so at most ``n`` products are taken."""
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a non-negative integer")
        b = body(self)
        return _nil_series(
            self, [comb(exponent, j) * b ** (exponent - j) for j in range(min(exponent, self.n) + 1)]
        )

    def __str__(self):
        return format_element(self)

    def __repr__(self):
        return f"<GrassmannElement n={self.n} {format_element(self)}>"


def _check_same_n(a: GrassmannElement, b: GrassmannElement):
    if a.n != b.n:
        raise DimensionError(f"mismatched generator counts: {a.n} vs {b.n}")


_set_n = GrassmannElement.n.__set__
_set_terms = GrassmannElement.terms.__set__
_set_key = GrassmannElement._key.__set__


def _trusted(n: int, terms: dict[int, Fraction]) -> GrassmannElement:
    """An element from canonical terms (nonzero ``Fraction`` values, masks in range)."""
    e = object.__new__(GrassmannElement)
    _set_n(e, n)
    _set_terms(e, terms)
    _set_key(e, None)
    return e


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


def _mul_into(acc: dict[int, int], left: dict[int, int], right: dict[int, int], n: int) -> None:
    """Add the product of the numerator maps ``left * right`` into ``acc``."""
    get = acc.get
    full = (1 << n) - 1
    size = len(right)
    pairs = right.items()
    lookup = right.get
    for ma, x in left.items():
        sm = _sign_mask(ma)
        neg = -x
        free = full ^ ma
        if size > 1 << free.bit_count():
            s = free
            while True:
                y = lookup(s)
                if y is not None:
                    m = ma | s
                    acc[m] = get(m, 0) + (neg * y if (s & sm).bit_count() & 1 else x * y)
                if not s:
                    break
                s = (s - 1) & free
        else:
            for mb, y in pairs:
                if not ma & mb:
                    m = ma | mb
                    acc[m] = get(m, 0) + (neg * y if (mb & sm).bit_count() & 1 else x * y)


def _element(n: int, acc: dict[int, int], den: int) -> GrassmannElement:
    """The element ``acc / den``: one ``Fraction`` per nonzero numerator."""
    return _trusted(n, {m: Fraction(v, den) for m, v in acc.items() if v})


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
    out = []
    for row_den, row in left:
        out_row = []
        for col_den, col in right:
            acc: dict[int, int] = {}
            for x, y in zip(row, col):
                if x and y:
                    _mul_into(acc, x, y, n)
            out_row.append(_element(n, acc, row_den * col_den))
        out.append(out_row)
    return out


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


# -- arithmetic -------------------------------------------------------------------


def gr_add(a: GrassmannElement, b: GrassmannElement) -> GrassmannElement:
    _check_same_n(a, b)
    terms = dict(a.terms)
    for mask, coeff in b.terms.items():
        acc = terms.get(mask, 0) + coeff
        if acc:
            terms[mask] = acc
        else:
            terms.pop(mask, None)
    return _trusted(a.n, terms)


def gr_scale(r, a: GrassmannElement) -> GrassmannElement:
    r = Fraction(r)
    if not r:
        return GrassmannElement.zero(a.n)
    return _trusted(a.n, {mask: r * coeff for mask, coeff in a.terms.items()})


def gr_mul(a: GrassmannElement, b: GrassmannElement) -> GrassmannElement:
    _check_same_n(a, b)
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
        return _trusted(a.n, terms)
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
    return _trusted(a.n, {m: c for m, c in a.terms.items() if m})


def even_part(a: GrassmannElement) -> GrassmannElement:
    return _trusted(a.n, {m: c for m, c in a.terms.items() if not m.bit_count() & 1})


def odd_part(a: GrassmannElement) -> GrassmannElement:
    return _trusted(a.n, {m: c for m, c in a.terms.items() if m.bit_count() & 1})


def gr_inv(a: GrassmannElement) -> GrassmannElement:
    """Inverse of an element with nonzero body.

    With ``b = body(a)`` and ``c = nil_part(a)`` the inverse is the finite sum
    ``sum_{k=0..n} (-1)^k c^k / b^(k+1)``; the series is exact because the
    nilpotent part to the ``n+1``-st power vanishes.
    """
    b = body(a)
    if not b:
        raise NotInvertibleError("not invertible: zero body")
    return _nil_series(a, [(-1) ** k / b ** (k + 1) for k in range(a.n + 1)])


# -- morphisms ---------------------------------------------------------------


class GrassmannMorphism:
    """A parity-preserving unital algebra morphism between Grassmann algebras.

    Determined by the images of the source generators, which must be odd (or
    zero) elements of the target algebra; this is validated at construction.
    """

    __slots__ = ("src_n", "dst_m", "images", "_key")

    def __init__(self, src_n: int, dst_m: int, images: Iterable[GrassmannElement]):
        images = tuple(images)
        if len(images) != src_n:
            raise DimensionError(f"expected {src_n} generator images, got {len(images)}")
        for i, img in enumerate(images, start=1):
            if img.n != dst_m:
                raise DimensionError(f"image of t{i} lives over {img.n} generators, expected {dst_m}")
            if parity_of(img) not in (Parity.ODD, Parity.ZERO):
                raise ParityError(f"image of t{i} is not odd: {img}")
        object.__setattr__(self, "src_n", src_n)
        object.__setattr__(self, "dst_m", dst_m)
        object.__setattr__(self, "images", images)
        object.__setattr__(self, "_key", (src_n, dst_m, images))

    def __setattr__(self, name, value):
        raise AttributeError("GrassmannMorphism is immutable")

    @classmethod
    def identity(cls, n: int) -> "GrassmannMorphism":
        return cls(n, n, [GrassmannElement.theta(n, i) for i in range(1, n + 1)])

    @classmethod
    def terminal(cls, n: int) -> "GrassmannMorphism":
        """The unique morphism onto the ground field: every generator maps to zero."""
        return cls(n, 0, [GrassmannElement.zero(0)] * n)

    @classmethod
    def inclusion(cls, n: int, m: int) -> "GrassmannMorphism":
        """The inclusion sending ``t_i`` to ``t_i``; requires ``n <= m``."""
        if n > m:
            raise DimensionError(f"cannot include {n} generators into {m}")
        return cls(n, m, [GrassmannElement.theta(m, i) for i in range(1, n + 1)])

    @classmethod
    def kill_generator(cls, n: int, l: int) -> "GrassmannMorphism":
        """The endomorphism sending ``t_l`` to zero and fixing the other generators."""
        images = [
            GrassmannElement.zero(n) if i == l else GrassmannElement.theta(n, i)
            for i in range(1, n + 1)
        ]
        return cls(n, n, images)

    def __eq__(self, other):
        return isinstance(other, GrassmannMorphism) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

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
    """Substitute the generator images into ``a``.

    The image of each monomial is the image of the monomial without its top
    generator times the image of that generator, so a table filled during the
    call takes one product per monomial.  The generator images share one
    denominator ``d``, and the table holds numerators over ``d**degree``.
    """
    if a.n != phi.src_n:
        raise DimensionError(f"element over {a.n} generators, morphism expects {phi.src_n}")
    m = phi.dst_m
    d, gens = _numerators([img.terms for img in phi.images])
    table: dict[int, dict[int, int]] = {0: {0: 1}}

    def image(mask: int) -> dict[int, int]:
        img = table.get(mask)
        if img is None:
            top = mask.bit_length() - 1
            rest = image(mask ^ (1 << top))
            acc: dict[int, int] = {}
            if rest:
                _mul_into(acc, rest, gens[top], m)
            img = table[mask] = {x: v for x, v in acc.items() if v}
        return img

    den, (coeffs,) = _numerators([a.terms])
    images = [(c, mask.bit_count(), img) for mask, c in coeffs.items() if (img := image(mask))]
    top = max((k for _, k, _ in images), default=0)
    total: dict[int, int] = {}
    get = total.get
    for c, k, img in images:
        scale = c * d ** (top - k)
        for x, v in img.items():
            total[x] = get(x, 0) + scale * v
    return _element(m, total, den * d**top)


def morphism_compose(psi: GrassmannMorphism, phi: GrassmannMorphism) -> GrassmannMorphism:
    """The composite ``psi after phi``."""
    if phi.dst_m != psi.src_n:
        raise DimensionError(f"cannot compose {psi.src_n}->{psi.dst_m} after {phi.src_n}->{phi.dst_m}")
    return GrassmannMorphism(phi.src_n, psi.dst_m, [morphism_apply(psi, img) for img in phi.images])


# -- canonical text form ------------------------------------------------------


def _format_coeff_monomial(coeff: Fraction, mask: int) -> str:
    if not mask:
        return str(coeff)
    gens = "*".join(f"t{i}" for i in indices_of_mask(mask))
    if coeff == 1:
        return gens
    if coeff == -1:
        return f"-{gens}"
    return f"{coeff}*{gens}"


def format_element(a: GrassmannElement) -> str:
    """Canonical text: terms in increasing bitmask order, unit coefficients omitted."""
    if not a.terms:
        return "0"
    parts = []
    for mask in sorted(a.terms):
        text = _format_coeff_monomial(a.terms[mask], mask)
        if not parts:
            parts.append(text)
        elif text.startswith("-"):
            parts.append(f" - {text[1:]}")
        else:
            parts.append(f" + {text}")
    return "".join(parts)
