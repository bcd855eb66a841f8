"""Shared independent oracles for the test suite.

Everything here recomputes results along a different code path than the
library: signs by explicit sorting instead of bitmask popcounts, map
evaluation by ``poly_eval`` (each term a product of powers) and one
``gr_mul`` per odd factor instead of the library's substitution walk,
composition by substituting twice, or by ``Superfunction`` arithmetic
(``reference_compose``) instead of one walk on packed keys, inverses by the
terminating geometric series around the body, on the public products and
sums, instead of the library's recursion on the last generator, and the
candidate skeleton of ``check_supersmooth`` by one probe per odd tuple,
codomain coordinate and body node, interpolated as products of Lagrange basis
polynomials, instead of one probe per body node.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from superpoints import (
    GrassmannElement,
    LambdaPoint,
    PointFamily,
    Skeleton,
    SuperMatrix,
    SuperSpace,
    body,
    body_matrix,
    gr_add,
    gr_mul,
    gr_scale,
    linalg,
    mat_add,
    mat_mul,
    nil_part,
    reversal_sign,
)
from superpoints.grassmann import _path, indices_of_mask, sum_terms
from superpoints.poly import PolyCoeff, poly_dot, power_tables
from superpoints.skeleton import Superfunction


def sign_by_sorting(left: tuple[int, ...], right: tuple[int, ...]):
    """Reference sign for merging two ascending index tuples, by bubble sort.

    Returns (sorted tuple, sign) or None when an index repeats.
    """
    word = list(left) + list(right)
    if len(set(word)) != len(word):
        return None
    sign = 1
    changed = True
    while changed:
        changed = False
        for i in range(len(word) - 1):
            if word[i] > word[i + 1]:
                word[i], word[i + 1] = word[i + 1], word[i]
                sign = -sign
                changed = True
    return tuple(word), sign


def mul_reference(a: GrassmannElement, b: GrassmannElement) -> GrassmannElement:
    """Grassmann product recomputed with the sorting oracle."""
    assert a.n == b.n
    terms: dict[int, Fraction] = {}
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            merged = sign_by_sorting(indices_of_mask(ma), indices_of_mask(mb))
            if merged is None:
                continue
            word, sign = merged
            mask = 0
            for i in word:
                mask |= 1 << (i - 1)
            terms[mask] = terms.get(mask, Fraction(0)) + sign * ca * cb
    return GrassmannElement(a.n, terms)


def poly_eval(poly: PolyCoeff, values, one=Fraction(1)):
    """``poly`` at a value tuple, term by term: ``coeff * prod(v ** e)``.

    Works for any commutative ring by duck typing; ``one`` is the unit of the
    ring, so that a constant term embeds in it (a Grassmann unit when the
    values are even Grassmann elements).
    """
    if len(values) != poly.nvars:
        raise ValueError(f"expected {poly.nvars} values, got {len(values)}")
    total = one * Fraction(0)
    for exps, coeff in poly.terms.items():
        term = one
        for v, e in zip(values, exps):
            if e:
                term = term * v**e
        total = total + term * coeff
    return total


class PolynomialSupermap:
    """A map given per output coordinate as polynomials times odd monomials.

    ``terms[(odd_mask, c)]`` is the polynomial coefficient of ``t_odd_mask``
    in output coordinate ``c``; the odd mask parity must match the slot parity
    of ``c``.  Evaluation is plain substitution of the point's coordinates --
    no derivatives or factorials anywhere -- so it serves as an independent
    oracle for the skeleton evaluation of the same data.
    """

    def __init__(self, domain: SuperSpace, codomain: SuperSpace, terms):
        self.domain = domain
        self.codomain = codomain
        self.terms = {}
        for (mask, c), poly in terms.items():
            if poly.is_zero():
                continue
            assert codomain.parity(c) == mask.bit_count() % 2
            assert poly.nvars == domain.p
            self.terms[(mask, c)] = poly

    def skeleton(self) -> Skeleton:
        forms: list[dict] = [dict() for _ in range(self.domain.q + 1)]
        for (mask, c), poly in self.terms.items():
            odd_idx = indices_of_mask(mask)
            k = len(odd_idx)
            forms[k][(odd_idx, c)] = reversal_sign(k) * poly
        return Skeleton(self.domain, self.codomain, forms)

    def substitute(self, x: LambdaPoint) -> LambdaPoint:
        assert x.space == self.domain
        n = x.n
        one = GrassmannElement.one(n)
        evens = x.coords[: self.domain.p]
        out = [GrassmannElement.zero(n) for _ in range(self.codomain.dim)]
        for (mask, c), poly in self.terms.items():
            value = poly_eval(poly, evens, one=one)
            for i in indices_of_mask(mask):
                value = value * x.coords[self.domain.p + i - 1]
                if value.is_zero():
                    break
            out[c - 1] = out[c - 1] + value
        return LambdaPoint(self.codomain, n, out)


def random_polynomial_supermap(rng, domain: SuperSpace, codomain: SuperSpace,
                               max_degree: int = 2, density: float = 0.6) -> PolynomialSupermap:
    terms = {}
    for mask in range(1 << domain.q):
        parity = mask.bit_count() % 2
        for c in codomain.indices():
            if codomain.parity(c) != parity or rng.random() > density:
                continue
            poly_terms = {}
            for exps in itertools.product(range(max_degree + 1), repeat=domain.p):
                if sum(exps) <= max_degree and rng.random() < 0.5:
                    poly_terms[exps] = Fraction(rng.randint(-3, 3))
            poly = PolyCoeff(domain.p, poly_terms)
            if not poly.is_zero():
                terms[(mask, c)] = poly
    return PolynomialSupermap(domain, codomain, terms)


def series_inverse(a: GrassmannElement) -> GrassmannElement:
    """``sum_{k=0..n} (-1)^k c^k / b^(k+1)`` with ``b`` the body and ``c`` the
    nilpotent part: exact, because ``c^(n+1)`` vanishes."""
    b, c = body(a), nil_part(a)
    total, power = GrassmannElement.zero(a.n), GrassmannElement.one(a.n)
    for k in range(a.n + 1):
        total = gr_add(total, gr_scale(Fraction((-1) ** k) / b ** (k + 1), power))
        power = gr_mul(power, c)
    return total


def series_matrix_inverse(a: SuperMatrix) -> SuperMatrix:
    """``a0^-1 * sum_{k=0..n} x^k`` with ``a0`` the body and ``x = -c * a0^-1``
    for the nilpotent rest ``c``: exact, because a product of more than ``n``
    matrices with nilpotent entries vanishes."""
    n = a.n
    a0_inv = SuperMatrix.from_rational(a.space, n, linalg.inverse(body_matrix(a)))
    minus_c = SuperMatrix(a.space, n, [[gr_scale(-1, nil_part(e)) for e in row] for row in a.entries])
    x = mat_mul(minus_c, a0_inv)
    series = power = SuperMatrix.identity(a.space, n)
    for _ in range(n):
        power = mat_mul(power, x)
        series = mat_add(series, power)
    return mat_mul(a0_inv, series)


def reference_candidate(family: PointFamily, max_degree: int) -> Skeleton:
    """The candidate skeleton of a unary family on the body grid ``{0..max_degree}**p``.

    For each ascending odd tuple ``I`` of length ``k``, codomain coordinate
    ``c`` of parity ``k mod 2`` and grid node ``u``, the family is called over
    ``k`` generators at the point with body ``u``, ``t1..tk`` in the odd
    directions ``I`` and zero in the others; the coefficient of ``t1*...*tk``
    in coordinate ``c`` times ``reversal_sign(k)`` weights the product of the
    Lagrange basis polynomials of ``u``.
    """
    (domain,), codomain = family.domains, family.codomain
    p, q = domain.p, domain.q
    nodes = range(max_degree + 1)

    def basis(a: int, j: int) -> PolyCoeff:
        x = PolyCoeff.variable(p, a)
        out = PolyCoeff.const(p, 1)
        for other in nodes:
            if other != j:
                out = out * (x - other) * Fraction(1, j - other)
        return out

    forms: list[dict] = [dict() for _ in range(q + 1)]
    for k in range(q + 1):
        for odd_idx in itertools.combinations(range(1, q + 1), k):
            for c in codomain.indices():
                if codomain.parity(c) != k % 2:
                    continue
                poly = PolyCoeff.zero(p)
                for u in itertools.product(nodes, repeat=p):
                    coords = [GrassmannElement.scalar(k, v) for v in u] + [GrassmannElement.zero(k)] * q
                    for slot, i in enumerate(odd_idx, start=1):
                        coords[p + i - 1] = GrassmannElement.theta(k, slot)
                    value = family(k, (LambdaPoint(domain, k, coords),))
                    term = PolyCoeff.const(p, reversal_sign(k) * value.coords[c - 1].terms.get((1 << k) - 1, 0))
                    for a, j in enumerate(u, start=1):
                        term = term * basis(a, j)
                    poly = poly + term
                forms[k][(odd_idx, c)] = poly
    return Skeleton(domain, codomain, forms)


def reference_compose(g: Skeleton, f: Skeleton) -> Skeleton:
    """The composite ``g after f`` by ``Superfunction`` arithmetic.

    Each term ``P * t_J`` of ``g``'s coordinate ``c`` adds ``P(F_even) * F_J``
    to the composite's coordinate ``c``, where ``F_J`` is the ascending
    product of the odd coordinates of ``f`` at ``J``.  The powers of the even
    coordinates come from ``power_tables``, one value per exponent tuple, and
    ``P(F_even)`` is summed per odd monomial by one ``poly_dot``.
    """
    assert f.codomain == g.domain
    p, q = f.domain.p, f.domain.q
    even, odd = f.coords[: g.domain.p], f.coords[g.domain.p :]
    one = Superfunction.const(p, q, 1)
    tables = power_tables(even, [exps for coord in g.coords for poly in coord.terms.values() for exps in poly.terms])
    monomials: dict[tuple[int, ...], Superfunction] = {}
    odd_products: dict[int, Superfunction] = {}
    coords = []
    for coord in g.coords:
        part = []
        for mask, poly in coord.terms.items():
            pending: dict[int, list] = {}
            for exps, coeff in poly.terms.items():
                value = monomials.get(exps)
                if value is None:
                    value = one
                    for table, e in zip(tables, exps):
                        if e:
                            value = value * table[e]
                    monomials[exps] = value
                for m, v in value.terms.items():
                    pending.setdefault(m, []).append((v, coeff))
            combination = Superfunction(p, q, {m: s for m, pairs in pending.items() if (s := poly_dot(p, pairs))})
            factor = odd_products.get(mask)
            if factor is None:
                factor = one
                for j in _path(mask):
                    factor = factor * odd[j]
                odd_products[mask] = factor
            part.append(combination * factor)
        coords.append(sum_terms(part) if part else one._new({}))
    return Skeleton._make(f.domain, g.codomain, tuple(coords), f.dom_box)
