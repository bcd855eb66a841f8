"""Supersmooth maps between superdomains, encoded as skeletons.

A skeleton packs a map into finitely many coefficient maps: for ``k = 0..q``
an alternating ``k``-form on the odd directions of the domain whose components
are polynomials in the even variables, taking values in codomain directions of
parity ``k mod 2``.  Evaluation at a point over a Grassmann algebra is a
terminating Taylor expansion in the nilpotent part of the point; because the
coefficients are polynomials with rational coefficients, every value is exact.

Normalization (fixed here, enforced by the round-trip and evaluation tests):
the ``k``-form evaluated on an ascending tuple of odd directions ``I`` equals
``(-1)**(k*(k-1)//2)`` times the superfunction coefficient of the odd monomial
``t_I``.  With this choice, evaluating the skeleton of a superfunction at a
point reproduces plain substitution of the point's coordinates into the
expansion in powers of the odd generators, and the induced evaluation map is
an algebra morphism into the Grassmann algebra itself.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm, prod
from operator import attrgetter, sub
from typing import Callable, Mapping, Sequence

from ._value import Value
from .errors import DimensionError, DomainError, ParityError
from .grassmann import (
    GrassmannElement,
    _SparseForm,
    _numerators,
    _odd_monomial,
    _path,
    _product_trie,
    _sign_mask,
    _sum_of_products,
    check_generator_count,
    even_part,
    gr_add,
    gr_mul,
    indices_of_mask,
    mask_of_indices,
    odd_part,
    sum_terms,
)
from .points import (
    LambdaPoint,
    N_MAX_DEFAULT,
    PointFamily,
    check_naturality,
    decompose_point,
    reconstruct_multilinear,
    reversal_sign,
)
from .poly import PolyCoeff, monomial_value, poly_dot, power_tables
from .superlinear import MultilinearMap, SuperSpace

Box = tuple[tuple[Fraction, Fraction], ...]


class Skeleton(Value):
    """Coefficient data of a supersmooth map ``domain -> codomain``.

    ``forms[k]`` maps ``(I, c)`` to a polynomial in the even variables, where
    ``I`` is an ascending tuple of odd-direction indices (``1..q``) of length
    ``k`` and ``c`` is a codomain basis index of parity ``k mod 2``.  Values on
    non-ascending tuples follow by alternation; entries for ``k > q`` vanish
    identically and are not stored.
    """

    __slots__ = ("domain", "codomain", "forms", "dom_box")

    @property
    def _key(self):
        return self.domain, self.codomain, tuple(frozenset(table.items()) for table in self.forms), self.dom_box

    def __init__(
        self,
        domain: SuperSpace,
        codomain: SuperSpace,
        forms: Sequence[Mapping[tuple[tuple[int, ...], int], PolyCoeff]],
        dom_box: Box | None = None,
    ):
        forms = tuple(forms)
        if len(forms) != domain.q + 1:
            raise DimensionError(f"expected {domain.q + 1} form degrees, got {len(forms)}")
        clean = []
        for k, table in enumerate(forms):
            entry: dict[tuple[tuple[int, ...], int], PolyCoeff] = {}
            for (odd_idx, c), poly in table.items():
                if poly.is_zero():
                    continue
                odd_idx = tuple(odd_idx)
                if len(odd_idx) != k or any(
                    not 1 <= i <= domain.q for i in odd_idx
                ) or list(odd_idx) != sorted(set(odd_idx)):
                    raise DimensionError(f"bad odd index tuple {odd_idx} for degree {k}")
                if codomain.parity(c) != k % 2:
                    raise ParityError(f"degree-{k} form cannot target codomain index {c}")
                if poly.nvars != domain.p:
                    raise DimensionError(f"coefficient polynomial has {poly.nvars} variables, expected {domain.p}")
                entry[(odd_idx, c)] = poly
            clean.append(entry)
        if dom_box is not None:
            dom_box = tuple((Fraction(lo), Fraction(hi)) for lo, hi in dom_box)
            if len(dom_box) != domain.p:
                raise DimensionError(f"domain box needs {domain.p} intervals")
        self._fill(domain, codomain, tuple(clean), dom_box)

    def __repr__(self):
        sizes = ", ".join(f"k={k}:{len(t)}" for k, t in enumerate(self.forms) if t)
        return f"<Skeleton {self.domain} -> {self.codomain} [{sizes or 'zero'}]>"


def identity_skeleton(space: SuperSpace) -> Skeleton:
    forms: list[dict] = [dict() for _ in range(space.q + 1)]
    for a in range(1, space.p + 1):
        forms[0][((), a)] = PolyCoeff.variable(space.p, a)
    for b in range(1, space.q + 1):
        forms[1][((b,), space.p + b)] = PolyCoeff.const(space.p, 1)
    return Skeleton._make(space, space, tuple(forms), None)


# -- the Taylor engine ----------------------------------------------------------
#
# Works uniformly over a coefficient ring: exact rationals for evaluation at a
# concrete point, polynomials for the symbolic probes used by composition.
# "Grassmann scratch values" are plain dicts mask -> ring coefficient with the
# same sign rule as GrassmannElement; a pair is signed by
# ``(mb & _sign_mask(ma)).bit_count() & 1``, as in the Grassmann kernel.
#
# One pass over the terms of a coefficient polynomial P yields all of its
# Taylor coefficients ``D^alpha P(u) / alpha!`` with ``|alpha| <= max_k``: a
# term ``c * x^e`` contributes ``c * prod_a C(e_a, alpha_a) * u_a^(e_a - alpha_a)``
# to every ``alpha <= e``.  The expansion of each exponent tuple, the powers
# of ``u`` (one table per call) and the products ``nu_I * mu^alpha`` (one per
# pair ``(I, alpha)``, shared by the codomain entries) are built once per call.
# With no even nilpotent part only ``alpha = 0`` survives, so ``max_k`` is 0.
# Sums are not built one addition at a time: the products that meet in one
# Taylor coefficient or one output monomial are collected and summed at once
# by the ring's sum-of-products kernel (``poly_dot`` for polynomials, one
# integer numerator for rationals).


def _gd_mul(a: dict, b: dict) -> dict:
    pending: dict[int, list] = {}
    for ma, ca in a.items():
        sm = _sign_mask(ma)
        neg = -ca
        for mb, cb in b.items():
            if not ma & mb:
                pending.setdefault(ma | mb, []).append((neg if (mb & sm).bit_count() & 1 else ca, cb))
    return _gd_sum(pending)


def _gd_sum(pending: dict) -> dict:
    """``{key: sum(x * y for x, y in pairs)}`` without the zero sums, through
    the sum-of-products kernel of the coefficient ring."""
    if not pending:
        return {}
    ring = next(iter(pending.values()))[0][0]
    dot = functools.partial(poly_dot, ring.nvars) if isinstance(ring, PolyCoeff) else _fraction_dot
    out = {}
    for key, pairs in pending.items():
        value = dot(pairs)
        if value:
            out[key] = value
    return out


def _fraction_dot(pairs) -> Fraction:
    """``sum(x * y for x, y in pairs)`` over one integer numerator."""
    dens = [x.denominator * y.denominator for x, y in pairs]
    den = lcm(*dens)
    return Fraction(sum([x.numerator * y.numerator * (den // d) for (x, y), d in zip(pairs, dens)]), den)


def _taylor_expansions(exponents, u: Sequence, max_k: int, ring_one) -> dict:
    """``{e: [(alpha, C(e, alpha) * u**(e - alpha)), ...]}`` for ``alpha <= e``, ``|alpha| <= max_k``."""
    shapes = {
        e: [
            (alpha, tuple(map(sub, e, alpha)), prod(map(comb, e, alpha)))
            for alpha in itertools.product(*[range(min(x, max_k) + 1) for x in e])
            if sum(alpha) <= max_k
        ]
        for e in exponents
    }
    rests = {rest for shape in shapes.values() for _, rest, _ in shape}
    tables = power_tables(u, rests, ring_one)
    values = {rest: monomial_value(tables, rest, ring_one) for rest in rests}
    return {
        e: [(alpha, values[rest] * binom) for alpha, rest, binom in shape]
        for e, shape in shapes.items()
    }


def _taylor_coefficients(poly: PolyCoeff, expansions: dict) -> dict:
    """``{alpha: D^alpha poly(u) / alpha!}`` without the zeros, from the
    expansions of ``_taylor_expansions`` at ``u``."""
    pending: dict[tuple[int, ...], list] = {}
    for e, coeff in poly.terms.items():
        for alpha, value in expansions[e]:
            pending.setdefault(alpha, []).append((value, coeff))
    return _gd_sum(pending)


def _eval_engine(
    skel: Skeleton,
    u: Sequence,
    mu: Sequence[dict],
    nu: Sequence[dict],
    n: int,
    ring_one,
) -> list[dict]:
    """Sum over form degrees and even-derivative multi-indices.

    The contribution of the degree-``m`` form on ascending odd directions
    ``I`` is, for each multi-index ``alpha``, its Taylor coefficient
    ``D^alpha P(u) / alpha!`` times the reversal sign of the ``m`` odd
    factors times the ascending product of odd coordinates with the even
    nilpotent powers ``mu**alpha``.
    """
    p = skel.domain.p
    max_k = n // 2 if any(mu) else 0
    forms = skel.forms[: min(skel.domain.q, n) + 1]
    expansions = _taylor_expansions(
        {e for table in forms for poly in table.values() for e in poly.terms}, u, max_k, ring_one
    )

    mu_powers: dict[tuple[int, ...], dict] = {(0,) * p: {0: ring_one}}
    nu_products: dict[tuple[int, ...], dict] = {(): {0: ring_one}}
    pending: list[dict] = [dict() for _ in range(skel.codomain.dim)]
    products: dict[tuple[tuple[int, ...], tuple[int, ...]], dict] = {}
    for m, table in enumerate(forms):
        negate = reversal_sign(m) < 0
        for (odd_idx, c), poly in table.items():
            base = _nu_product(nu_products, nu, odd_idx)
            if not base:
                continue
            acc = pending[c - 1]
            for alpha, value in _taylor_coefficients(poly, expansions).items():
                term = products.get((odd_idx, alpha))
                if term is None:
                    term = products[(odd_idx, alpha)] = _gd_mul(base, _mu_power(mu_powers, mu, alpha))
                if negate:
                    value = -value
                for mask, coeff in term.items():
                    acc.setdefault(mask, []).append((coeff, value))
    return [_gd_sum(acc) for acc in pending]


def _mu_power(cache: dict, mu: Sequence[dict], alpha: tuple[int, ...]) -> dict:
    """``mu**alpha``, from the cached power with the first nonzero exponent one lower."""
    cached = cache.get(alpha)
    if cached is None:
        a = next(i for i, e in enumerate(alpha) if e)
        prev = alpha[:a] + (alpha[a] - 1,) + alpha[a + 1 :]
        cached = cache[alpha] = _gd_mul(_mu_power(cache, mu, prev), mu[a])
    return cached


def _nu_product(cache: dict, nu: Sequence[dict], odd_idx: tuple[int, ...]) -> dict:
    """The ascending product of the odd coordinates ``nu[i - 1]`` for ``i`` in ``odd_idx``."""
    cached = cache.get(odd_idx)
    if cached is None:
        cached = cache[odd_idx] = _gd_mul(_nu_product(cache, nu, odd_idx[:-1]), nu[odd_idx[-1] - 1])
    return cached


def _check_box(skel: Skeleton, u: Sequence[Fraction]):
    if skel.dom_box is None:
        return
    for a, (value, (lo, hi)) in enumerate(zip(u, skel.dom_box), start=1):
        if not lo <= value <= hi:
            raise DomainError(f"body coordinate x{a}={value} outside [{lo}, {hi}]")


def skeleton_eval(skel: Skeleton, x: LambdaPoint) -> LambdaPoint:
    """Evaluate the encoded map at a point; exact and terminating.

    The point decomposes into its rational body, the even nilpotent part and
    the odd part; the double Taylor sum runs over even derivative order (at
    most half the generator count, by nilpotency) and odd form degree (at most
    ``q``).
    """
    if x.space != skel.domain:
        raise DimensionError(f"point format {x.space} does not match domain {skel.domain}")
    body_vec, nil = decompose_point(x)
    u = body_vec.coords[: skel.domain.p]
    _check_box(skel, u)
    mu = [dict(nil.coords[a].terms) for a in range(skel.domain.p)]
    nu = [dict(x.coords[skel.domain.p + b].terms) for b in range(skel.domain.q)]
    out = _eval_engine(skel, u, mu, nu, x.n, Fraction(1))
    return LambdaPoint._make(skel.codomain, x.n, tuple(GrassmannElement._make(x.n, d) for d in out))


def skeleton_compose(g: Skeleton, f: Skeleton) -> Skeleton:
    """Skeleton of the composite ``g after f`` by symbolic probe evaluation.

    For every ascending tuple ``I`` of odd directions of ``f``'s domain the
    composite is evaluated at a probe whose even bodies are the polynomial
    variables themselves and whose odd coordinates are fresh generators at the
    slots in ``I``.  The coefficient of the full generator monomial, times the
    reversal sign, is the composite's degree-``|I|`` form at ``I`` -- still a
    polynomial because every step of the evaluation is polynomial.  Domain
    boxes are evaluation-time guards, so the composite inherits ``f``'s box.
    """
    if f.codomain != g.domain:
        raise DimensionError(f"cannot compose {g.domain} -> {g.codomain} after {f.domain} -> {f.codomain}")
    p, q = f.domain.p, f.domain.q
    ring_one = PolyCoeff.const(p, 1)
    ring_zero = PolyCoeff.zero(p)
    u_sym = [PolyCoeff.variable(p, a) for a in range(1, p + 1)]
    forms: list[dict] = [dict() for _ in range(q + 1)]
    for k in range(q + 1):
        for odd_idx in itertools.combinations(range(1, q + 1), k):
            n = k
            mu = [dict() for _ in range(p)]
            nu = [dict() for _ in range(q)]
            for slot, i in enumerate(odd_idx):
                nu[i - 1] = {1 << slot: ring_one}
            mid = _eval_engine(f, u_sym, mu, nu, n, ring_one)
            u2 = [mid[a].get(0, ring_zero) for a in range(g.domain.p)]
            mu2 = [
                {mask: c for mask, c in mid[a].items() if mask} for a in range(g.domain.p)
            ]
            nu2 = [mid[g.domain.p + b] for b in range(g.domain.q)]
            outv = _eval_engine(g, u2, mu2, nu2, n, ring_one)
            top = (1 << k) - 1
            sign = reversal_sign(k)
            for c in g.codomain.indices():
                poly = outv[c - 1].get(top)
                if poly is not None and not poly.is_zero():
                    forms[k][(odd_idx, c)] = sign * poly
    return Skeleton._make(f.domain, g.codomain, tuple(forms), f.dom_box)


# -- superfunctions ---------------------------------------------------------------


class Superfunction(_SparseForm):
    """A finite expansion in powers of the odd generators with polynomial coefficients.

    ``terms`` maps an odd-direction bitmask to its coefficient polynomial in
    the even variables.  These form the function algebra of the superdomain
    ``p|q``, with the same multiplication sign rule as the Grassmann algebra.
    """

    __slots__ = ("p", "q")

    _dims = property(attrgetter("p", "q"))
    _dims_name = "superdomain formats"
    _scalars = (int, Fraction, PolyCoeff)
    _monomial = staticmethod(_odd_monomial)

    def __init__(self, p: int, q: int, terms: Mapping[int, PolyCoeff]):
        if p < 0 or q < 0:
            raise DimensionError("dimensions must be non-negative")
        clean: dict[int, PolyCoeff] = {}
        for mask, poly in terms.items():
            if poly.is_zero():
                continue
            if mask < 0 or mask >> q:
                raise DimensionError(f"odd monomial {indices_of_mask(mask)} outside 1..{q}")
            if poly.nvars != p:
                raise DimensionError(f"coefficient has {poly.nvars} variables, expected {p}")
            clean[mask] = poly
        self._fill(p, q, clean)

    def _new(self, terms):
        return Superfunction._make(self.p, self.q, terms)

    def _embed(self, value):
        return Superfunction.const(self.p, self.q, value)

    @classmethod
    def zero(cls, p: int, q: int) -> "Superfunction":
        return cls(p, q, {})

    @classmethod
    def const(cls, p: int, q: int, value) -> "Superfunction":
        return cls(p, q, {0: PolyCoeff.const(p, value)})

    @classmethod
    def coordinate(cls, p: int, q: int, i: int) -> "Superfunction":
        """The even coordinate function ``x_i``."""
        return cls(p, q, {0: PolyCoeff.variable(p, i)})

    @classmethod
    def theta(cls, p: int, q: int, i: int) -> "Superfunction":
        """The odd coordinate function ``t_i``."""
        if not 1 <= i <= q:
            raise DimensionError(f"odd index {i} outside 1..{q}")
        return cls(p, q, {1 << (i - 1): PolyCoeff.const(p, 1)})

    def __mul__(self, other):
        if isinstance(other, Superfunction):
            return superfunction_mul(self, other)
        return self.__rmul__(other)

    def _power(self, exponent: int) -> "Superfunction":
        """Binomial series ``sum_j C(k, j) b**(k-j) N**j`` in the body ``b`` (the
        coefficient of the empty odd monomial) and the nilpotent rest ``N``.

        ``N**j`` vanishes for ``j > q``, so the body is raised to one power and
        the series takes at most ``2q`` more products however large ``k`` is.
        """
        body = self.terms.get(0)
        if body is None or len(self.terms) == 1:
            return super()._power(exponent)
        nil = self._new({m: c for m, c in self.terms.items() if m})
        nil_powers = [self._embed(1)]
        while len(nil_powers) <= exponent:
            nxt = nil_powers[-1] * nil
            if not nxt:
                break
            nil_powers.append(nxt)
        top = len(nil_powers) - 1
        weight = body ** (exponent - top)  # body ** (exponent - j), from j = top down
        parts = []
        for j in range(top, -1, -1):
            parts.append(nil_powers[j]._scale(comb(exponent, j) * weight))
            if j:
                weight = weight * body
        return sum_terms(parts)

    def __repr__(self):
        return f"<Superfunction p={self.p} q={self.q}: {self}>"


def superfunction_mul(f: Superfunction, g: Superfunction) -> Superfunction:
    """Supercommutative product: odd monomials merge with the Grassmann sign rule."""
    f._check_dims(g)
    return f._new(_gd_mul(f.terms, g.terms))


def superfunction_eval(f: Superfunction, x: LambdaPoint) -> GrassmannElement:
    """Plain substitution of point coordinates into the odd-power expansion.

    This bypasses the Taylor machinery entirely, which makes it an independent
    cross-check of skeleton evaluation.  It is one walk of the substitution
    kernel ``_sum_of_products``.  The factors are the odd coordinates and, for
    each exponent ``e > 0`` of an even variable ``a`` among the terms, the
    power ``x[a]**e`` (``power_tables``: each power from the next lower one,
    a binomial series of at most ``n`` products).  The path of a term
    ``c * x**e * t_I`` takes one power per even variable with ``e[a] > 0``,
    then the odd coordinates of ``I`` in ascending order, so no path is longer
    than ``p + q`` whatever the exponents.
    """
    if x.space != SuperSpace(f.p, f.q):
        raise DimensionError(f"point format {x.space} does not match superdomain {f.p}|{f.q}")
    p, q = f.p, f.q
    powers: dict[tuple[int, int], int] = {}
    entries = []
    for mask, poly in f.terms.items():
        odd = _path(mask)
        for exps, coeff in poly.terms.items():
            even = [powers.setdefault((a, e), q + len(powers)) for a, e in enumerate(exps) if e]
            entries.append((even + odd, 0, coeff))
    monomials = [exps for poly in f.terms.values() for exps in poly.terms]
    tables = power_tables(x.coords[:p], monomials, GrassmannElement.one(x.n))
    fden, factors = _numerators([c.terms for c in x.coords[p:]] + [tables[a][e].terms for a, e in powers])
    return _sum_of_products(x.n, _product_trie(entries), factors, fden, 1)[0]


R_SPACE = SuperSpace(1, 1)


def element_to_point(g: GrassmannElement) -> LambdaPoint:
    """Identify a Grassmann element with a point of the format ``1|1``."""
    return LambdaPoint._make(R_SPACE, g.n, (even_part(g), odd_part(g)))


def point_to_element(x: LambdaPoint) -> GrassmannElement:
    if x.space != R_SPACE:
        raise DimensionError(f"expected a point of format 1|1, got {x.space}")
    return gr_add(x.coords[0], x.coords[1])


def superfunction_to_skeleton(f: Superfunction) -> Skeleton:
    """The skeleton of a superfunction, seen as a map into the format ``1|1``."""
    forms: list[dict] = [dict() for _ in range(f.q + 1)]
    for mask, poly in f.terms.items():
        odd_idx = indices_of_mask(mask)
        k = len(odd_idx)
        c = 1 if k % 2 == 0 else 2
        forms[k][(odd_idx, c)] = reversal_sign(k) * poly
    return Skeleton._make(SuperSpace(f.p, f.q), R_SPACE, tuple(forms), None)


def skeleton_to_superfunction(skel: Skeleton) -> Superfunction:
    if skel.codomain != R_SPACE:
        raise DimensionError(f"superfunctions target the format 1|1, got {skel.codomain}")
    terms: dict[int, PolyCoeff] = {}
    for k, table in enumerate(skel.forms):
        for (odd_idx, c), poly in table.items():
            terms[mask_of_indices(odd_idx)] = reversal_sign(k) * poly
    return Superfunction._make(skel.domain.p, skel.domain.q, terms)


# -- the derived multiplication on the representing space of the function algebra --


def cs_structure(n_max: int = N_MAX_DEFAULT) -> MultilinearMap:
    """Derive the bilinear multiplication on the format ``1|1`` that represents
    multiplying Grassmann scalars functorially.

    The point family multiplies two points *as Grassmann elements* under the
    identification of the ``1|1`` point set with the algebra itself; the
    reconstruction probes (two fresh odd generators against the odd basis
    vector) then force the odd-odd product entry, rather than it being written
    down by hand.  The expected table is ``m(1,1)=1``, ``m(1,t)=m(t,1)=t`` and
    ``m(t,t)=-1``.
    """

    def component(n: int, args: tuple[LambdaPoint, ...]) -> LambdaPoint:
        product = gr_mul(point_to_element(args[0]), point_to_element(args[1]))
        return element_to_point(product)

    family = PointFamily((R_SPACE, R_SPACE), R_SPACE, component, n_max)
    return reconstruct_multilinear(family)


# -- supersmoothness checking -----------------------------------------------------


@dataclass(frozen=True)
class SupersmoothVerdict:
    supersmooth: bool
    skeleton: Skeleton | None
    diagnostics: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return self.supersmooth


def _lagrange_weights(nodes: Sequence[Fraction]) -> list[list[Fraction]]:
    """Coefficient rows: weights[j][i] is the t**i coefficient of the j-th basis polynomial."""
    k = len(nodes)
    rows = []
    for j, node in enumerate(nodes):
        coeffs = [Fraction(1)]
        denom = Fraction(1)
        for l, other in enumerate(nodes):
            if l == j:
                continue
            denom *= node - other
            next_coeffs = [Fraction(0)] * (len(coeffs) + 1)
            for i, c in enumerate(coeffs):
                next_coeffs[i] += -other * c
                next_coeffs[i + 1] += c
            coeffs = next_coeffs
        rows.append([c / denom for c in coeffs] + [Fraction(0)] * (k - len(coeffs)))
    return rows


def _interpolate_grid(
    nvars: int, degree: int, values: Callable[[tuple[Fraction, ...]], Fraction]
) -> PolyCoeff:
    """Exact interpolation on the tensor grid {0..degree}**nvars."""
    nodes = [Fraction(t) for t in range(degree + 1)]
    return _interpolate_from(nvars, nodes, _lagrange_weights(nodes), values, ())


def _interpolate_from(nvars: int, nodes: list[Fraction], weights, values, prefix: tuple[Fraction, ...]) -> PolyCoeff:
    """The interpolant of ``values`` in the variables after ``prefix`` on the grid ``nodes``."""
    var = len(prefix) + 1
    if var > nvars:
        return PolyCoeff.const(nvars, values(prefix))
    acc = PolyCoeff.zero(nvars)
    for j, node in enumerate(nodes):
        sub = _interpolate_from(nvars, nodes, weights, values, prefix + (node,))
        if sub.is_zero():
            continue
        basis = PolyCoeff(
            nvars,
            {tuple(i if v == var else 0 for v in range(1, nvars + 1)): w for i, w in enumerate(weights[j]) if w},
        )
        acc = acc + basis * sub
    return acc


def _universal_point(domain: SuperSpace, u: Sequence[Fraction], pairs: int) -> LambdaPoint:
    """The point with body ``u`` over ``N = 2*p*pairs + q`` generators.

    Even coordinate ``a`` (from 0) is ``u_a + sum_{j<pairs} s_{a,j} s'_{a,j}``
    on the generators ``2(a*pairs+j)+1`` and ``+2``; odd coordinate ``b`` (from
    1) is the generator ``2*p*pairs + b``.  Grouped by the lowest generator
    ``t_j`` of each monomial, an even nilpotent over ``m`` generators is
    ``sum_j t_j w_j`` with every ``w_j`` odd, so for ``pairs = m - 1`` the
    morphism ``s -> t_j, s' -> w_j`` maps this point onto every point over at
    most ``m`` generators with body ``u``.
    """
    p = domain.p
    n = 2 * p * pairs + domain.q
    check_generator_count(n)
    coords = []
    for a, value in enumerate(u):
        terms = {0: value} if value else {}
        for j in range(pairs):
            terms[0b11 << 2 * (a * pairs + j)] = Fraction(1)
        coords.append(GrassmannElement._make(n, terms))
    coords += [GrassmannElement.theta(n, 2 * p * pairs + b) for b in range(1, domain.q + 1)]
    return LambdaPoint._make(domain, n, tuple(coords))


def check_supersmooth(
    family: PointFamily,
    max_degree: int = 4,
    n_max: int | None = None,
    seed: int = 1,
) -> SupersmoothVerdict:
    """Decide whether a unary point family is the evaluation of a skeleton.

    Gate 1 interpolates a candidate skeleton from probes on the body grid
    ``{0..max_degree}**p``.  Gate 2 compares the family with the candidate at
    the universal point over ``N = 2*p*(n_max-1) + q`` generators (see
    ``_universal_point``; ``N`` can exceed ``n_max``) for every grid body and
    the closure bodies ``(-1/2, ...)`` and ``(max_degree+1, ...)``.  Gate 3
    checks naturality under a grid of morphisms between the algebras on at
    most ``n_max`` generators, on points drawn with ``seed``.

    A ``True`` verdict carries the candidate.  It certifies naturality on that
    grid and, for a natural family, agreement at every point over at most
    ``n_max`` generators whose body is a node.  Other bodies rest on the
    assumption that the components have degree at most ``max_degree`` in the
    body.
    """
    from .sampling import random_point, standard_morphisms

    import random

    if len(family.domains) != 1:
        raise DimensionError("supersmoothness applies to unary families")
    domain = family.domains[0]
    codomain = family.codomain
    if n_max is None:
        n_max = min(family.n_max, N_MAX_DEFAULT)
    diagnostics: list[str] = []
    p, q = domain.p, domain.q

    # 1. candidate skeleton from probes, one interpolation per odd tuple
    forms: list[dict] = [dict() for _ in range(q + 1)]
    for k in range(q + 1):
        for odd_idx in itertools.combinations(range(1, q + 1), k):
            sign = reversal_sign(k)
            top = (1 << k) - 1

            def probe(u: tuple[Fraction, ...], c: int) -> Fraction:
                coords = [GrassmannElement.scalar(k, v) for v in u]
                coords += [GrassmannElement.zero(k) for _ in range(q)]
                for slot, i in enumerate(odd_idx):
                    coords[p + i - 1] = GrassmannElement.theta(k, slot + 1)
                value = family(k, (LambdaPoint(domain, k, coords),))
                return value.coords[c - 1].terms.get(top, Fraction(0))

            for c in codomain.indices():
                if codomain.parity(c) != k % 2:
                    continue
                poly = _interpolate_grid(p, max_degree, lambda u, c=c: sign * probe(u, c))
                if not poly.is_zero():
                    forms[k][(odd_idx, c)] = poly
    try:
        candidate = Skeleton(domain, codomain, forms)
    except (ParityError, DimensionError) as exc:
        return SupersmoothVerdict(False, None, (f"probe data is not a skeleton: {exc}",))

    # 2. agreement at the universal point over every body node; the two
    # closure nodes lie below and above the grid (one node when p = 0)
    pairs = max(n_max - 1, 0)
    nodes = [Fraction(t) for t in range(max_degree + 1)]
    bodies = dict.fromkeys(
        [*itertools.product(nodes, repeat=p), (Fraction(-1, 2),) * p, (Fraction(max_degree + 1),) * p]
    )
    for u in bodies:
        x = _universal_point(domain, u, pairs)
        if family(x.n, (x,)) != skeleton_eval(candidate, x):
            diagnostics.append(
                f"component disagrees with every skeleton of degree <= {max_degree} at the "
                f"universal point over {x.n} generators with body ({', '.join(map(str, u))})"
            )
            break

    # 3. naturality under a deterministic morphism grid
    rng = random.Random(seed)
    for src in range(n_max + 1):
        for dst in range(n_max + 1):
            for phi in standard_morphisms(src, dst):
                samples = [(random_point(rng, domain, src),) for _ in range(2)]
                report = check_naturality(family, phi, samples)
                if not report.passed:
                    v = report.violations[0]
                    diagnostics.append(
                        f"not natural under {phi}: family({v.sample!r}) transforms to {v.rhs!r} but maps to {v.lhs!r}"
                    )
    if diagnostics:
        return SupersmoothVerdict(False, None, tuple(diagnostics))
    return SupersmoothVerdict(True, candidate, ())
