"""Supersmooth maps between superdomains, encoded as skeletons.

A morphism of superdomains ``U -> V`` is fixed by the pullbacks of ``V``'s
coordinates: it is a point of ``V`` with values in the function algebra of
``U``.  A skeleton stores exactly that, one ``Superfunction`` per codomain
coordinate.  A point over a Grassmann algebra is an algebra morphism out of the
domain's function algebra, so evaluation at it is substitution of its
coordinates into these superfunctions.  Composition ``g after f`` is the same
evaluation, at the point of ``g``'s domain that ``f``'s coordinate
superfunctions form.  Both are one walk of the substitution kernel
``grassmann._sum_of_products``.  Because the coefficients are polynomials with
rational coefficients, every value is exact.

The exchange format, taken by the constructor and given back by
``Skeleton.forms``, is one alternating ``k``-form for each ``k = 0..q`` on the
odd directions of the domain, whose components are polynomials in the even
variables, taking values in codomain directions of parity ``k mod 2``.

Normalization (fixed here, enforced by the round-trip and evaluation tests):
the ``k``-form evaluated on an ascending tuple of odd directions ``I`` equals
``(-1)**(k*(k-1)//2)`` times the superfunction coefficient of the odd monomial
``t_I``.  With this choice, evaluating the skeleton of a superfunction at a
point reproduces plain substitution of the point's coordinates into the
expansion in powers of the odd generators, and the induced evaluation map is
an algebra morphism into the Grassmann algebra itself.  The sign is applied
only where forms enter or leave: the constructor, ``Skeleton.forms`` and gate 1
of ``check_supersmooth``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from operator import attrgetter, lshift
from typing import Mapping, Sequence

from ._value import Value
from .errors import DimensionError, DomainError, ParityError
from .grassmann import (
    GrassmannElement,
    _SparseForm,
    _elements,
    _numerators,
    _odd_monomial,
    _path,
    _product_trie,
    _sign_mask,
    _sum_of_products,
    body,
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
    reconstruct_multilinear,
    reversal_sign,
)
from .poly import FIELD_BITS, PolyCoeff, poly_dot, power_tables
from .superlinear import MultilinearMap, SuperSpace

Box = tuple[tuple[Fraction, Fraction], ...]


class Skeleton(Value):
    """A supersmooth map ``domain -> codomain``, stored as its coordinate superfunctions.

    ``coords[c - 1]`` is the pullback ``F_c`` of the codomain coordinate ``c``,
    a ``Superfunction`` on the domain of the parity of ``c``.  The constructor
    takes, and ``forms`` gives back, the exchange format: ``forms[k]`` maps
    ``(I, c)`` to a polynomial ``P`` in the even variables, where ``I`` is an
    ascending tuple of odd-direction indices (``1..q``) of length ``k`` and
    ``c`` is a codomain basis index of parity ``k mod 2``, and
    ``F_c = sum reversal_sign(k) * P * t_I``.  Values on non-ascending tuples
    follow by alternation; entries for ``k > q`` vanish identically and are
    not stored.
    """

    __slots__ = ("domain", "codomain", "coords", "dom_box")

    _key = property(attrgetter("domain", "codomain", "coords", "dom_box"))

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
        terms: list[dict[int, PolyCoeff]] = [dict() for _ in range(codomain.dim)]
        for k, table in enumerate(forms):
            sign = reversal_sign(k)
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
                terms[c - 1][mask_of_indices(odd_idx)] = poly if sign > 0 else -poly
        if dom_box is not None:
            dom_box = tuple((Fraction(lo), Fraction(hi)) for lo, hi in dom_box)
            if len(dom_box) != domain.p:
                raise DimensionError(f"domain box needs {domain.p} intervals")
        coords = tuple(Superfunction._make(domain.p, domain.q, t) for t in terms)
        self._fill(domain, codomain, coords, dom_box)

    @property
    def forms(self) -> tuple[dict[tuple[tuple[int, ...], int], PolyCoeff], ...]:
        """The forms of the constructor, in fresh dicts."""
        forms: list[dict] = [dict() for _ in range(self.domain.q + 1)]
        for c, coord in enumerate(self.coords, start=1):
            for mask, poly in coord.terms.items():
                k = mask.bit_count()
                forms[k][(indices_of_mask(mask), c)] = poly if reversal_sign(k) > 0 else -poly
        return tuple(forms)

    def __repr__(self):
        sizes = ", ".join(f"k={k}:{len(t)}" for k, t in enumerate(self.forms) if t)
        return f"<Skeleton {self.domain} -> {self.codomain} [{sizes or 'zero'}]>"


def identity_skeleton(space: SuperSpace) -> Skeleton:
    p, q = space.p, space.q
    coords = [Superfunction.coordinate(p, q, a) for a in range(1, p + 1)]
    coords += [Superfunction.theta(p, q, b) for b in range(1, q + 1)]
    return Skeleton._make(space, space, tuple(coords), None)


def _gd_mul(a: dict, b: dict) -> dict:
    """The product of two superfunction term maps ``{odd mask: PolyCoeff}``: the
    pairs that meet at one mask, signed as in the Grassmann kernel, are summed
    by one ``poly_dot``."""
    pending: dict[int, list] = {}
    for ma, ca in a.items():
        sm = _sign_mask(ma)
        neg = -ca
        for mb, cb in b.items():
            if not ma & mb:
                pending.setdefault(ma | mb, []).append((neg if (mb & sm).bit_count() & 1 else ca, cb))
    return {mask: v for mask, pairs in pending.items() if (v := poly_dot(pairs[0][0].nvars, pairs))}


def _substitute_point(values: Sequence, p: int, n: int, superfunctions: Sequence[Superfunction], shifts=None):
    """The sums ``(accs, den)`` of ``superfunctions`` at ``values`` (``p`` even,
    then the odd ones), in one walk of ``_sum_of_products``.

    The values are Grassmann elements over ``n`` generators, or superfunctions
    with ``n`` odd variables whose term ``c * x**e * t_I`` packs into the key
    ``I + sum_a e_a << shifts[a]``, with fields wide enough for every exponent
    of the sums.  The factors are the odd values and, for each exponent
    ``e > 0`` of an even variable ``a`` among the terms, the power
    ``values[a]**e`` (``power_tables``).  The path of a term ``c * x**e * t_I``
    takes the odd values in ascending order, then one power per even variable
    with ``e[a] > 0``, so no path is longer than ``p + q`` whatever the
    exponents.  Odd first is the cheaper order: the products of the sparse odd
    values are shared by all terms of one odd monomial, and a vanishing one
    prunes them all.  A term in more than ``n`` odd directions
    vanishes and is skipped.
    """
    q = len(values) - p
    powers: dict[tuple[int, int], int] = {}
    entries = []
    monomials = []
    for out, f in enumerate(superfunctions):
        for mask, poly in f.terms.items():
            if mask.bit_count() > n:
                continue
            odd = _path(mask)
            for exps, coeff in poly.terms.items():
                even = [powers.setdefault((a, e), q + len(powers)) for a, e in enumerate(exps) if e]
                entries.append((odd + even, out, coeff))
            monomials += poly.terms
    tables = power_tables(values[:p], monomials)
    factors = [v.terms for v in values[p:]] + [tables[a][e].terms for a, e in powers]
    if shifts is not None:
        factors = [{m + sum(map(lshift, e, shifts)): c for m, pc in t.items() for e, c in pc.terms.items()}
                   for t in factors]
    fden, nums = _numerators(factors)
    return _sum_of_products(n, _product_trie(entries), nums, fden, len(superfunctions), shifts is None)


def skeleton_eval(skel: Skeleton, x: LambdaPoint) -> LambdaPoint:
    """Evaluate the encoded map at a point; exact and terminating.

    A point is an algebra morphism out of the domain's function algebra, so
    evaluation is substitution of the point's coordinates into the map's
    coordinate superfunctions: one walk of ``_substitute_point`` for all
    codomain coordinates.  The bodies are checked against the domain box
    first.
    """
    if x.space != skel.domain:
        raise DimensionError(f"point format {x.space} does not match domain {skel.domain}")
    for a, (lo, hi) in enumerate(skel.dom_box or ()):
        value = body(x.coords[a])
        if not lo <= value <= hi:
            raise DomainError(f"body coordinate x{a + 1}={value} outside [{lo}, {hi}]")
    values = _elements(x.n, _substitute_point(x.coords, x.space.p, x.n, skel.coords))
    return LambdaPoint._make(skel.codomain, x.n, tuple(values))


def _pullback_degree(g: Skeleton, f: Skeleton) -> tuple[int, int]:
    """``(m, D)``: a term ``P * t_J`` of ``g`` pulls back to sums of products of
    at most ``m = max(deg P + |J|)`` of ``f``'s coordinates, of degree at most
    ``D = max(1, deg f) * m``."""
    factors = max(
        (sum(e) + mask.bit_count() for coord in g.coords for mask, poly in coord.terms.items() for e in poly.terms),
        default=0,
    )
    degree = max([1] + [sum(e) for coord in f.coords for poly in coord.terms.values() for e in poly.terms])
    return factors, degree * factors


def skeleton_compose(g: Skeleton, f: Skeleton) -> Skeleton:
    """Skeleton of the composite ``g after f``: ``g`` evaluated at the point of
    its domain that ``f``'s coordinate superfunctions form, in one walk of
    ``_substitute_point`` on packed keys whose fields hold the degree bound of
    ``_pullback_degree``.  The composite inherits ``f``'s domain box.
    """
    if f.codomain != g.domain:
        raise DimensionError(f"cannot compose {g.domain} -> {g.codomain} after {f.domain} -> {f.codomain}")
    p, q = f.domain.p, f.domain.q
    width = max(FIELD_BITS, _pullback_degree(g, f)[1].bit_length())
    shifts, full, field = range(q, q + width * p, width), (1 << q) - 1, (1 << width) - 1
    accs, den = _substitute_point(f.coords, g.domain.p, q, g.coords, shifts)
    coords = []
    for acc in accs:
        terms: dict[int, dict] = {}
        for k, v in acc.items():
            if v:
                terms.setdefault(k & full, {})[tuple([k >> s & field for s in shifts])] = Fraction(v, den)
        coords.append(Superfunction._make(p, q, {m: PolyCoeff._make(p, t) for m, t in terms.items()}))
    return Skeleton._make(f.domain, g.codomain, tuple(coords), f.dom_box)


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
    """Plain substitution of point coordinates into the odd-power expansion:
    the one-output case of the walk that ``skeleton_eval`` runs
    (``_substitute_point``).  ``tests/helpers.py`` keeps an independent
    reference."""
    if x.space != SuperSpace(f.p, f.q):
        raise DimensionError(f"point format {x.space} does not match superdomain {f.p}|{f.q}")
    return _elements(x.n, _substitute_point(x.coords, f.p, x.n, (f,)))[0]


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
    parts = tuple(f._new({m: c for m, c in f.terms.items() if m.bit_count() & 1 == odd}) for odd in (0, 1))
    return Skeleton._make(SuperSpace(f.p, f.q), R_SPACE, parts, None)


def skeleton_to_superfunction(skel: Skeleton) -> Superfunction:
    if skel.codomain != R_SPACE:
        raise DimensionError(f"superfunctions target the format 1|1, got {skel.codomain}")
    return sum_terms(skel.coords)


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


def _interpolate(
    p: int, weights: Sequence[Sequence[Fraction]], values: Mapping[tuple[int, ...], Fraction]
) -> PolyCoeff:
    """The interpolant of ``values``, keyed by node index tuples of the tensor grid: the Lagrange
    rows ``weights`` turn the node index of one variable at a time into its exponent."""
    for a in range(p):
        acc: dict[tuple[int, ...], Fraction] = {}
        for j, value in values.items():
            for i, w in enumerate(weights[j[a]]):
                if w:
                    key = j[:a] + (i,) + j[a + 1 :]
                    acc[key] = acc.get(key, 0) + w * value
        values = acc
    return PolyCoeff._make(p, {e: c for e, c in values.items() if c})


def _probe_forms(family: PointFamily, max_degree: int) -> list[dict]:
    """Gate 1: candidate skeleton forms from one probe per node of the body grid
    ``{0..max_degree}**p``, over Λ_q with the generators ``t1..tq`` as odd
    coordinates.  The coefficient of ``t_I`` in output coordinate ``c`` is
    ``reversal_sign(|I|)`` times the entry ``(I, c)`` at that body."""
    domain = family.domains[0]
    q = domain.q
    odd = [GrassmannElement.theta(q, b) for b in range(1, q + 1)]
    table: dict[tuple[int, int], dict[tuple[int, ...], Fraction]] = {}
    for j in itertools.product(range(max_degree + 1), repeat=domain.p):
        x = LambdaPoint(domain, q, [GrassmannElement.scalar(q, a) for a in j] + odd)
        for c, coord in enumerate(family(q, (x,)).coords, start=1):
            for mask, coeff in coord.terms.items():
                table.setdefault((mask, c), {})[j] = coeff
    weights = _lagrange_weights([Fraction(t) for t in range(max_degree + 1)])
    forms: list[dict] = [dict() for _ in range(q + 1)]
    for (mask, c), values in table.items():
        k = mask.bit_count()
        forms[k][(indices_of_mask(mask), c)] = reversal_sign(k) * _interpolate(domain.p, weights, values)
    return forms


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

    Gate 1 calls the family once per node of the body grid
    ``{0..max_degree}**p``, at the point over Λ_q whose odd coordinates are
    the generators ``t1..tq``, and interpolates each odd coefficient of each
    output coordinate into a candidate skeleton.  Gate 2 compares the family
    with the candidate at the universal point over ``N = 2*p*(n_max-1) + q``
    generators (see ``_universal_point``; ``N`` can exceed ``n_max``) for
    every grid body and the closure bodies ``(-1/2, ...)`` and
    ``(max_degree+1, ...)``.  Gate 3 checks naturality under a grid of
    morphisms between the algebras on at most ``n_max`` generators, on points
    drawn with ``seed``.

    A ``True`` verdict carries the candidate.  It certifies naturality on that
    grid and, for a natural family, agreement at every point over at most
    ``n_max`` generators whose body is a node.  Other bodies rest on the
    assumption that the components have degree at most ``max_degree`` in the
    body.  A negative ``max_degree`` or ``n_max`` raises ``ValueError``.
    """
    from .sampling import random_point, standard_morphisms

    import random

    if len(family.domains) != 1:
        raise DimensionError("supersmoothness applies to unary families")
    domain = family.domains[0]
    codomain = family.codomain
    if n_max is None:
        n_max = min(family.n_max, N_MAX_DEFAULT)
    if max_degree < 0 or n_max < 0:
        raise ValueError(f"max_degree and n_max must be non-negative, got {max_degree} and {n_max}")
    diagnostics: list[str] = []
    p = domain.p

    # 1. candidate skeleton from one probe per body node
    forms = _probe_forms(family, max_degree)
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
