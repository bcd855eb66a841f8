"""Lambda-points of super vector spaces and the lift/reconstruct machinery.

A point of ``V`` over the Grassmann algebra on ``n`` generators pairs the even
basis directions with even Grassmann coordinates and the odd directions with
odd coordinates.  Even multilinear maps lift to families of maps on points, and
conversely a family that is functorial under base change determines a unique
multilinear map; both directions are implemented here together with the
naturality checks that separate genuine constructions from fixed-algebra
artifacts.

Sign table (normative, see also the round-trip tests):

* lifting a map to points multiplies the Grassmann coordinates in *reversed*
  argument order, ``lambda_k * ... * lambda_1``;
* consequently a probe at ``(t1 (x) v1, ..., tj (x) vj)`` evaluates to
  ``tj*...*t1 (x) g(v1,...,vj)``, and reading the stored coefficient of the
  ascending monomial ``t1*...*tj`` costs the reversal sign
  ``(-1)**(j*(j-1)//2)``.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from operator import attrgetter
from typing import Callable, Iterable, Sequence

from . import linalg
from ._value import Value
from .errors import DimensionError, ParityError, ReconstructionError
from .grassmann import (
    GrassmannElement,
    GrassmannMorphism,
    Parity,
    _elements,
    _numerators,
    _product_trie,
    _substitute,
    _sum_of_products,
    body,
    check_generator_count,
    gr_add,
    gr_mul,
    gr_scale,
    nil_part,
    parity_of,
)
from .superlinear import MultilinearMap, SuperSpace, SuperVector

#: Default bound for exhaustive functoriality grids; keeps test suites sub-second.
N_MAX_DEFAULT = 6


def reversal_sign(j: int) -> int:
    """Sign of reversing a product of ``j`` pairwise anticommuting factors."""
    return -1 if (j * (j - 1) // 2) & 1 else 1


class LambdaPoint(Value):
    """An element of the point set of ``space`` over the algebra on ``n`` generators.

    The first ``p`` coordinates must be even (or zero) Grassmann elements, the
    last ``q`` odd (or zero); this is exactly membership in the even part of
    the tensor product and is validated at construction.
    """

    __slots__ = ("space", "n", "coords")

    _key = property(attrgetter("space", "n", "coords"))

    def __init__(self, space: SuperSpace, n: int, coords: Iterable[GrassmannElement]):
        coords = tuple(coords)
        if len(coords) != space.dim:
            raise DimensionError(f"expected {space.dim} coordinates, got {len(coords)}")
        for i, c in enumerate(coords, start=1):
            if c.n != n:
                raise DimensionError(f"coordinate {i} lives over {c.n} generators, expected {n}")
            want = Parity.EVEN if space.parity(i) == 0 else Parity.ODD
            if parity_of(c) not in (want, Parity.ZERO):
                raise ParityError(f"coordinate {i} must be {want.value} or zero, got {c}")
        check_generator_count(n)
        self._fill(space, n, coords)

    @classmethod
    def zero(cls, space: SuperSpace, n: int) -> "LambdaPoint":
        return cls(space, n, (GrassmannElement.zero(n),) * space.dim)

    @classmethod
    def from_vector(cls, v: SuperVector, n: int) -> "LambdaPoint":
        """Embed a plain vector as a constant point; odd coordinates must vanish."""
        coords = []
        for i in v.space.indices():
            c = v.coords[i - 1]
            if v.space.parity(i) and c:
                raise ParityError("a constant point cannot have nonzero odd coordinates")
            coords.append(GrassmannElement.scalar(n, c))
        return cls(v.space, n, coords)

    def __add__(self, other: "LambdaPoint") -> "LambdaPoint":
        if not isinstance(other, LambdaPoint):
            return NotImplemented
        if self.space != other.space or self.n != other.n:
            raise DimensionError("mismatched point formats")
        return LambdaPoint._make(self.space, self.n, tuple(gr_add(a, b) for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "LambdaPoint") -> "LambdaPoint":
        return self + scale_point(Fraction(-1), other)

    def __repr__(self):
        inner = "; ".join(str(c) for c in self.coords)
        return f"<LambdaPoint {self.space} over n={self.n}: ({inner})>"


def scale_point(scalar, x: LambdaPoint) -> LambdaPoint:
    """Scale by a rational or by an even Grassmann element (the module action)."""
    if isinstance(scalar, GrassmannElement):
        if parity_of(scalar) not in (Parity.EVEN, Parity.ZERO):
            raise ParityError("the module action requires an even scalar")
        return LambdaPoint._make(x.space, x.n, tuple(gr_mul(scalar, c) for c in x.coords))
    r = Fraction(scalar)
    return LambdaPoint._make(x.space, x.n, tuple(gr_scale(r, c) for c in x.coords))


def base_change(phi: GrassmannMorphism, x: LambdaPoint) -> LambdaPoint:
    """Push a point forward along a Grassmann morphism: one substitution walk
    over all coordinates."""
    _check_source(phi, x)
    return LambdaPoint._make(x.space, phi.dst_m, tuple(_substitute(phi, x.coords)))


def _check_source(phi: GrassmannMorphism, x: LambdaPoint) -> None:
    if x.n != phi.src_n:
        raise DimensionError(f"point over {x.n} generators, morphism expects {phi.src_n}")


def decompose_point(x: LambdaPoint) -> tuple[SuperVector, LambdaPoint]:
    """Split into the rational body (even directions only) and the nilpotent rest.

    Odd coordinates have no body, so they are all nilpotent rest.
    """
    nil = LambdaPoint._make(x.space, x.n, tuple(map(nil_part, x.coords)))
    return SuperVector(x.space, tuple(map(body, x.coords))), nil


def lift_multilinear(f: MultilinearMap, args: Sequence[LambdaPoint]) -> LambdaPoint:
    """Evaluate the lifted map on points over a common Grassmann algebra.

    On a decomposable tuple ``lambda_i (x) v_i`` the value is
    ``lambda_k*...*lambda_1 (x) f(v_1,...,v_k)`` (reversed coordinate order);
    general arguments expand multilinearly over the basis coordinates.

    Each output coordinate is one fused sum of products on integer
    numerators: the coordinates of all arguments share one denominator, and
    the walk follows a trie of the map's entries keyed by input index from the
    last argument to the first, so entries with the same trailing inputs
    share one prefix product and a zero coordinate prunes every entry through
    it.  The trie is built once per map and cached on it.
    """
    if len(args) != f.arity:
        raise DimensionError(f"expected {f.arity} arguments, got {len(args)}")
    if not args:
        raise DimensionError("nullary maps have no point lift")
    n = args[0].n
    for x, space in zip(args, f.domains):
        if x.space != space:
            raise DimensionError(f"argument space {x.space} does not match domain {space}")
        if x.n != n:
            raise DimensionError("arguments live over different generator counts")
    trie = f._trie
    if trie is None:
        offsets = _offsets(f.domains)
        trie = _product_trie(
            ([offsets[a] + i for a, i in reversed(list(enumerate(ins)))], c - 1, coeff)
            for (ins, c), coeff in f.coeffs.items()
        )
        f._cache("_trie", trie)
    fden, factors = _numerators([c.terms for x in args for c in x.coords])
    sums = _sum_of_products(n, trie, factors, fden, f.codomain.dim)
    return LambdaPoint._make(f.codomain, n, tuple(_elements(n, sums)))


def _offsets(domains: Sequence[SuperSpace]) -> list[int]:
    """``offsets[a] + i`` is the position of coordinate ``i`` (1-based) of
    argument ``a`` among the coordinates of all arguments, 0-based."""
    offsets, total = [], -1
    for space in domains:
        offsets.append(total)
        total += space.dim
    return offsets


# -- point families -----------------------------------------------------------


@dataclass(frozen=True)
class PointFamily:
    """A family of maps on points, one component per generator count.

    ``component(n, args)`` must return a point of ``codomain`` over ``n``
    generators.  Components are expected to be polynomial maps with rational
    coefficients so that every comparison below is exact; whether the family
    is *natural* in the Grassmann algebra is precisely what the checks in this
    module decide.
    """

    domains: tuple[SuperSpace, ...]
    codomain: SuperSpace
    component: Callable[[int, tuple[LambdaPoint, ...]], LambdaPoint]
    n_max: int = N_MAX_DEFAULT

    def __call__(self, n: int, args: Sequence[LambdaPoint]) -> LambdaPoint:
        args = tuple(args)
        if len(args) != len(self.domains):
            raise DimensionError(f"expected {len(self.domains)} arguments, got {len(args)}")
        value = self.component(n, args)
        if value.space != self.codomain or value.n != n:
            raise DimensionError("family component returned a point of the wrong format")
        return value


def lift_family(f: MultilinearMap, n_max: int = N_MAX_DEFAULT) -> PointFamily:
    return PointFamily(
        domains=f.domains,
        codomain=f.codomain,
        component=lambda n, args: lift_multilinear(f, args),
        n_max=n_max,
    )


def identity_family(space: SuperSpace, n_max: int = N_MAX_DEFAULT) -> PointFamily:
    return PointFamily((space,), space, lambda n, args: args[0], n_max)


def injected_constant_family(
    f: MultilinearMap, out_index: int, indices: tuple[int, ...] = (1, 2), n_max: int = N_MAX_DEFAULT
) -> PointFamily:
    """The lift of ``f`` polluted by a fixed Grassmann constant.

    Whenever the algebra has enough generators, the monomial ``t_indices`` is
    added to output coordinate ``out_index``; the monomial's parity must match
    that coordinate's slot.  Each component is still a perfectly smooth
    polynomial map, but the family is not functorial: a morphism that kills
    one of the generators in ``indices`` moves the constant, so naturality
    fails.  This is the classic fixed-algebra artifact that functoriality
    under base change is designed to exclude.
    """
    need = max(indices)

    def component(n: int, args: tuple[LambdaPoint, ...]) -> LambdaPoint:
        value = lift_multilinear(f, args)
        if n >= need:
            coords = list(value.coords)
            coords[out_index - 1] = gr_add(
                coords[out_index - 1], GrassmannElement.monomial(n, indices)
            )
            value = LambdaPoint._make(value.space, n, tuple(coords))
        return value

    return PointFamily(f.domains, f.codomain, component, n_max)


@dataclass(frozen=True)
class NaturalityViolation:
    morphism: GrassmannMorphism
    sample: tuple[LambdaPoint, ...]
    lhs: LambdaPoint
    rhs: LambdaPoint


@dataclass(frozen=True)
class NaturalityReport:
    morphism: GrassmannMorphism
    checked: int
    violations: tuple[NaturalityViolation, ...]

    @property
    def passed(self) -> bool:
        return not self.violations


def check_naturality(
    family: PointFamily,
    phi: GrassmannMorphism,
    samples: Sequence[Sequence[LambdaPoint] | LambdaPoint],
) -> NaturalityReport:
    """Test the commutative square of the family against one morphism.

    For each sample tuple ``x`` over the source algebra the check compares
    ``family(base_change(phi, x))`` with ``base_change(phi, family(x))``
    exactly.  Violations are reported with full witnesses; they are data,
    not errors.
    """
    violations = []
    count = 0
    for sample in samples:
        args = (sample,) if isinstance(sample, LambdaPoint) else tuple(sample)
        count += 1
        for x in args:
            _check_source(phi, x)
        try:
            value = family(phi.src_n, args)
        except Exception:
            # a family that refuses the sample is reported by the error of the
            # square's first call, the one on the pushed sample, if it has one
            family(phi.dst_m, tuple(base_change(phi, x) for x in args))
            raise
        violation = _naturality_square(family, phi, args, value)
        if violation is not None:
            violations.append(violation)
    return NaturalityReport(phi, count, tuple(violations))


def _naturality_square(
    family: PointFamily,
    phi: GrassmannMorphism,
    args: tuple[LambdaPoint, ...],
    value: LambdaPoint,
    trie: tuple[int, int, tuple] | None = None,
) -> NaturalityViolation | None:
    """The square of one sample ``args`` over ``phi.src_n`` whose value
    ``family(phi.src_n, args)`` is ``value``: the arguments and the value are
    pushed forward along ``phi`` in one ``_substitute`` walk, and the family is
    called once, on the pushed arguments.  ``None`` when the square commutes.
    A caller that checks one sample under many morphisms passes ``trie``, the
    ``_element_trie`` of the coordinates of ``args`` and then ``value``.
    """
    pushed = iter(_substitute(phi, [c for x in (*args, value) for c in x.coords], trie))
    images = tuple(LambdaPoint._make(x.space, phi.dst_m, tuple(itertools.islice(pushed, x.space.dim))) for x in args)
    rhs = LambdaPoint._make(value.space, phi.dst_m, tuple(pushed))
    lhs = family(phi.dst_m, images)
    return None if lhs == rhs else NaturalityViolation(phi, args, lhs, rhs)


def reconstruct_multilinear(family: PointFamily) -> MultilinearMap:
    """Recover the unique even multilinear map whose lift equals the family.

    For each tuple of basis vectors, odd vectors are probed with distinct
    fresh generators (the first odd argument gets ``t1`` and so on) and even
    vectors with the unit.  A genuine lift returns a multiple of the full
    monomial ``tj*...*t1`` only; any stray lower-order monomial, or any
    failure of the probe to commute with the generator-killing morphisms,
    betrays a family that is not functorial and raises ``ReconstructionError``
    with a witness.
    """
    domains, codomain = family.domains, family.codomain
    coeffs: dict[tuple[tuple[int, ...], int], Fraction] = {}
    for ins in itertools.product(*[space.indices() for space in domains]):
        j = sum(1 for space, i in zip(domains, ins) if space.parity(i))
        if j > family.n_max:
            raise DimensionError(
                f"probe needs {j} generators but the family is only defined up to {family.n_max}"
            )
        args = []
        odd_slot = 0
        for space, i in zip(domains, ins):
            coords = [GrassmannElement._make(j, {})] * space.dim
            if space.parity(i):
                odd_slot += 1
                coords[i - 1] = GrassmannElement.theta(j, odd_slot)
            else:
                coords[i - 1] = GrassmannElement._make(j, {0: Fraction(1)})
            args.append(LambdaPoint._make(space, j, tuple(coords)))
        args = tuple(args)
        value = family(j, args)

        top = (1 << j) - 1
        sign = reversal_sign(j)
        for c in codomain.indices():
            for mask, coeff in value.coords[c - 1].terms.items():
                if mask != top:
                    raise ReconstructionError(
                        "family is not a lift: stray monomial in probe value",
                        witness={"inputs": ins, "output": c, "value": value},
                    )
                g = sign * coeff
                parity = 0
                for space, i in zip(domains, ins):
                    parity ^= space.parity(i)
                if parity != codomain.parity(c):
                    raise ReconstructionError(
                        "family is not a lift: probe value violates evenness",
                        witness={"inputs": ins, "output": c, "value": value},
                    )
                coeffs[(ins, c)] = g

        # Functoriality against the generator-killing endomorphisms: these
        # wipe every summand containing the killed generator, so a family with
        # hidden fixed-algebra constants cannot pass.
        for l in range(1, j + 1):
            phi = GrassmannMorphism.kill_generator(j, l)
            lhs = family(j, tuple(base_change(phi, x) for x in args))
            rhs = base_change(phi, value)
            if lhs != rhs:
                raise ReconstructionError(
                    "family is not natural under a generator-killing morphism",
                    witness={"inputs": ins, "morphism": phi, "lhs": lhs, "rhs": rhs},
                )

    return MultilinearMap(domains, codomain, coeffs)


# -- superpoints ---------------------------------------------------------------


def morphism_to_point(phi: GrassmannMorphism) -> LambdaPoint:
    """The point of the purely odd space ``0|src_n`` whose coordinates are the images."""
    space = SuperSpace(0, phi.src_n)
    return LambdaPoint._make(space, phi.dst_m, phi.images)


def point_to_morphism(x: LambdaPoint) -> GrassmannMorphism:
    if x.space.p != 0:
        raise DimensionError(f"superpoints are purely odd, got format {x.space}")
    return GrassmannMorphism(x.space.q, x.n, x.coords)


# -- superrepresentability -----------------------------------------------------


def ambient_basis(space: SuperSpace, n: int) -> list[tuple[int, int]]:
    """Rational basis of the full point set: pairs (coordinate index, monomial mask)."""
    out = []
    for i in space.indices():
        want = space.parity(i)
        for mask in range(1 << n):
            if mask.bit_count() & 1 == want:
                out.append((i, mask))
    return out


@dataclass(frozen=True)
class CandidateModule:
    """A candidate module functor presented inside an ambient point functor.

    For each ``n <= n_max``, ``basis(n)`` lists points over ``n`` generators
    whose rational span is the candidate's point set.  The module structure
    and the base-change action are inherited from the ambient space, which
    covers every example of interest here (full point functors and their
    nilpotent parts).
    """

    ambient: SuperSpace
    n_max: int
    basis: Callable[[int], Sequence[LambdaPoint]]


def vbar_module(space: SuperSpace, n_max: int = N_MAX_DEFAULT) -> CandidateModule:
    """The full point functor of ``space`` as a candidate module."""
    basis = functools.partial(_basis_points, space, False)
    return CandidateModule(space, n_max, basis)


def vnil_module(space: SuperSpace, n_max: int = N_MAX_DEFAULT) -> CandidateModule:
    """The nilpotent-part subfunctor: coordinates with vanishing body."""
    basis = functools.partial(_basis_points, space, True)
    return CandidateModule(space, n_max, basis)


def _basis_points(space: SuperSpace, nilpotent: bool, n: int) -> list[LambdaPoint]:
    """The points with one coordinate a unit monomial, leaving out the body
    monomial when ``nilpotent``."""
    zero = GrassmannElement._make(n, {})
    out = []
    for i, mask in ambient_basis(space, n):
        if mask or not nilpotent:
            coords = [zero] * space.dim
            coords[i - 1] = GrassmannElement._make(n, {mask: Fraction(1)})
            out.append(LambdaPoint._make(space, n, tuple(coords)))
    return out


@dataclass(frozen=True)
class SuperrepVerdict:
    superrepresentable: bool
    format: SuperSpace | None
    reasons: tuple[str, ...]


def superrep_check(candidate: CandidateModule) -> SuperrepVerdict:
    """Decide whether a candidate module is the point functor of some format.

    The criterion has two parts: the map induced by killing the single
    generator must be surjective onto the value at the ground field, and the
    candidate must coincide with the point functor rebuilt from its ground
    value plus the parity reversal of that map's kernel.  The rebuilt functor
    is compared through the lift of an explicit embedding, so a success is a
    certified natural isomorphism on the tested range.

    Each point is read as the sparse row ``{(mask, coordinate): coefficient}``
    and every span as its ``linalg.row_space``.  Killing the generator keeps
    the terms of mask 0, so the image of the terminal map is spanned by the
    body parts of the rows over one generator.  With the mask first in the
    key, the body columns sort before the nilpotent ones, so the echelon rows
    over one generator whose pivot has mask 1 vanish on the body and are a
    basis of that map's kernel.  They and the echelon rows of the ground value
    are the columns of the embedding.  A basis point outside the ambient space
    or over the wrong number of generators raises ``DimensionError``, and a
    negative ``n_max`` raises ``ValueError``.
    """
    if candidate.n_max < 0:
        raise ValueError(f"n_max must be non-negative, got {candidate.n_max}")

    @functools.cache
    def span(n: int) -> dict:
        rows = []
        for index, x in enumerate(candidate.basis(n)):
            if x.space != candidate.ambient or x.n != n:
                raise DimensionError(
                    f"basis point {index} for n={n} lies in {x.space} over {x.n} generators, "
                    f"expected {candidate.ambient} over {n}"
                )
            rows.append(_point_row(x))
        return linalg.row_space(rows)

    ground = list(span(0).values())
    image = linalg.row_space({key: value for key, value in row.items() if key[0] == 0} for row in span(1).values())
    if image != span(0):
        reason = "killing the generator of the 1-generator algebra is not surjective onto the ground value"
        return SuperrepVerdict(False, None, (reason,))
    kernel = [row for pivot, row in span(1).items() if pivot[0] == 1]
    fmt = SuperSpace(len(ground), len(kernel))
    columns = enumerate(ground + kernel, start=1)
    emb_coeffs = {((col,), i): value for col, row in columns for (_, i), value in row.items()}
    embedding = MultilinearMap((fmt,), candidate.ambient, emb_coeffs)
    rebuilt = vbar_module(fmt, candidate.n_max)
    for n in range(candidate.n_max + 1):
        lifted = linalg.row_space(_point_row(lift_multilinear(embedding, (x,))) for x in rebuilt.basis(n))
        if span(n) != lifted:
            reason = f"points over {n} generators differ from the rebuilt module of format {fmt}"
            return SuperrepVerdict(False, None, (reason,))
    return SuperrepVerdict(True, fmt, ())


def _point_row(x: LambdaPoint) -> dict[tuple[int, int], Fraction]:
    return {(mask, i): value for i, coord in enumerate(x.coords, start=1) for mask, value in coord.terms.items()}
