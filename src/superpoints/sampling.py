"""Deterministic random generators and morphism grids for property testing."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from .grassmann import GrassmannElement, GrassmannMorphism, Parity
from .points import LambdaPoint
from .superlinear import MultilinearMap, SuperSpace
from .supermatrix import SuperMatrix, is_invertible


def random_rational(rng: random.Random, max_num: int = 4, max_den: int = 3) -> Fraction:
    num = rng.randint(-max_num, max_num)
    den = rng.randint(1, max_den)
    return Fraction(num, den)


def random_element(
    rng: random.Random,
    n: int,
    parity: Parity | None = None,
    max_terms: int = 3,
    max_num: int = 4,
) -> GrassmannElement:
    masks = [m for m in range(1 << n)]
    if parity is Parity.EVEN:
        masks = [m for m in masks if m.bit_count() % 2 == 0]
    elif parity is Parity.ODD:
        masks = [m for m in masks if m.bit_count() % 2 == 1]
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        if not masks:
            break
        terms[rng.choice(masks)] = random_rational(rng, max_num)
    return GrassmannElement(n, terms)


def random_morphism(
    rng: random.Random, src_n: int, dst_m: int, max_terms: int = 2
) -> GrassmannMorphism:
    images = [random_element(rng, dst_m, Parity.ODD, max_terms) for _ in range(src_n)]
    return GrassmannMorphism(src_n, dst_m, images)


def random_point(rng: random.Random, space: SuperSpace, n: int, max_terms: int = 2) -> LambdaPoint:
    coords = []
    for i in space.indices():
        parity = Parity.EVEN if space.parity(i) == 0 else Parity.ODD
        coords.append(random_element(rng, n, parity, max_terms))
    return LambdaPoint(space, n, coords)


def random_multilinear(
    rng: random.Random,
    domains: tuple[SuperSpace, ...],
    codomain: SuperSpace,
    density: float = 0.5,
) -> MultilinearMap:
    coeffs = {}
    for ins in itertools.product(*(d.indices() for d in domains)):
        parity = 0
        for space, i in zip(domains, ins):
            parity ^= space.parity(i)
        for c in codomain.indices():
            if codomain.parity(c) == parity and rng.random() < density:
                coeffs[(tuple(ins), c)] = random_rational(rng)
    return MultilinearMap(domains, codomain, coeffs)


def random_matrix(rng: random.Random, space: SuperSpace, n: int, max_terms: int = 2) -> SuperMatrix:
    rows = []
    for i in space.indices():
        row = []
        for j in space.indices():
            parity = Parity.EVEN if space.parity(i) == space.parity(j) else Parity.ODD
            row.append(random_element(rng, n, parity, max_terms))
        rows.append(row)
    return SuperMatrix(space, n, rows)


def random_invertible_matrix(
    rng: random.Random, space: SuperSpace, n: int, max_terms: int = 2
) -> SuperMatrix:
    """Random matrix nudged along the diagonal until the body blocks are regular."""
    while True:
        m = random_matrix(rng, space, n, max_terms)
        bumped = [
            [
                m.entries[i][j] + (1 if i == j else 0)
                for j in range(space.dim)
            ]
            for i in range(space.dim)
        ]
        m = SuperMatrix(space, n, bumped)
        if is_invertible(m):
            return m


def standard_morphisms(src_n: int, dst_m: int) -> list[GrassmannMorphism]:
    """A small deterministic set of morphisms between two Grassmann algebras.

    Covers the terminal morphism, inclusions, generator permutations and
    kills, and a couple of morphisms with multi-term images; enough to catch
    every fixed-algebra artifact exercised in the tests.
    """
    out: list[GrassmannMorphism] = []
    if dst_m == 0:
        return [GrassmannMorphism.terminal(src_n)]
    if src_n == 0:
        return [GrassmannMorphism(0, dst_m, [])]
    thetas = [GrassmannElement.theta(dst_m, i) for i in range(1, dst_m + 1)]
    zero = GrassmannElement.zero(dst_m)

    def add(images):
        phi = GrassmannMorphism(src_n, dst_m, images)
        if phi not in out:
            out.append(phi)

    add([zero] * src_n)
    add([thetas[i % dst_m] for i in range(src_n)])
    add([thetas[(i + 1) % dst_m] for i in range(src_n)])
    add([thetas[dst_m - 1 - (i % dst_m)] for i in range(src_n)])
    if src_n <= dst_m:
        add([thetas[i] for i in range(src_n)])
    for l in range(src_n):
        add([zero if i == l else thetas[i % dst_m] for i in range(src_n)])
    # multi-term images: sums of two generators, and a degree-3 tail if possible
    add([thetas[i % dst_m] + thetas[(i + 1) % dst_m] for i in range(src_n)])
    if dst_m >= 3:
        spike = thetas[0] + GrassmannElement.monomial(dst_m, (1, 2, 3))
        add([spike if i == 0 else thetas[i % dst_m] for i in range(src_n)])
    return out
