"""Block supermatrices over Grassmann algebras: supertrace and exact inversion.

A matrix over the algebra on ``n`` generators represents a point of the inner
endomorphism space of a format ``p|q``: entry ``(i, j)`` carries parity
``p(e_i) + p(e_j)``, so the diagonal blocks are even and the off-diagonal
blocks odd.  Over the ground field (``n == 0``) the off-diagonal blocks are
forced to vanish.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import attrgetter
from typing import Iterable, Sequence

from . import linalg
from ._value import Value
from .errors import DimensionError, NotInvertibleError, ParityError
from .grassmann import (
    GrassmannElement,
    GrassmannMorphism,
    Parity,
    _matrix_product,
    _peel_inverse,
    _substitute,
    body,
    check_generator_count,
    gr_add,
    gr_scale,
    parity_of,
)
from .superlinear import SuperSpace, braid_swap, dual_space


class SuperMatrix(Value):
    __slots__ = ("space", "n", "entries")

    _key = property(attrgetter("space", "n", "entries"))

    def __init__(self, space: SuperSpace, n: int, entries: Iterable[Iterable[GrassmannElement]]):
        rows = tuple(tuple(row) for row in entries)
        d = space.dim
        if len(rows) != d or any(len(row) != d for row in rows):
            raise DimensionError(f"expected a {d}x{d} matrix")
        for i, row in enumerate(rows, start=1):
            for j, entry in enumerate(row, start=1):
                if entry.n != n:
                    raise DimensionError(f"entry ({i},{j}) lives over {entry.n} generators, expected {n}")
                want = Parity.EVEN if space.parity(i) == space.parity(j) else Parity.ODD
                if parity_of(entry) not in (want, Parity.ZERO):
                    raise ParityError(f"entry ({i},{j}) must be {want.value} or zero, got {entry}")
        check_generator_count(n)
        self._fill(space, n, rows)

    @classmethod
    def zero(cls, space: SuperSpace, n: int) -> "SuperMatrix":
        check_generator_count(n)
        zero = GrassmannElement._make(n, {})
        return cls._make(space, n, ((zero,) * space.dim,) * space.dim)

    @classmethod
    def identity(cls, space: SuperSpace, n: int) -> "SuperMatrix":
        check_generator_count(n)
        zero, one = GrassmannElement._make(n, {}), GrassmannElement._make(n, {0: Fraction(1)})
        rows = tuple(tuple(one if i == j else zero for j in space.indices()) for i in space.indices())
        return cls._make(space, n, rows)

    @classmethod
    def from_rational(cls, space: SuperSpace, n: int, rows: Sequence[Sequence[Fraction]]) -> "SuperMatrix":
        return cls(space, n, [[GrassmannElement.scalar(n, v) for v in row] for row in rows])

    def __matmul__(self, other):
        return mat_mul(self, other)

    def __add__(self, other):
        return mat_add(self, other)

    def __repr__(self):
        rows = "; ".join("[" + ", ".join(str(e) for e in row) + "]" for row in self.entries)
        return f"<SuperMatrix {self.space} over n={self.n}: {rows}>"


def _check_compatible(a: SuperMatrix, b: SuperMatrix):
    if a.space != b.space or a.n != b.n:
        raise DimensionError("matrices live over different formats or generator counts")


def mat_add(a: SuperMatrix, b: SuperMatrix) -> SuperMatrix:
    _check_compatible(a, b)
    return SuperMatrix._make(a.space, a.n, tuple(tuple(map(gr_add, ra, rb)) for ra, rb in zip(a.entries, b.entries)))


def mat_mul(a: SuperMatrix, b: SuperMatrix) -> SuperMatrix:
    _check_compatible(a, b)
    return SuperMatrix._make(a.space, a.n, tuple(map(tuple, _matrix_product(a.n, a.entries, zip(*b.entries)))))


def mat_scale(r, a: SuperMatrix) -> SuperMatrix:
    return SuperMatrix._make(a.space, a.n, tuple(tuple(gr_scale(r, e) for e in row) for row in a.entries))


def mat_base_change(phi: GrassmannMorphism, a: SuperMatrix) -> SuperMatrix:
    if a.n != phi.src_n:
        raise DimensionError(f"matrix over {a.n} generators, morphism expects {phi.src_n}")
    entries = _substitute(phi, [e for row in a.entries for e in row])
    return SuperMatrix._make(a.space, phi.dst_m, tuple(zip(*[iter(entries)] * len(a.entries))))


def supertrace(a: SuperMatrix) -> GrassmannElement:
    """The signed trace: diagonal entries in odd rows contribute negatively."""
    acc = GrassmannElement.zero(a.n)
    for i in a.space.indices():
        term = a.entries[i - 1][i - 1]
        if a.space.parity(i):
            term = gr_scale(-1, term)
        acc = gr_add(acc, term)
    return acc


def supertrace_via_braiding(a: SuperMatrix) -> Fraction:
    """Supertrace of a ground-field matrix computed through the braiding.

    The matrix is decomposed into basis tensors ``e_i (x) e^j``, the
    commutativity isomorphism swaps the factors with its sign, and the
    evaluation pairing contracts ``e^j (x) e_i`` to ``delta``.  The sign in the
    supertrace formula is exactly the braiding sign picked up on the way.
    """
    if a.n != 0:
        raise DimensionError("the braiding pipeline is defined for ground-field matrices")
    v = a.space
    tensor = {
        (i, j): body(a.entries[i - 1][j - 1])
        for i in v.indices()
        for j in v.indices()
        if a.entries[i - 1][j - 1].terms
    }
    swapped = braid_swap(v, dual_space(v), tensor)
    total = Fraction(0)
    for (j, i), coeff in swapped.items():
        if i == j:
            total += coeff
    return total


def body_matrix(a: SuperMatrix) -> list[list[Fraction]]:
    return [[body(e) for e in row] for row in a.entries]


def is_invertible(a: SuperMatrix) -> bool:
    """True iff the body is invertible over the rationals.

    Odd entries have no body, so the body is block diagonal, and it is
    invertible exactly when both diagonal blocks are.
    """
    return len(linalg.row_space(dict(enumerate(row)) for row in body_matrix(a))) == a.space.dim


def mat_inv(a: SuperMatrix) -> SuperMatrix:
    """Exact inverse by recursion on the last generator (``grassmann._peel_inverse``).

    The recursion starts from the rational inverse of the body, the inverse
    over no generators.  Writing the matrix over ``t1..tk`` as
    ``M0 + M1*t_k`` with ``B = M0^-1`` known from level ``k-1``, the inverse
    is ``B - (B*M1*s(B))*t_k``, where ``s`` negates the odd monomials of every
    entry (``t_k*e == s(e)*t_k``).  Appending ``t_k``, the highest generator
    at level ``k``, to a monomial costs no sign, so each level only adds
    terms.  Each level takes two fused products of ``d x d`` matrices over
    ``k-1`` generators, and a level whose ``M1`` is zero is skipped.
    """
    try:
        body_inv = linalg.inverse(body_matrix(a))
    except NotInvertibleError:
        raise NotInvertibleError("not invertible: singular body block") from None
    return SuperMatrix._make(a.space, a.n, tuple(map(tuple, _peel_inverse(a.n, body_inv, a.entries))))


# -- group sanity checks --------------------------------------------------------


@dataclass(frozen=True)
class GLViolation:
    law: str
    detail: str


@dataclass(frozen=True)
class GLReport:
    trials: int
    violations: tuple[GLViolation, ...]

    @property
    def passed(self) -> bool:
        return not self.violations


def gl_group_check(n: int, p: int, q: int, trials: int, seed: int = 0) -> GLReport:
    """Sample invertible matrices and stress the group laws plus base change.

    Checks closure, associativity, two-sided inverses, the unit, and
    compatibility of multiplication with pushforward along Grassmann
    morphisms, all exactly.  The report lists violations with enough detail
    to reproduce them; an empty list is the expected outcome.  It is a sampled
    self-test of the group laws on the matrices drawn from ``seed``, not a
    certificate for all of GL.
    """
    from .sampling import random_invertible_matrix, standard_morphisms

    import random

    rng = random.Random(seed)
    space = SuperSpace(p, q)
    ident = SuperMatrix.identity(space, n)
    morphisms = [phi for m in range(n + 1) for phi in standard_morphisms(n, m)]
    violations: list[GLViolation] = []

    def record(law, detail):
        violations.append(GLViolation(law, detail))

    for trial in range(trials):
        a = random_invertible_matrix(rng, space, n)
        b = random_invertible_matrix(rng, space, n)
        c = random_invertible_matrix(rng, space, n)
        ab = mat_mul(a, b)
        if not is_invertible(ab):
            record("closure", f"trial {trial}: product of invertibles has singular body")
        if mat_mul(ab, c) != mat_mul(a, mat_mul(b, c)):
            record("associativity", f"trial {trial}")
        if mat_mul(a, ident) != a or mat_mul(ident, a) != a:
            record("unit", f"trial {trial}")
        inv = mat_inv(a)
        if mat_mul(a, inv) != ident or mat_mul(inv, a) != ident:
            record("inverse", f"trial {trial}")
        phi = morphisms[trial % len(morphisms)] if morphisms else None
        if phi is not None:
            lhs = mat_base_change(phi, ab)
            rhs = mat_mul(mat_base_change(phi, a), mat_base_change(phi, b))
            if lhs != rhs:
                record("base-change", f"trial {trial}, morphism {phi}")
    return GLReport(trials, tuple(violations))
