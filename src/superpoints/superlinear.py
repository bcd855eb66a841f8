"""Finite-dimensional super vector spaces and even multilinear maps.

A format ``p|q`` fixes the basis convention once and for all: indices
``1..p`` are even, ``p+1..p+q`` are odd.  All sign bookkeeping reduces to the
braiding rule: swapping neighbouring homogeneous factors costs
``(-1)**(parity*parity)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping, Sequence

from ._value import Value
from .errors import DimensionError, ParityError


@dataclass(frozen=True)
class SuperSpace:
    p: int
    q: int

    def __post_init__(self):
        if self.p < 0 or self.q < 0:
            raise DimensionError(f"dimensions must be non-negative, got {self.p}|{self.q}")

    @property
    def dim(self) -> int:
        return self.p + self.q

    def parity(self, i: int) -> int:
        """Parity of the 1-based basis index ``i``: 0 for even, 1 for odd."""
        if not 1 <= i <= self.dim:
            raise DimensionError(f"basis index {i} outside 1..{self.dim}")
        return 0 if i <= self.p else 1

    def indices(self) -> range:
        return range(1, self.dim + 1)

    def even_indices(self) -> range:
        return range(1, self.p + 1)

    def odd_indices(self) -> range:
        return range(self.p + 1, self.dim + 1)

    def __str__(self):
        return f"{self.p}|{self.q}"


def pi_reverse(space: SuperSpace) -> SuperSpace:
    """The parity-reversed format: even and odd dimensions trade places."""
    return SuperSpace(space.q, space.p)


def dual_space(space: SuperSpace) -> SuperSpace:
    """Format of the dual: even part dualizes to even, odd to odd.

    The pairing convention is ``e^j(e_i) == delta_i^j`` with ``p(e^j) == p(e_j)``.
    """
    return SuperSpace(space.p, space.q)


def braid_swap(
    v: SuperSpace, w: SuperSpace, tensor: Mapping[tuple[int, int], Fraction]
) -> dict[tuple[int, int], Fraction]:
    """Apply the commutativity isomorphism V (x) W -> W (x) V to tensor coefficients.

    An entry at ``(i, j)`` moves to ``(j, i)`` with sign ``(-1)**(p(v_i)*p(w_j))``.
    Applying the braid twice returns the original tensor.
    """
    out: dict[tuple[int, int], Fraction] = {}
    for (i, j), coeff in tensor.items():
        sign = -1 if v.parity(i) and w.parity(j) else 1
        out[(j, i)] = sign * Fraction(coeff)
    return out


@dataclass(frozen=True)
class SuperVector:
    space: SuperSpace
    coords: tuple[Fraction, ...]

    def __post_init__(self):
        coords = tuple(Fraction(c) for c in self.coords)
        if len(coords) != self.space.dim:
            raise DimensionError(f"expected {self.space.dim} coordinates, got {len(coords)}")
        object.__setattr__(self, "coords", coords)

    @classmethod
    def zero(cls, space: SuperSpace) -> "SuperVector":
        return cls(space, (Fraction(0),) * space.dim)

    @classmethod
    def basis(cls, space: SuperSpace, i: int) -> "SuperVector":
        return cls(space, tuple(Fraction(int(j == i)) for j in space.indices()))

    def __add__(self, other: "SuperVector") -> "SuperVector":
        if self.space != other.space:
            raise DimensionError("mismatched spaces")
        return SuperVector(self.space, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __rmul__(self, r) -> "SuperVector":
        r = Fraction(r)
        return SuperVector(self.space, tuple(r * c for c in self.coords))


class MultilinearMap(Value):
    """An even rational multilinear map between super vector spaces.

    ``coeffs`` maps ``(input_indices, output_index)`` to the coefficient of the
    output basis vector in the image of the input basis tuple; it is a
    read-only view, so the value cannot be changed through it.  Evenness means
    an entry may only be nonzero when the input parities sum to the output
    parity mod 2; this is validated at construction.  The slot ``_trie`` caches
    the entry trie of ``points.lift_multilinear``.
    """

    __slots__ = ("domains", "codomain", "coeffs", "_trie")

    def __init__(
        self,
        domains: Sequence[SuperSpace],
        codomain: SuperSpace,
        coeffs: Mapping[tuple[tuple[int, ...], int], Fraction | int | str],
    ):
        domains = tuple(domains)
        clean: dict[tuple[tuple[int, ...], int], Fraction] = {}
        for (ins, out), coeff in coeffs.items():
            c = Fraction(coeff)
            if not c:
                continue
            ins = tuple(ins)
            if len(ins) != len(domains):
                raise DimensionError(f"entry {ins} has {len(ins)} inputs, expected {len(domains)}")
            parity = 0
            for space, i in zip(domains, ins):
                parity ^= space.parity(i)
            if parity != codomain.parity(out):
                raise ParityError(f"entry {(ins, out)} violates evenness")
            clean[(ins, out)] = c
        self._fill(domains, codomain, MappingProxyType(clean))

    @classmethod
    def identity(cls, space: SuperSpace) -> "MultilinearMap":
        return cls(
            (space,), space, {((i,), i): Fraction(1) for i in space.indices()}
        )

    @classmethod
    def zero(cls, domains: Sequence[SuperSpace], codomain: SuperSpace) -> "MultilinearMap":
        return cls(domains, codomain, {})

    @property
    def arity(self) -> int:
        return len(self.domains)

    def entry(self, ins: Sequence[int], out: int) -> Fraction:
        return self.coeffs.get((tuple(ins), out), Fraction(0))

    @property
    def _key(self):
        return self.domains, self.codomain, frozenset(self.coeffs.items())

    def __repr__(self):
        doms = " x ".join(str(d) for d in self.domains)
        return f"<MultilinearMap {doms} -> {self.codomain}, {len(self.coeffs)} entries>"


def apply_multilinear(f: MultilinearMap, vectors: Sequence[SuperVector]) -> SuperVector:
    """Evaluate on plain vectors (no Grassmann coefficients involved)."""
    if len(vectors) != f.arity:
        raise DimensionError(f"expected {f.arity} arguments, got {len(vectors)}")
    for v, space in zip(vectors, f.domains):
        if v.space != space:
            raise DimensionError("argument space mismatch")
    out = [Fraction(0)] * f.codomain.dim
    for (ins, c), coeff in f.coeffs.items():
        prod = coeff
        for v, i in zip(vectors, ins):
            prod *= v.coords[i - 1]
            if not prod:
                break
        if prod:
            out[c - 1] += prod
    return SuperVector(f.codomain, tuple(out))


def symmetrize_check(f: MultilinearMap) -> bool:
    """True iff ``f`` is invariant under adjacent argument swaps with braiding sign.

    For purely odd equal domains this is the alternating condition, so any
    entry with a repeated odd index forces the map to fail unless it is zero.
    """
    if not f.domains:
        return True
    space = f.domains[0]
    if any(d != space for d in f.domains):
        raise DimensionError("symmetry is only defined for equal domains")
    for (ins, out), coeff in f.coeffs.items():
        for l in range(len(ins) - 1):
            a, b = ins[l], ins[l + 1]
            swapped = ins[:l] + (b, a) + ins[l + 2 :]
            sign = -1 if space.parity(a) and space.parity(b) else 1
            if f.entry(swapped, out) != sign * coeff:
                return False
    return True
