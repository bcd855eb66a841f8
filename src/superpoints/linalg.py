"""Small exact linear algebra helpers over the rationals.

Matrices are lists of lists of Fractions.  Everything here is Gaussian
elimination at desk scale; no pivoting heuristics are needed because the
arithmetic is exact.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import NotInvertibleError

Matrix = list[list[Fraction]]


def identity(k: int) -> Matrix:
    return [[Fraction(int(i == j)) for j in range(k)] for i in range(k)]


def rref(rows: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and the list of pivot columns."""
    m = [row[:] for row in rows]
    pivots: list[int] = []
    r = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                factor = m[i][c]
                m[i] = [x - factor * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def rank(rows: Matrix) -> int:
    if not rows:
        return 0
    return len(rref(rows)[1])


def det(rows: Matrix) -> Fraction:
    k = len(rows)
    m = [row[:] for row in rows]
    result = Fraction(1)
    for c in range(k):
        pivot = next((i for i in range(c, k) if m[i][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            result = -result
        result *= m[c][c]
        inv = 1 / m[c][c]
        for i in range(c + 1, k):
            if m[i][c]:
                factor = m[i][c] * inv
                m[i] = [x - factor * y for x, y in zip(m[i], m[c])]
    return result


def inverse(rows: Matrix) -> Matrix:
    k = len(rows)
    aug = [rows[i][:] + identity(k)[i] for i in range(k)]
    reduced, pivots = rref(aug)
    if pivots[:k] != list(range(k)):
        raise NotInvertibleError("matrix is singular over the rationals")
    return [row[k:] for row in reduced[:k]]


def kernel_basis(rows: Matrix, cols: int) -> list[list[Fraction]]:
    """Basis of the right kernel {x : rows @ x == 0} for a matrix with `cols` columns."""
    if not rows:
        return [[Fraction(int(i == j)) for i in range(cols)] for j in range(cols)]
    reduced, pivots = rref(rows)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for f in free:
        vec = [Fraction(0)] * cols
        vec[f] = Fraction(1)
        for r, c in enumerate(pivots):
            vec[c] = -reduced[r][f]
        basis.append(vec)
    return basis


def same_row_space(a: Matrix, b: Matrix) -> bool:
    ra = rank(a) if a else 0
    rb = rank(b) if b else 0
    return ra == rb == rank(a + b)
