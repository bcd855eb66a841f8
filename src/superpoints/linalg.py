"""Small exact linear algebra over the rationals.

A sparse row is a dict ``{column key: coefficient}``; the keys of one call
must be mutually sortable, and their order is the column order.  Spans are
reduced by one function, ``row_space``.  It returns the reduced row echelon
basis of the span, which is unique: every row has coefficient 1 at its pivot (its
smallest key), and no other row has that key.  So two spans are equal exactly
when their ``row_space`` dicts are equal, and the rank is the dict's length.
``inverse`` works on the small dense body matrices of supermatrices (lists
of lists of Fractions).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Hashable, Iterable, Mapping

from .errors import NotInvertibleError

Matrix = list[list[Fraction]]


def row_space(rows: Iterable[Mapping[Hashable, Fraction]]) -> dict:
    """The reduced row echelon basis ``{pivot: row}`` of the span of ``rows``, by pivot."""
    echelon: dict = {}
    for given in rows:
        row = {key: value for key, value in given.items() if value}
        for pivot in [key for key in row if key in echelon]:
            # a basis row is zero at every other pivot, so this clears one key
            _subtract(row, row[pivot], echelon[pivot])
        if not row:
            continue
        pivot = min(row)
        inv = 1 / Fraction(row[pivot])
        row = {key: value * inv for key, value in row.items()}
        for other in echelon.values():
            if pivot in other:
                _subtract(other, other[pivot], row)
        echelon[pivot] = row
    return dict(sorted(echelon.items()))


def _subtract(target: dict, factor: Fraction, row: Mapping) -> None:
    """``target -= factor * row`` in place, dropping the keys that cancel."""
    for key, value in row.items():
        value = target.get(key, 0) - factor * value
        if value:
            target[key] = value
        else:
            del target[key]


def inverse(rows: Matrix) -> Matrix:
    """Inverse of a square matrix, read off the echelon of ``[A | I]``."""
    k = len(rows)
    augmented = [{**dict(enumerate(row)), k + i: Fraction(1)} for i, row in enumerate(rows)]
    echelon = row_space(augmented)
    if list(echelon) != list(range(k)):
        raise NotInvertibleError("matrix is singular over the rationals")
    return [[row.get(k + j, Fraction(0)) for j in range(k)] for row in echelon.values()]
