"""Exact linear algebra: the reduced echelon basis and the body inverse."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superpoints import NotInvertibleError
from superpoints.linalg import inverse, row_space

entries = st.fractions(min_value=-9, max_value=9, max_denominator=5)


def matrices(max_rows=6, max_cols=6):
    return st.integers(1, max_cols).flatmap(
        lambda cols: st.lists(st.lists(entries, min_size=cols, max_size=cols), max_size=max_rows)
    )


def sparse(rows):
    return [{c: v for c, v in enumerate(row) if v} for row in rows]


def dense_rank(rows):
    """Rank by plain Gaussian elimination on dense Fraction rows."""
    m = [list(row) for row in rows]
    rank = 0
    for c in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for i in range(rank + 1, len(m)):
            factor = m[i][c] / m[rank][c]
            m[i] = [x - factor * y for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


def combine(rng, rows):
    """Rows replaced by an invertible combination of themselves: a random
    unipotent mix, then random nonzero scalings."""
    out = [dict(row) for row in rows]
    for i in range(len(out)):
        for j in range(len(out)):
            if i != j and rng.random() < 0.5:
                c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                for key, value in out[j].items():
                    out[i][key] = out[i].get(key, 0) + c * value
    scales = [rng.choice((-2, Fraction(1, 3), 5)) for _ in out]
    return [{k: v * s for k, v in row.items()} for row, s in zip(out, scales)]


class TestRowSpace:
    @settings(deadline=None, max_examples=30)
    @given(matrices(), st.integers(0, 2**32))
    def test_invariant_under_change_of_spanning_set(self, rows, seed):
        rng = random.Random(seed)
        echelon = row_space(sparse(rows))
        shuffled = sparse(rows)
        rng.shuffle(shuffled)
        assert row_space(shuffled) == echelon
        assert row_space(sparse(rows) + sparse(rows[:2]) + [{}, {0: Fraction(0)}]) == echelon
        assert row_space(combine(rng, sparse(rows))) == echelon

    @settings(deadline=None, max_examples=30)
    @given(matrices())
    def test_rank_and_reduced_echelon_shape(self, rows):
        echelon = row_space(sparse(rows))
        assert len(echelon) == dense_rank(rows)
        for pivot, row in echelon.items():
            assert min(row) == pivot and row[pivot] == 1
            assert all(v for v in row.values())
            assert all(pivot not in other for key, other in echelon.items() if key != pivot)
        assert list(echelon) == sorted(echelon)

    def test_tuple_keys_sort_mask_first(self):
        rows = [{(1, 2): Fraction(2), (0, 1): Fraction(1)}, {(0, 1): Fraction(1)}]
        assert row_space(rows) == {(0, 1): {(0, 1): 1}, (1, 2): {(1, 2): 1}}


class TestInverse:
    @settings(deadline=None, max_examples=30)
    @given(st.integers(1, 6).flatmap(lambda k: st.lists(st.lists(entries, min_size=k, max_size=k), min_size=k, max_size=k)))
    def test_inverse_or_singular(self, rows):
        k = len(rows)
        identity = [[Fraction(int(i == j)) for j in range(k)] for i in range(k)]
        if dense_rank(rows) < k:
            with pytest.raises(NotInvertibleError):
                inverse(rows)
            return
        inv = inverse(rows)
        product = [[sum(inv[i][m] * rows[m][j] for m in range(k)) for j in range(k)] for i in range(k)]
        assert product == identity

    def test_random_invertible_including_1x1(self):
        rng = random.Random(8)
        for k in (1, 1, 2, 3, 4, 6):
            # lower times upper unitriangular, scaled: invertible by construction
            low = [[Fraction(rng.randint(-4, 4), rng.randint(1, 5)) if j < i else Fraction(int(i == j)) for j in range(k)] for i in range(k)]
            up = [[Fraction(rng.randint(-4, 4), rng.randint(1, 5)) if j > i else Fraction(int(i == j)) for j in range(k)] for i in range(k)]
            a = [[sum(low[i][m] * up[m][j] for m in range(k)) * (i + 2) for j in range(k)] for i in range(k)]
            inv = inverse(a)
            for i in range(k):
                for j in range(k):
                    assert sum(inv[i][m] * a[m][j] for m in range(k)) == int(i == j)

    @pytest.mark.parametrize(
        "rows",
        [[[Fraction(0)]], [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]], [[Fraction(1), Fraction(0), Fraction(1)]] * 3],
    )
    def test_singular_raises(self, rows):
        with pytest.raises(NotInvertibleError):
            inverse(rows)
