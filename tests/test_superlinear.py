"""Formats, braiding, supersymmetry, and dual spaces."""

import itertools
import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from superpoints import (
    DimensionError,
    MultilinearMap,
    ParityError,
    SuperSpace,
    SuperVector,
    apply_multilinear,
    braid_swap,
    dual_space,
    pi_reverse,
    symmetrize_check,
)

spaces = st.builds(SuperSpace, st.integers(0, 4), st.integers(0, 4))


class TestFormats:
    def test_pi_reverse(self):
        assert pi_reverse(SuperSpace(2, 3)) == SuperSpace(3, 2)
        assert pi_reverse(SuperSpace(0, 1)) == SuperSpace(1, 0)

    @given(spaces)
    def test_pi_involutive(self, v):
        assert pi_reverse(pi_reverse(v)) == v

    def test_parity_convention(self):
        v = SuperSpace(2, 3)
        assert [v.parity(i) for i in v.indices()] == [0, 0, 1, 1, 1]

    def test_negative_dimension_rejected(self):
        with pytest.raises(DimensionError):
            SuperSpace(-1, 0)


class TestBraiding:
    def test_even_even_sign(self):
        v = SuperSpace(1, 0)
        out = braid_swap(v, v, {(1, 1): Fraction(1)})
        assert out == {(1, 1): 1}

    def test_odd_odd_sign(self):
        v = SuperSpace(0, 1)
        out = braid_swap(v, v, {(1, 1): Fraction(1)})
        assert out == {(1, 1): -1}

    def test_mixed_moves_entry(self):
        v = SuperSpace(1, 1)
        out = braid_swap(v, v, {(1, 2): Fraction(3)})
        assert out == {(2, 1): 3}

    def test_involution_on_random_tensor(self):
        rng = random.Random(2)
        v = SuperSpace(1, 1)
        w = SuperSpace(1, 1)
        tensor = {
            (i, j): Fraction(rng.randint(-3, 3))
            for i in v.indices()
            for j in w.indices()
        }
        tensor = {k: c for k, c in tensor.items() if c}
        assert braid_swap(w, v, braid_swap(v, w, tensor)) == tensor

    def test_hexagon_on_triples(self):
        # both routes from (1,2,3)-order to (3,2,1)-order agree entrywise
        v = SuperSpace(1, 1)

        def swap(pos, tensor):
            out = {}
            for key, coeff in tensor.items():
                i, j = key[pos], key[pos + 1]
                sign = -1 if v.parity(i) and v.parity(j) else 1
                new = list(key)
                new[pos], new[pos + 1] = j, i
                out[tuple(new)] = sign * coeff
            return out

        rng = random.Random(3)
        tensor = {
            key: Fraction(rng.randint(-2, 2))
            for key in itertools.product(v.indices(), repeat=3)
        }
        tensor = {k: c for k, c in tensor.items() if c}
        route_a = swap(0, swap(1, swap(0, tensor)))
        route_b = swap(1, swap(0, swap(1, tensor)))
        assert route_a == route_b


class TestMultilinearMap:
    def test_evenness_enforced(self):
        v = SuperSpace(1, 1)
        with pytest.raises(ParityError):
            MultilinearMap((v,), v, {((1,), 2): 1})

    def test_identity_applies(self):
        v = SuperSpace(2, 1)
        ident = MultilinearMap.identity(v)
        vec = SuperVector(v, (1, 2, 0))
        assert apply_multilinear(ident, (vec,)) == vec

    def test_apply_bilinear(self):
        v = SuperSpace(0, 2)
        w = SuperSpace(1, 0)
        # alternating form with value on (t1, t2)
        f = MultilinearMap((v, v), w, {((1, 2), 1): 1, ((2, 1), 1): -1})
        a = SuperVector(v, (1, 0))
        b = SuperVector(v, (0, 1))
        assert apply_multilinear(f, (a, b)).coords == (Fraction(1),)
        assert apply_multilinear(f, (b, a)).coords == (Fraction(-1),)
        assert apply_multilinear(f, (a, a)).coords == (Fraction(0),)


class TestSymmetrizeCheck:
    def test_alternating_odd_form_passes(self):
        v = SuperSpace(0, 2)
        w = SuperSpace(1, 0)
        f = MultilinearMap((v, v), w, {((1, 2), 1): 2, ((2, 1), 1): -2})
        assert symmetrize_check(f)

    def test_symmetric_even_form_passes(self):
        v = SuperSpace(2, 0)
        w = SuperSpace(1, 0)
        f = MultilinearMap(
            (v, v), w, {((1, 2), 1): 3, ((2, 1), 1): 3, ((1, 1), 1): 1}
        )
        assert symmetrize_check(f)

    def test_repeated_odd_index_fails(self):
        v = SuperSpace(0, 1)
        w = SuperSpace(1, 0)
        f = MultilinearMap((v, v), w, {((1, 1), 1): 1})
        assert not symmetrize_check(f)

    def test_supersymmetric_form_count_on_odd_space(self):
        # independent supersymmetric n-forms on a purely odd space: binomial(q, n)
        for q in range(0, 4):
            v = SuperSpace(0, q)
            for arity in range(1, 4):
                w = SuperSpace(1 if arity % 2 == 0 else 0, 0 if arity % 2 == 0 else 1)
                count = 0
                for subset in itertools.combinations(v.odd_indices(), arity):
                    coeffs = {}
                    base = {i: pos for pos, i in enumerate(subset)}
                    for perm in itertools.permutations(subset):
                        sign = _perm_sign(tuple(base[i] for i in perm))
                        coeffs[(perm, 1)] = sign
                    form = MultilinearMap((v,) * arity, w, coeffs)
                    assert symmetrize_check(form)
                    count += 1
                assert count == comb(q, arity)
                if arity > q:
                    assert count == 0


def _perm_sign(perm):
    sign = 1
    perm = list(perm)
    for i in range(len(perm)):
        while perm[i] != i:
            j = perm[i]
            perm[i], perm[j] = perm[j], perm[i]
            sign = -sign
    return sign


class TestDualSpace:
    def test_format_preserved(self):
        assert dual_space(SuperSpace(2, 3)) == SuperSpace(2, 3)
        assert dual_space(SuperSpace(0, 0)) == SuperSpace(0, 0)
