"""Supermatrices: parity blocks, supertrace (two routes), series inversion."""

import random
from fractions import Fraction

import pytest

from superpoints import (
    DimensionError,
    GrassmannElement,
    NotInvertibleError,
    ParityError,
    SuperMatrix,
    SuperSpace,
    body_matrix,
    gl_group_check,
    is_invertible,
    mat_add,
    mat_base_change,
    mat_inv,
    mat_mul,
    supertrace,
    supertrace_via_braiding,
)
from superpoints import linalg
from superpoints.sampling import (
    random_invertible_matrix,
    random_matrix,
    standard_morphisms,
)


def theta(n, *indices):
    return GrassmannElement.monomial(n, indices)


class TestConstruction:
    def test_parity_blocks_enforced(self):
        v = SuperSpace(1, 1)
        with pytest.raises(ParityError):
            SuperMatrix(v, 1, [[GrassmannElement.one(1), GrassmannElement.one(1)],
                               [GrassmannElement.zero(1), GrassmannElement.one(1)]])

    def test_generator_count_out_of_range_rejected(self):
        # a matrix on 0|0 has no entry that would carry the count
        with pytest.raises(DimensionError, match="generator count must be in 0..64, got -1"):
            SuperMatrix(SuperSpace(0, 0), -1, [])

    def test_ground_field_matrices_are_block_diagonal(self):
        # over the ground field no nonzero odd entries exist at all
        v = SuperSpace(1, 1)
        m = SuperMatrix.identity(v, 0)
        assert m.entries[0][1].is_zero() and m.entries[1][0].is_zero()


class TestAlgebra:
    def test_identity_neutral(self):
        rng = random.Random(1)
        v = SuperSpace(1, 1)
        for _ in range(10):
            a = random_matrix(rng, v, 2)
            ident = SuperMatrix.identity(v, 2)
            assert mat_mul(ident, a) == a == mat_mul(a, ident)

    def test_product_keeps_parity_blocks(self):
        rng = random.Random(2)
        v = SuperSpace(2, 1)
        for _ in range(15):
            a = random_matrix(rng, v, 2)
            b = random_matrix(rng, v, 2)
            mat_mul(a, b)  # constructor validates the parity invariant

    def test_associative(self):
        rng = random.Random(3)
        v = SuperSpace(1, 1)
        for _ in range(10):
            a = random_matrix(rng, v, 3)
            b = random_matrix(rng, v, 3)
            c = random_matrix(rng, v, 3)
            assert mat_mul(mat_mul(a, b), c) == mat_mul(a, mat_mul(b, c))


class TestSupertrace:
    def test_identity_value(self):
        for p in range(4):
            for q in range(4):
                if p + q == 0:
                    continue
                m = SuperMatrix.identity(SuperSpace(p, q), 0)
                assert supertrace(m) == GrassmannElement.scalar(0, p - q)

    def test_zero_matrix(self):
        assert supertrace(SuperMatrix.zero(SuperSpace(2, 2), 1)).is_zero()

    def test_braiding_route_on_identity(self):
        m = SuperMatrix.identity(SuperSpace(1, 1), 0)
        assert supertrace_via_braiding(m) == 0

    def test_braiding_route_on_rank_one(self):
        v = SuperSpace(1, 1)
        m = SuperMatrix(v, 0, [[GrassmannElement.one(0), GrassmannElement.zero(0)],
                               [GrassmannElement.zero(0), GrassmannElement.zero(0)]])
        assert supertrace_via_braiding(m) == 1

    def test_braiding_agrees_with_formula(self):
        rng = random.Random(4)
        from superpoints.grassmann import body

        for p in range(4):
            for q in range(4):
                if p + q == 0:
                    continue
                v = SuperSpace(p, q)
                for _ in range(50):
                    m = random_matrix(rng, v, 0)
                    assert supertrace_via_braiding(m) == body(supertrace(m))

    def test_vanishes_on_commutators(self):
        rng = random.Random(5)
        for p in range(1, 4):
            for q in range(1, 4):
                v = SuperSpace(p, q)
                for n in range(4):
                    a = random_matrix(rng, v, n)
                    b = random_matrix(rng, v, n)
                    commutator = mat_add(mat_mul(a, b), _neg(mat_mul(b, a)))
                    assert supertrace(commutator).is_zero()

    def test_cyclic(self):
        rng = random.Random(6)
        v = SuperSpace(2, 2)
        for n in range(4):
            for _ in range(10):
                a = random_matrix(rng, v, n)
                b = random_matrix(rng, v, n)
                assert supertrace(mat_mul(a, b)) == supertrace(mat_mul(b, a))


def _neg(m):
    from superpoints.supermatrix import mat_scale

    return mat_scale(-1, m)


class TestInversion:
    def test_diagonal_example(self):
        v = SuperSpace(1, 1)
        m = SuperMatrix.from_rational(v, 0, [[2, 0], [0, 3]])
        assert mat_inv(m) == SuperMatrix.from_rational(
            v, 0, [[Fraction(1, 2), 0], [0, Fraction(1, 3)]]
        )

    def test_contract_example(self):
        v = SuperSpace(1, 1)
        one = GrassmannElement.one(2)
        m = SuperMatrix(v, 2, [
            [one + theta(2, 1, 2), theta(2, 1)],
            [theta(2, 2), one],
        ])
        inv = mat_inv(m)
        assert mat_mul(m, inv) == SuperMatrix.identity(v, 2)
        assert mat_mul(inv, m) == SuperMatrix.identity(v, 2)

    def test_unit_body_with_odd_offdiagonal(self):
        v = SuperSpace(1, 1)
        one = GrassmannElement.one(2)
        m = SuperMatrix(v, 2, [[one, theta(2, 1)], [theta(2, 1), one]])
        assert is_invertible(m)
        assert mat_mul(m, mat_inv(m)) == SuperMatrix.identity(v, 2)

    def test_invertibility_criteria(self):
        v = SuperSpace(2, 1)
        rows = [[1, 0, 0], [0, 0, 0], [0, 0, 1]]
        m = SuperMatrix.from_rational(v, 0, rows)
        assert not is_invertible(m)
        with pytest.raises(NotInvertibleError):
            mat_inv(m)

    def test_invertibility_matches_series_solvability(self):
        rng = random.Random(7)
        v = SuperSpace(1, 1)
        ident = SuperMatrix.identity(v, 2)
        for _ in range(30):
            m = random_matrix(rng, v, 2)
            if is_invertible(m):
                assert mat_mul(m, mat_inv(m)) == ident
            else:
                # the pushforward to the ground field is singular, so no
                # inverse can exist over the algebra either
                assert len(linalg.row_space(dict(enumerate(row)) for row in body_matrix(m))) < v.dim

    def test_two_sided_random(self):
        rng = random.Random(8)
        for p in range(3):
            for q in range(3):
                if p + q == 0:
                    continue
                v = SuperSpace(p, q)
                for n in range(4):
                    m = random_invertible_matrix(rng, v, n)
                    ident = SuperMatrix.identity(v, n)
                    inv = mat_inv(m)
                    assert mat_mul(m, inv) == ident
                    assert mat_mul(inv, m) == ident

    def test_commutes_with_base_change(self):
        rng = random.Random(9)
        v = SuperSpace(1, 1)
        for src in range(4):
            for dst in range(4):
                for phi in standard_morphisms(src, dst)[:4]:
                    m = random_invertible_matrix(rng, v, src)
                    pushed = mat_base_change(phi, m)
                    assert is_invertible(pushed)
                    assert mat_base_change(phi, mat_inv(m)) == mat_inv(pushed)


class TestGLCheck:
    def test_no_violations(self):
        report = gl_group_check(2, 1, 1, trials=30, seed=11)
        assert report.passed, report.violations

    def test_ground_field_case(self):
        report = gl_group_check(0, 2, 2, trials=20, seed=12)
        assert report.passed, report.violations

    @pytest.mark.parametrize("p, q", [(1, 1), (2, 1), (1, 2), (2, 2)])
    def test_seed_sweep(self, p, q):
        for n in range(4):
            for seed in range(20):
                report = gl_group_check(n, p, q, trials=3, seed=seed)
                assert report.trials == 3 and report.passed, (n, seed, report.violations)
