"""Inverses in GL(p|q)(Lambda_n) and in Lambda_n, by recursion on the last generator.

``mat_inv`` and ``gr_inv`` are checked as group inverses (two-sided), as
natural transformations (base change along every ``standard_morphisms``
morphism commutes with inversion) and against the terminating geometric
series of ``helpers``, which runs on the public products and sums.  The
recursion itself takes no matrix product and no series: with those patched
to raise, both inverses still succeed.
"""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import superpoints.grassmann
import superpoints.supermatrix
from superpoints import (
    GrassmannElement,
    NotInvertibleError,
    SuperMatrix,
    SuperSpace,
    gr_inv,
    gr_mul,
    jsonio,
    mat_base_change,
    mat_inv,
    mat_mul,
    morphism_apply,
)
from superpoints.cli import main
from superpoints.sampling import standard_morphisms

from helpers import series_inverse, series_matrix_inverse

#: Terms per entry: a few, a dozen, or every monomial of the entry's parity.
DENSITIES = ("sparse", "medium", "dense")


def random_terms(rng, n, parity, density):
    """``{mask: coeff}`` over ``n`` generators, with masks of ``parity`` (any when None)."""
    masks = [m for m in range(1 << n) if parity is None or m.bit_count() % 2 == parity]
    if density == "dense":
        chosen = masks
    else:
        chosen = rng.sample(masks, min(len(masks), rng.randint(1, 3 if density == "sparse" else 12)))
    return {m: Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for m in chosen}


def invertible_matrix(p, q, n, density, seed):
    """A matrix of format ``p|q`` over ``n`` generators with a diagonally
    dominant, hence invertible, body."""
    rng = random.Random(seed)
    space = SuperSpace(p, q)
    d = space.dim
    rows = []
    for i in space.indices():
        row = []
        for j in space.indices():
            parity = space.parity(i) ^ space.parity(j)
            terms = random_terms(rng, n, parity, density)
            if not parity:
                terms[0] = Fraction(rng.choice((-1, 1)) * rng.randint(d + 1, d + 4)) if i == j else Fraction(rng.randint(-1, 1))
            row.append(GrassmannElement(n, terms))
        rows.append(row)
    return SuperMatrix(space, n, rows)


@st.composite
def invertible_matrices(draw, max_n=8):
    """``invertible_matrix`` of format ``0|q``, ``p|0`` or ``p|q`` over ``0..max_n`` generators."""
    shape = draw(st.sampled_from(("0|q", "p|0", "p|q")))
    p = 0 if shape == "0|q" else draw(st.integers(min_value=1, max_value=2))
    q = 0 if shape == "p|0" else draw(st.integers(min_value=1, max_value=2))
    n = draw(st.integers(min_value=0, max_value=max_n))
    return invertible_matrix(p, q, n, draw(st.sampled_from(DENSITIES)), draw(st.integers(min_value=0, max_value=2**32)))


@st.composite
def invertible_elements(draw, max_n=8):
    """An element with a nonzero body, even and odd terms mixed."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    terms = random_terms(rng, n, None, draw(st.sampled_from(DENSITIES)))
    terms[0] = Fraction(rng.choice((-1, 1)) * rng.randint(1, 7), rng.randint(1, 5))
    if n:
        terms[1 << rng.randrange(n)] = Fraction(rng.randint(1, 9))  # at least one odd term
    return GrassmannElement(n, terms)


def targets(n):
    """The morphisms of ``standard_morphisms`` from ``n`` generators to at most ``n``."""
    return [phi for m in range(n + 1) for phi in standard_morphisms(n, m)]


class TestMatrixInverse:
    @settings(max_examples=60, deadline=None)
    @given(invertible_matrices())
    def test_two_sided(self, a):
        inv = mat_inv(a)
        ident = SuperMatrix.identity(a.space, a.n)
        assert mat_mul(a, inv) == ident
        assert mat_mul(inv, a) == ident

    @settings(max_examples=25, deadline=None)
    @given(invertible_matrices(max_n=5))
    def test_natural_under_base_change(self, a):
        inv = mat_inv(a)
        for phi in targets(a.n):
            assert mat_base_change(phi, inv) == mat_inv(mat_base_change(phi, a)), phi

    @settings(max_examples=40, deadline=None)
    @given(invertible_matrices(max_n=7))
    def test_equals_the_series(self, a):
        got = mat_inv(a)
        want = series_matrix_inverse(a)
        assert got == want and repr(got) == repr(want)
        assert all(type(c) is Fraction for row in got.entries for e in row for c in e.terms.values())


    @pytest.mark.parametrize("p, q", [(0, 2), (2, 0), (2, 2)])
    def test_dense_at_eight_generators(self, p, q):
        a = invertible_matrix(p, q, 8, "dense", seed=p + 3 * q)
        inv = mat_inv(a)
        ident = SuperMatrix.identity(a.space, 8)
        assert mat_mul(a, inv) == ident and mat_mul(inv, a) == ident
        small = invertible_matrix(p, q, 6, "dense", seed=p + 3 * q)
        assert mat_inv(small) == series_matrix_inverse(small)


class TestElementInverse:
    @settings(max_examples=60, deadline=None)
    @given(invertible_elements(max_n=9))
    def test_two_sided(self, a):
        inv = gr_inv(a)
        one = GrassmannElement.one(a.n)
        assert gr_mul(a, inv) == one
        assert gr_mul(inv, a) == one

    @settings(max_examples=30, deadline=None)
    @given(invertible_elements(max_n=6))
    def test_natural_under_base_change(self, a):
        inv = gr_inv(a)
        for phi in targets(a.n):
            assert morphism_apply(phi, inv) == gr_inv(morphism_apply(phi, a)), phi

    @settings(max_examples=60, deadline=None)
    @given(invertible_elements(max_n=9))
    def test_equals_the_series(self, a):
        got = gr_inv(a)
        want = series_inverse(a)
        assert got == want and repr(got) == repr(want)
        assert all(type(c) is Fraction and c for c in got.terms.values())


    def test_dense_at_nine_generators(self):
        rng = random.Random(9)
        a = GrassmannElement(9, {**random_terms(rng, 9, None, "dense"), 0: Fraction(-2, 3)})
        inv = gr_inv(a)
        assert gr_mul(a, inv) == GrassmannElement.one(9) == gr_mul(inv, a)
        assert inv == series_inverse(a)


class TestNoProductsNoSeries:
    """The recursion runs on the integer kernel alone."""

    def test_without_mat_mul_and_nil_series(self, monkeypatch):
        rng = random.Random(4)
        matrix = invertible_matrix(2, 2, 4, "medium", seed=4)
        element = GrassmannElement(5, {**random_terms(rng, 5, None, "dense"), 0: Fraction(3, 2)})
        want_matrix, want_element = series_matrix_inverse(matrix), series_inverse(element)

        def refuse(*args, **kwargs):
            raise AssertionError("the inverse took a product or a series")

        monkeypatch.setattr(superpoints.supermatrix, "mat_mul", refuse)
        monkeypatch.setattr(superpoints.grassmann, "_nil_series", refuse)
        assert mat_inv(matrix) == want_matrix
        assert gr_inv(element) == want_element


class TestSingularBody:
    @pytest.mark.parametrize("p, q, rows", [
        (2, 1, [[1, 0, 0], [0, 0, 0], [0, 0, 1]]),
        (1, 2, [[1, 0, 0], [0, 1, 2], [0, 2, 4]]),
        (0, 1, [[0]]),
        (1, 0, [[0]]),
    ])
    def test_matrix_message(self, p, q, rows):
        for n in (0, 3):
            a = SuperMatrix.from_rational(SuperSpace(p, q), n, rows)
            with pytest.raises(NotInvertibleError) as info:
                mat_inv(a)
            assert str(info.value) == "not invertible: singular body block"

    def test_element_message(self):
        for a in (GrassmannElement.zero(0), GrassmannElement(3, {0b001: 1, 0b110: 2})):
            with pytest.raises(NotInvertibleError) as info:
                gr_inv(a)
            assert str(info.value) == "not invertible: zero body"

    def test_cli_minv_message(self, capsys, tmp_path):
        path = tmp_path / "singular.json"
        singular = SuperMatrix.from_rational(SuperSpace(1, 1), 2, [[0, 0], [0, 1]])
        path.write_text(json.dumps(jsonio.matrix_to_json(singular)))
        assert main(["minv", str(path)]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "not invertible: singular body block\n")
