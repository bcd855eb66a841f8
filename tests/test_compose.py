"""Composition is evaluation at ``f``'s coordinates: ``skeleton_compose`` against
``reference_compose``, the ``Superfunction`` arithmetic of ``tests/helpers.py``.

``skeleton_compose`` runs one walk of the substitution kernel on packed keys:
the odd mask in the low bits, then one exponent field per even variable.  The
tests compare values, hashes and the canonical form, widen the exponent fields
past 16 bits, give the kernel a packed right operand with more terms than the
submask walk would look up, and check that a degree-1 ``g`` needs no
superfunction arithmetic at all.
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superpoints import Skeleton, SuperSpace, skeleton, skeleton_compose
from superpoints.grassmann import _mul_into
from superpoints.poly import PolyCoeff

from helpers import random_polynomial_supermap, reference_compose

formats = st.builds(SuperSpace, st.integers(0, 3), st.integers(0, 3))


def polys(nvars, degree):
    monomials = [e for e in itertools.product(range(degree + 1), repeat=nvars) if sum(e) <= degree]
    coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    return st.dictionaries(st.sampled_from(monomials), coeffs, max_size=4).map(lambda t: PolyCoeff(nvars, t))


@st.composite
def skeletons(draw, domain, codomain, degree, even=None):
    """A skeleton ``domain -> codomain`` with polynomials of degree at most
    ``degree``; ``even``, if given, draws the even coordinates instead."""
    forms = [dict() for _ in range(domain.q + 1)]
    for k, table in enumerate(forms):
        outs = codomain.odd_indices() if k % 2 else codomain.even_indices()
        for odd_idx, c in itertools.product(itertools.combinations(range(1, domain.q + 1), k), outs):
            if k == 0 and even is not None:
                table[(odd_idx, c)] = draw(even)
            elif draw(st.booleans()):
                table[(odd_idx, c)] = draw(polys(domain.p, degree))
    return Skeleton(domain, codomain, forms)


def assert_same(got, want):
    """Equal values and hashes, in canonical form: nonzero ``Fraction`` coefficients."""
    assert got == want
    assert hash(got) == hash(want)
    assert (got.domain, got.codomain, got.dom_box) == (want.domain, want.codomain, want.dom_box)
    for coord in got.coords:
        assert (coord.p, coord.q) == (got.domain.p, got.domain.q)
        for mask, poly in coord.terms.items():
            assert poly.terms and not mask >> coord.q
            assert all(type(c) is Fraction and c for c in poly.terms.values())


class TestAgainstReference:
    @settings(max_examples=120, deadline=None)
    @given(formats, formats, formats, st.integers(0, 3), st.integers(0, 3), st.data())
    def test_random_composites(self, u, v, w, df, dg, data):
        f = data.draw(skeletons(u, v, df))
        g = data.draw(skeletons(v, w, dg))
        assert_same(skeleton_compose(g, f), reference_compose(g, f))

    @pytest.mark.parametrize("seed", range(6))
    def test_random_dense_composites(self, seed):
        # 50 triples U -> V -> W per seed, every slot filled with probability
        # 0.8, formats up to 3|3 with p = 0 and q = 0 among them, degrees up to 3
        rng = random.Random(seed)
        for _ in range(50):
            u, v, w = (SuperSpace(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(3))
            df, dg = rng.randint(0, 2), rng.randint(0, 3 - (u.p == 3 and v.p == 3))
            f = random_polynomial_supermap(rng, u, v, max_degree=df, density=0.8).skeleton()
            g = random_polynomial_supermap(rng, v, w, max_degree=dg, density=0.8).skeleton()
            assert_same(skeleton_compose(g, f), reference_compose(g, f))

    @settings(max_examples=40, deadline=None)
    @given(
        st.builds(SuperSpace, st.integers(1, 3), st.integers(0, 2)),
        st.builds(SuperSpace, st.integers(1, 2), st.integers(0, 2)),
        st.builds(SuperSpace, st.integers(1, 2), st.integers(0, 2)),
        st.integers(2**16, 2**16 + 9),
        st.data(),
    )
    def test_exponents_beyond_16_bits(self, u, v, w, power, data):
        # the even coordinates of f are one term c * x_b^e with e >= 1, so
        # x1^power of g pulls back to an exponent of at least 2**16
        def monomial(b, e, c):
            return PolyCoeff(u.p, {tuple(e if a == b else 0 for a in range(u.p)): c})

        even = st.builds(monomial, st.integers(0, u.p - 1), st.integers(1, 2), st.sampled_from([1, -1, 2, Fraction(1, 2)]))
        f = data.draw(skeletons(u, v, 2, even))
        g = data.draw(skeletons(v, w, 2))
        forms = g.forms
        forms[0][((), 1)] = forms[0].get(((), 1), PolyCoeff.zero(v.p)) + PolyCoeff.variable(v.p, 1) ** power
        g = Skeleton(v, w, forms)
        got = skeleton_compose(g, f)
        assert_same(got, reference_compose(g, f))
        assert max(max(e) for coord in got.coords for poly in coord.terms.values() for e in poly.terms) >= 2**16

    def test_power_70000_after_doubling(self):
        line = SuperSpace(1, 0)
        g = Skeleton(line, line, [{((), 1): PolyCoeff(1, {(70000,): 1})}])
        f = Skeleton(line, line, [{((), 1): PolyCoeff(1, {(1,): 2})}])
        got = skeleton_compose(g, f)
        assert got.coords[0].terms == {0: PolyCoeff(1, {(70000,): 2**70000})}
        assert_same(got, reference_compose(g, f))


class TestPackedRightOperand:
    """The submask walk looks up bare masks; a packed operand can have more terms
    than the complement of a left mask has submasks."""

    def test_compose_with_a_dense_even_coordinate(self):
        x = PolyCoeff.variable(1, 1)
        for q in (0, 1):
            space = SuperSpace(1, q)
            odd = [{((1,), 2): x + 2}] if q else []
            f = Skeleton(space, space, [{((), 1): 1 + x + x**2 + x**3}] + odd)
            g = Skeleton(space, space, [{((), 1): x**2 - 3 * x}] + odd)
            assert_same(skeleton_compose(g, f), reference_compose(g, f))

    def test_kernel_on_packed_keys(self):
        # on 0 odd generators every key is an exponent field; 1 + y + y^2 squared
        acc = {}
        _mul_into(acc, {0: 1, 1: 1, 2: 1}, {0: 1, 1: 1, 2: 1}, 0, bare=False)
        assert acc == {0: 1, 1: 2, 2: 3, 3: 2, 4: 1}
        # on 1 odd generator with 16-bit fields: (1 + t) * (1 + y + t*y)
        y = 1 << 1
        acc = {}
        _mul_into(acc, {0: 1, 1: 1}, {0: 1, y: 1, y + 1: 1}, 1, bare=False)
        assert acc == {0: 1, y: 1, y + 1: 2, 1: 1}


def _refuse(*args):
    raise AssertionError("superfunction arithmetic in a degree-1 composite")


class TestDegreeOne:
    def test_no_superfunction_arithmetic(self, monkeypatch):
        rng = random.Random(21)
        cases = []
        for _ in range(12):
            u, v, w = (SuperSpace(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(3))
            f = random_polynomial_supermap(rng, u, v, max_degree=2).skeleton()
            g = random_polynomial_supermap(rng, v, w, max_degree=1).skeleton()
            cases.append((g, f, reference_compose(g, f)))
        monkeypatch.setattr(skeleton, "poly_dot", _refuse)
        monkeypatch.setattr(skeleton, "superfunction_mul", _refuse)
        for g, f, want in cases:
            assert_same(skeleton_compose(g, f), want)
