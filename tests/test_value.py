"""One construction path: values built without checks are the values the checks accept.

Internal results are built by ``_make`` and never pass the public
constructors.  Rebuilding each result through its public constructor, from
its own fields, must give an equal value with an equal hash; the coefficients
must already be nonzero ``Fraction``s.  A source guard keeps the immutable
core and the trusted construction in ``_value.py``.
"""

import re
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from superpoints import (
    GrassmannElement,
    GrassmannMorphism,
    LambdaPoint,
    MultilinearMap,
    Skeleton,
    SuperMatrix,
    SuperSpace,
    Superfunction,
    base_change,
    lift_multilinear,
    mat_inv,
    mat_mul,
    morphism_compose,
    parse_element,
    parse_poly,
    parse_superfunction,
    skeleton_compose,
    skeleton_eval,
)
from superpoints.poly import PolyCoeff
from superpoints.sampling import (
    random_element,
    random_invertible_matrix,
    random_matrix,
    random_morphism,
    random_multilinear,
    random_point,
)

from helpers import random_polynomial_supermap

SOURCES = Path(__file__).resolve().parent.parent / "src" / "superpoints"


def rebuild(v):
    """``v`` rebuilt through its public constructor from its own fields, parts first."""
    if isinstance(v, (GrassmannElement, PolyCoeff)):
        assert all(type(c) is Fraction and c for c in v.terms.values())
        return GrassmannElement(v.n, v.terms) if isinstance(v, GrassmannElement) else PolyCoeff(v.nvars, v.terms)
    if isinstance(v, Superfunction):
        return Superfunction(v.p, v.q, {mask: rebuild(poly) for mask, poly in v.terms.items()})
    if isinstance(v, GrassmannMorphism):
        return GrassmannMorphism(v.src_n, v.dst_m, [rebuild(img) for img in v.images])
    if isinstance(v, LambdaPoint):
        return LambdaPoint(v.space, v.n, [rebuild(c) for c in v.coords])
    if isinstance(v, SuperMatrix):
        return SuperMatrix(v.space, v.n, [[rebuild(e) for e in row] for row in v.entries])
    if isinstance(v, Skeleton):
        forms = [{key: rebuild(poly) for key, poly in table.items()} for table in v.forms]
        return Skeleton(v.domain, v.codomain, forms, v.dom_box)
    assert isinstance(v, MultilinearMap)
    return MultilinearMap(v.domains, v.codomain, v.coeffs)


def assert_canonical(v):
    public = rebuild(v)
    assert public == v and hash(public) == hash(v)


formats = st.tuples(st.integers(min_value=0, max_value=2), st.integers(min_value=0, max_value=2)).map(
    lambda pq: SuperSpace(*pq)
)


class TestTrustedResultsAreCanonical:
    @settings(max_examples=40, deadline=None)
    @given(st.randoms(use_true_random=False), formats, st.integers(min_value=0, max_value=3))
    def test_points_and_morphisms(self, rng, space, n):
        x = random_point(rng, space, n)
        phi = random_morphism(rng, n, rng.randint(0, 3))
        psi = random_morphism(rng, phi.dst_m, rng.randint(0, 3))
        assert_canonical(base_change(phi, x))
        assert_canonical(morphism_compose(psi, phi))
        domains = (space, SuperSpace(1, 1))
        f = random_multilinear(rng, domains, SuperSpace(1, 2))
        assert_canonical(lift_multilinear(f, [x, random_point(rng, domains[1], n)]))

    @settings(max_examples=30, deadline=None)
    @given(st.randoms(use_true_random=False), formats, st.integers(min_value=0, max_value=3))
    def test_matrices(self, rng, space, n):
        a = random_invertible_matrix(rng, space, n)
        assert_canonical(mat_mul(a, random_matrix(rng, space, n)))
        assert_canonical(mat_inv(a))

    @settings(max_examples=20, deadline=None)
    @given(st.randoms(use_true_random=False), formats, formats, st.integers(min_value=0, max_value=3))
    def test_skeletons(self, rng, u, v, n):
        f = random_polynomial_supermap(rng, u, v).skeleton()
        g = random_polynomial_supermap(rng, v, SuperSpace(1, 1)).skeleton()
        assert_canonical(skeleton_eval(f, random_point(rng, u, n)))
        assert_canonical(skeleton_compose(g, f))

    @settings(max_examples=40, deadline=None)
    @given(st.randoms(use_true_random=False), st.integers(min_value=0, max_value=3))
    def test_parsers(self, rng, n):
        a, b = (str(random_element(rng, n)) for _ in range(2))
        assert_canonical(parse_element(f"({a})*({b}) - ({b})^2 + 3/2", n))
        p, q = rng.randint(0, 2), rng.randint(0, 2)
        evens = ["1/2", "0", *(f"x{i}" for i in range(1, p + 1))]
        odds = [f"t{i}" for i in range(1, q + 1)]

        def text(atoms):
            return " + ".join(f"{rng.choice(atoms)}*{rng.choice(atoms)}^{rng.randint(0, 3)}" for _ in range(4))

        assert_canonical(parse_superfunction(f"({text(evens + odds)})^2 - 1", p, q))
        assert_canonical(parse_poly(f"({text(evens)})^2 - 1", p))


class TestOneConstructionPath:
    def test_only_the_value_core_sets_fields(self):
        for path in sorted(SOURCES.glob("*.py")):
            text = path.read_text()
            assert not re.search(r"^\s*def _trusted\b", text, re.M), path.name
            if path.name == "_value.py":
                continue
            setters = re.findall(r"object\.__setattr__|def __setattr__", text)
            if path.name == "superlinear.py":
                # the frozen dataclass SuperVector normalises its coordinates in __post_init__
                assert setters == ["object.__setattr__"]
                assert 'object.__setattr__(self, "coords", coords)' in text
            else:
                assert not setters, path.name
