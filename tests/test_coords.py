"""A skeleton is stored as its coordinate superfunctions; the forms are its exchange format.

The forms given to the constructor come back from ``forms`` less their zero
entries, and the JSON bytes are those of the input forms.  ``forms`` hands out
fresh dicts, so nothing a caller does to them reaches the skeleton.  A source
guard keeps the reversal sign at the boundary: the constructor, ``forms`` and
gate 1 of ``check_supersmooth``.
"""

import ast
import itertools
import random
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from superpoints import (
    Skeleton,
    SuperSpace,
    cs_structure,
    identity_skeleton,
    parse_superfunction,
    skeleton_eval,
    superfunction_eval,
)
from superpoints.jsonio import skeleton_to_json
from superpoints.poly import PolyCoeff
from superpoints.sampling import random_point

from helpers import PolynomialSupermap, random_polynomial_supermap

SKELETON_SOURCE = Path(__file__).resolve().parent.parent / "src" / "superpoints" / "skeleton.py"


def polys(nvars):
    """Polynomials with exponents up to 2, the zero polynomial among them."""
    monomials = list(itertools.product(range(3), repeat=nvars))
    coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    return st.dictionaries(st.sampled_from(monomials), coeffs, max_size=4).map(lambda t: PolyCoeff(nvars, t))


@st.composite
def skeleton_inputs(draw):
    """``(domain, codomain, forms)`` on formats up to 3|3, with zero entries."""
    domain = SuperSpace(draw(st.integers(0, 3)), draw(st.integers(0, 3)))
    codomain = SuperSpace(draw(st.integers(0, 3)), draw(st.integers(0, 3)))
    forms = [dict() for _ in range(domain.q + 1)]
    for k, table in enumerate(forms):
        outs = codomain.odd_indices() if k % 2 else codomain.even_indices()
        for odd_idx, c in itertools.product(itertools.combinations(range(1, domain.q + 1), k), outs):
            if draw(st.booleans()):
                table[(odd_idx, c)] = draw(st.just(PolyCoeff(domain.p, {})) | polys(domain.p))
    return domain, codomain, forms


class TestFormsRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(skeleton_inputs())
    def test_forms_and_json_are_the_input(self, data):
        domain, codomain, forms = data
        skel = Skeleton(domain, codomain, forms)
        nonzero = [{key: poly for key, poly in table.items() if poly} for table in forms]
        assert list(skel.forms) == nonzero
        assert skeleton_to_json(skel) == {
            "domain": {"p": domain.p, "q": domain.q},
            "codomain": {"p": codomain.p, "q": codomain.q},
            "dom_box": None,
            "maps": [
                {
                    "k": k,
                    "entries": [
                        {"odd_idx": list(odd_idx), "out": c, "poly": str(table[(odd_idx, c)])}
                        for odd_idx, c in sorted(table)
                    ],
                }
                for k, table in enumerate(nonzero)
            ],
        }
        assert Skeleton(domain, codomain, skel.forms) == skel


class TestFormsAreFresh:
    def test_clearing_the_forms_changes_nothing(self):
        rng = random.Random(5)
        skeletons = [identity_skeleton(SuperSpace(1, 1)), identity_skeleton(SuperSpace(2, 3))]
        skeletons += [random_polynomial_supermap(rng, SuperSpace(2, 2), SuperSpace(1, 2)).skeleton() for _ in range(3)]
        for skel in skeletons:
            twin = Skeleton(skel.domain, skel.codomain, skel.forms, skel.dom_box)
            x = random_point(rng, skel.domain, 3)
            before = (hash(skel), repr(skel), skeleton_eval(skel, x))
            for table in skel.forms:
                table.clear()
            assert skel == twin
            assert (hash(skel), repr(skel), skeleton_eval(skel, x)) == before
            assert skeleton_eval(skel, x) == skeleton_eval(twin, x)

    def test_clearing_multilinear_coefficients_changes_nothing(self):
        table = cs_structure()
        before = (hash(table), repr(table), dict(table.coeffs))
        for change in (lambda c: c.clear(), lambda c: c.__setitem__(((1, 1), 1), 5)):
            try:
                change(table.coeffs)
            except (AttributeError, TypeError):
                pass
        assert table == cs_structure()
        assert (hash(table), repr(table), dict(table.coeffs)) == before


class TestFormsAboveTheGeneratorCount:
    def test_eval_skips_forms_of_degree_above_n(self):
        """On 1|3, terms in two and three odd directions vanish over fewer generators."""
        domain, codomain = SuperSpace(1, 3), SuperSpace(1, 1)
        x1 = PolyCoeff.variable(1, 1)
        supermap = PolynomialSupermap(domain, codomain, {
            (0b000, 1): x1 ** 2 + 1,
            (0b011, 1): 3 * x1,
            (0b001, 2): PolyCoeff.const(1, 2),
            (0b111, 2): x1 - 5,
        })
        skel = supermap.skeleton()
        rng = random.Random(11)
        for n in range(5):
            for _ in range(3):
                x = random_point(rng, domain, n)
                assert skeleton_eval(skel, x) == supermap.substitute(x)

    def test_superfunction_eval_over_fewer_generators(self):
        f = parse_superfunction("x1^2*t1*t2*t3 + x1*t1*t2 - t3 + 7", 1, 3)
        rng = random.Random(12)
        for n in range(4):
            x = random_point(rng, SuperSpace(1, 3), n)
            even, odd = x.coords[0], x.coords[1:]
            expected = even * even * odd[0] * odd[1] * odd[2] + even * odd[0] * odd[1] - odd[2] + 7
            assert superfunction_eval(f, x) == expected


def _uses(name: str) -> set[str]:
    """The functions and methods of ``skeleton.py`` that read the name ``name``."""
    found: set[str] = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
            else:
                if isinstance(child, ast.Name) and child.id == name:
                    found.add(".".join(scope))
                visit(child, scope)

    visit(ast.parse(SKELETON_SOURCE.read_text()), [])
    return found


class TestReversalSignAtTheBoundary:
    def test_reversal_sign_only_where_forms_enter_or_leave(self):
        assert _uses("reversal_sign") == {"Skeleton.__init__", "Skeleton.forms", "_probe_forms"}
