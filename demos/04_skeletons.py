"""Skeletons: finitely many polynomial forms encode a supersmooth map.

Run with:  python3 demos/04_skeletons.py
"""

from fractions import Fraction

from superpoints import (
    GrassmannElement,
    LambdaPoint,
    PointFamily,
    Skeleton,
    SuperSpace,
    check_supersmooth,
    parse_superfunction,
    point_to_element,
    skeleton_compose,
    skeleton_eval,
    skeleton_to_superfunction,
    superfunction_eval,
    superfunction_to_skeleton,
)
from superpoints.grassmann import body, gr_scale
from superpoints.poly import PolyCoeff

x = PolyCoeff.variable(1, 1)

# A map of the purely even line given by f0(x) = x^2.  Evaluating at a point
# with a nilpotent part substitutes the point's coordinate into x^2, and the
# nilpotent part ends the expansion on its own:
# (t + a*t1*t2)^2 = t^2 + 2*t*a*t1*t2 exactly, since (t1*t2)^2 = 0.
line = SuperSpace(1, 0)
square = Skeleton(line, line, [{((), 1): x ** 2}])
pt = LambdaPoint(line, 2, [GrassmannElement(2, {0: 3, 0b11: 5})])
print("x^2 at 3 + 5*t1*t2:", skeleton_eval(square, pt).coords[0])
print()

# Superfunctions are expansions in the odd generators with polynomial
# coefficients; they correspond exactly to skeletons with target format 1|1.
F = parse_superfunction("x1 + x1^2*t1*t2 - t1", 1, 2)
skel = superfunction_to_skeleton(F)
print("superfunction:", F)
print("its skeleton forms:", [dict(t) for t in skel.forms])
print("round trip:", skeleton_to_superfunction(skel) == F)

# Evaluating the skeleton substitutes the point into the map's coordinate
# superfunction, so it agrees with substituting into the expansion directly.
dom = SuperSpace(1, 2)
pt2 = LambdaPoint(dom, 3, [
    GrassmannElement(3, {0: 2, 0b011: 1}),
    GrassmannElement(3, {0b001: 1}),
    GrassmannElement(3, {0b010: 1, 0b111: Fraction(1, 2)}),
])
print("skeleton evaluation:", point_to_element(skeleton_eval(skel, pt2)))
print("direct substitution:", superfunction_eval(F, pt2))
print()

# Composition is substitution too: the outer map's coordinate superfunctions
# are pulled back along the inner map.  The composite of (x, c(x) 2-form) with
# x^2 has body x^2 and 2-form coefficient 2*x*c(x) -- the chain rule emerges
# from substitution alone.
inner = Skeleton(SuperSpace(1, 2), line, [
    {((), 1): x},
    {},
    {((1, 2), 1): x},           # c(x) = x
])
composite = skeleton_compose(square, inner)
print("composite body:", composite.forms[0][((), 1)])
print("composite 2-form:", composite.forms[2][((1, 2), 1)])
print()

# Supersmoothness checking: a natural family is fixed by its value at one
# universal point per body, a point over fresh generators that maps onto every
# point with that body.  The checker compares the family there with the
# skeleton interpolated from probes, and checks naturality under base change.
# Scaling an odd coordinate by body(t) is natural, but at the universal point
# it drops the nilpotent part of t that the skeleton's x*xi keeps.
good = PointFamily((dom,), SuperSpace(1, 1),
                   lambda n, args: skeleton_eval(skel, args[0]))
print("lifted skeleton family:", check_supersmooth(good, max_degree=3, n_max=3).supersmooth)

fmt = SuperSpace(1, 1)


def body_scaled(n, args):
    t_coord, xi = args[0].coords
    return LambdaPoint(fmt, n, (t_coord, gr_scale(body(t_coord), xi)))


bad = PointFamily((fmt,), fmt, body_scaled)
verdict = check_supersmooth(bad, max_degree=3, n_max=3)
print("body-scaled family:", verdict.supersmooth)
print("first diagnostic:", verdict.diagnostics[0])
