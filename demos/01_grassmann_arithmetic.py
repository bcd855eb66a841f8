"""Tour of exact Grassmann arithmetic: signs, parity, souls, inversion, morphisms.

Run with:  python3 demos/01_grassmann_arithmetic.py
"""

from fractions import Fraction

from superpoints import (
    GrassmannElement,
    GrassmannMorphism,
    body,
    gr_inv,
    morphism_apply,
    morphism_compose,
    nil_part,
    parity_of,
)

# Elements of the algebra on n anticommuting generators t1..tn.  Products pick
# up a sign per swap needed to sort the generators, and repeated generators
# vanish.
t1 = GrassmannElement.theta(3, 1)
t2 = GrassmannElement.theta(3, 2)
t3 = GrassmannElement.theta(3, 3)

print("t1*t2       =", t1 * t2)
print("t2*t1       =", t2 * t1)          # one swap: minus sign
print("t2*t3*t1    =", t2 * t3 * t1)     # two swaps: plus sign
print("t1*t1       =", t1 * t1)          # squares vanish
print()

# Mixed elements multiply by bilinearity; everything stays an exact rational.
a = 1 + 2 * t1 + Fraction(1, 2) * (t2 * t3)
b = 3 - t1 * t2
print("a           =", a)
print("b           =", b)
print("a*b         =", a * b)
print()

# Parity: even monomials commute, odd ones anticommute, mixtures are neither.
print("parity(1 + t2*t3) =", parity_of(1 + t2 * t3).value)
print("parity(t1 + t1*t2*t3) =", parity_of(t1 + t1 * t2 * t3).value)
print("parity(1 + t1) =", parity_of(1 + t1).value)
print()

# Body and soul: the constant term and the nilpotent rest.  An element is
# invertible exactly when its body is nonzero.  The inverse starts from
# 1/body and adds the terms of one generator at a time: with c = c0 + c1*t_k
# and b = 1/c0 known, 1/c = b - b*c1*s(b)*t_k, where s negates odd terms.
c = 2 + t1 * t2 + 4 * (t1 * t3)
print("body(c)     =", body(c))
print("soul(c)     =", nil_part(c))
print("inv(c)      =", gr_inv(c))
print("c * inv(c)  =", c * gr_inv(c))
print()

# Morphisms between Grassmann algebras are fixed by odd images of the
# generators.  The map to the ground field (all images zero) extracts bodies;
# composition works like substitution.
phi = GrassmannMorphism(2, 3, [t1 + t2 * t3 * t1 + t3, t2])
print("phi(t1)     =", morphism_apply(phi, GrassmannElement.theta(2, 1)))
print("phi(t1*t2)  =", morphism_apply(phi, GrassmannElement.monomial(2, (1, 2))))

eps = GrassmannMorphism.terminal(3)
print("eps(a)      =", morphism_apply(eps, a))
print("eps . phi == eps:", morphism_compose(eps, phi) == GrassmannMorphism.terminal(2))
