"""Supermatrices: the signed trace from the braiding, and exact inversion.

Run with:  python3 demos/03_supertrace_and_gl.py
"""

import random

from superpoints import (
    GrassmannElement,
    SuperMatrix,
    SuperSpace,
    gl_group_check,
    mat_inv,
    mat_mul,
    supertrace,
    supertrace_via_braiding,
)
from superpoints.sampling import random_matrix
from superpoints.supermatrix import mat_add, mat_scale

# A matrix over the algebra on n generators representing an endomorphism of
# the format p|q: diagonal blocks even, off-diagonal blocks odd.
V = SuperSpace(1, 1)
one = GrassmannElement.one(2)
t1 = GrassmannElement.theta(2, 1)
t2 = GrassmannElement.theta(2, 2)
t12 = GrassmannElement.monomial(2, (1, 2))

A = SuperMatrix(V, 2, [[one + t12, t1], [t2, one]])
print("A =", A)

# The supertrace subtracts the odd-odd diagonal.  On the identity of p|q it
# gives p - q; and it can be derived by decomposing into rank-one tensors,
# braiding, and pairing -- the sign IS the braiding sign.
ident23 = SuperMatrix.identity(SuperSpace(2, 3), 0)
print("supertrace of the identity on 2|3:", supertrace(ident23))
print("same through the braiding pipeline:", supertrace_via_braiding(ident23))

rng = random.Random(1)
m = random_matrix(rng, SuperSpace(2, 2), 0)
print("formula vs braiding on a random matrix:",
      supertrace(m), "vs", supertrace_via_braiding(m))

# The supertrace kills commutators (the matrices here are even as a whole, so
# the plain commutator is the supercommutator).
a = random_matrix(rng, V, 3)
b = random_matrix(rng, V, 3)
comm = mat_add(mat_mul(a, b), mat_scale(-1, mat_mul(b, a)))
print("supertrace of [a, b]:", supertrace(comm))
print()

# Inversion from the body up, one generator at a time: with A = A0 + A1*t_k
# and B = A0^-1 known, A^-1 = B - B*A1*s(B)*t_k, where s negates the odd
# terms.  After n steps the inverse is exact.
Ainv = mat_inv(A)
print("A^-1 =", Ainv)
print("A * A^-1 == I:", mat_mul(A, Ainv) == SuperMatrix.identity(V, 2))
print("A^-1 * A == I:", mat_mul(Ainv, A) == SuperMatrix.identity(V, 2))
print()

# Group sanity sweep: closure, associativity, units, inverses, and
# compatibility of multiplication with base change.
report = gl_group_check(n=2, p=1, q=1, trials=40, seed=7)
print(f"group check over 40 trials: {'all laws hold' if report.passed else report.violations}")
report0 = gl_group_check(n=0, p=2, q=2, trials=20, seed=8)
print(f"ground-field case (block-diagonal classical groups): "
      f"{'all laws hold' if report0.passed else report0.violations}")
