"""Reference computations that share no code with the library.

Grassmann elements are plain dicts ``mask -> Fraction`` here (bit ``i-1`` of a
mask is the generator ``t_i``).  The sign of a product of two monomials is
found the slow, obvious way: write the merged index word and sort it by
adjacent swaps, counting the swaps.  Polynomial supermaps are evaluated by
plain substitution, with no derivatives or factorials.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb


def indices(mask: int) -> list[int]:
    return [i + 1 for i in range(mask.bit_length()) if mask >> i & 1]


def sort_sign(word: list[int]) -> int:
    """Sign of sorting a word of distinct indices by adjacent swaps."""
    word = list(word)
    swaps = 0
    for end in range(len(word) - 1, 0, -1):
        for i in range(end):
            if word[i] > word[i + 1]:
                word[i], word[i + 1] = word[i + 1], word[i]
                swaps += 1
    return -1 if swaps & 1 else 1


def product_sign(a: int, b: int) -> int:
    """Sign of the product of two disjoint monomials."""
    return sort_sign(indices(a) + indices(b))


def mul(a: dict, b: dict) -> dict:
    """Full product of two small elements."""
    out: dict[int, Fraction] = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            if ma & mb:
                continue
            out[ma | mb] = out.get(ma | mb, 0) + product_sign(ma, mb) * ca * cb
    return {m: c for m, c in out.items() if c}


def coefficient(a: dict, b: dict, target: int) -> Fraction:
    """Coefficient of the monomial ``target`` in ``a*b``, by convolution over
    the splittings of ``target`` into two disjoint monomials."""
    total = Fraction(0)
    sub = target
    while True:
        ca = a.get(sub)
        if ca:
            cb = b.get(target ^ sub)
            if cb:
                total += product_sign(sub, target ^ sub) * ca * cb
        if not sub:
            return total
        sub = (sub - 1) & target


def add(a: dict, b: dict, scale=1) -> dict:
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, 0) + scale * c
    return {m: c for m, c in out.items() if c}


def power(a: dict, k: int, n: int) -> dict:
    """``a**k`` by the binomial expansion ``sum_j C(k,j) b**(k-j) N**j`` of the
    scalar body ``b`` and the nilpotent part ``N`` (``N**(n+1) == 0``)."""
    b = Fraction(a.get(0, 0))
    nil = {m: c for m, c in a.items() if m}
    out: dict = {}
    nil_power = {0: Fraction(1)}
    for j in range(min(k, n) + 1):
        if j:
            nil_power = mul(nil_power, nil)
        if not nil_power:
            break
        scale = comb(k, j) * b ** (k - j)
        if scale:
            out = add(out, nil_power, scale)
    return out


# -- polynomial supermaps -------------------------------------------------------
#
# A polynomial supermap p|q -> codomain is a dict ``(I, c) -> poly`` where ``I``
# is an ascending tuple of odd directions, ``c`` a codomain index and ``poly``
# a dict ``exponent tuple -> Fraction`` in the even variables: the value at a
# point is ``sum poly(x_even) * x_odd[I1] * ... * x_odd[Ik]`` in coordinate c.


def poly_eval(poly: dict, evens: list[dict]) -> dict:
    out: dict = {}
    for exps, coeff in poly.items():
        term = {0: Fraction(coeff)}
        for x, e in zip(evens, exps):
            for _ in range(e):
                term = mul(term, x)
        out = add(out, term)
    return out


def substitute(supermap: dict, p: int, dim_out: int, coords: list[dict]) -> list[dict]:
    """Value of a polynomial supermap at a point given by its coordinate dicts."""
    evens, odds = coords[:p], coords[p:]
    out = [dict() for _ in range(dim_out)]
    for (odd_idx, c), poly in supermap.items():
        value = poly_eval(poly, evens)
        for i in odd_idx:
            value = mul(value, odds[i - 1])
        out[c - 1] = add(out[c - 1], value)
    return out


def reversal_sign(k: int) -> int:
    return -1 if (k * (k - 1) // 2) & 1 else 1


def apply_morphism(images: list[dict], a: dict) -> dict:
    """Base change: substitute the generator images into every monomial."""
    out: dict = {}
    for m, c in a.items():
        term = {0: Fraction(c)}
        for i in indices(m):
            term = mul(term, images[i - 1])
            if not term:
                break
        out = add(out, term)
    return out
