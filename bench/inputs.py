"""Seeded input generation and the benchmark's own JSON and text encoders.

Everything here works on plain data (dicts of Fractions), so the inputs do
not depend on the library under test; the workloads turn them into library
objects during set-up.
"""

from __future__ import annotations

import itertools
import json
import os
import random
from fractions import Fraction

from oracles import indices, reversal_sign


class Source(random.Random):
    """The workload's random source: the seeded values, plus ``shape``, a
    generator fixed per workload that picks which monomials, slots and
    entries are present (and, in ``dense-algebra``, the integer bodies).  Every seed thus gives inputs of the same shape and
    the same amount of work, with other coefficients."""

    def __init__(self, workload: str, seed: int):
        super().__init__(f"{workload}:{seed}")
        self.shape = random.Random(f"{workload}:shape")


def rational(rng: random.Random, max_num: int, max_den: int) -> Fraction:
    """A nonzero rational p/q with 1 <= |p| <= max_num and 1 <= q <= max_den."""
    num = rng.randint(1, max_num) * rng.choice((-1, 1))
    return Fraction(num, rng.randint(1, max_den))


def masks(n: int, parity: int | None = None, nilpotent: bool = False) -> list[int]:
    out = range(1, 1 << n) if nilpotent else range(1 << n)
    return [m for m in out if parity is None or m.bit_count() % 2 == parity]


def element(rng, n, parity=None, density=1.0, body=None, max_num=9, max_den=5) -> dict:
    """A random element on a random ``density`` share of the allowed
    monomials; ``body`` (if given) replaces the empty monomial's coefficient."""
    allowed = masks(n, parity)
    chosen = sorted(rng.shape.sample(allowed, round(density * len(allowed))))
    terms = {m: rational(rng, max_num, max_den) for m in chosen}
    if body is not None:
        terms[0] = Fraction(body)
    return terms


def sparse(rng, n, parity, count, nilpotent=False) -> dict:
    """``count`` distinct monomials of the given parity with coefficients
    ``±a/b``, ``a`` <= 4, ``b`` <= 3."""
    chosen = rng.shape.sample(masks(n, parity, nilpotent), count)
    return {m: rational(rng, 4, 3) for m in sorted(chosen)}


def poly(rng, nvars: int, degree: int) -> dict:
    """A random polynomial on every exponent tuple of total degree <= degree,
    with coefficients ``±a/b``, ``a`` <= 4, ``b`` <= 3."""
    exps = [e for e in itertools.product(range(degree + 1), repeat=nvars) if sum(e) <= degree]
    return {e: rational(rng, 4, 3) for e in exps}


def supermap(rng, p: int, q: int, codomain: tuple[int, int], degree: int) -> dict:
    """A random polynomial supermap ``p|q -> codomain`` (see ``oracles``):
    every (odd tuple, output) slot of matching parity, each a polynomial on
    every monomial up to ``degree``."""
    pc, qc = codomain
    slots = [
        (odd_idx, c)
        for k in range(q + 1)
        for odd_idx in itertools.combinations(range(1, q + 1), k)
        for c in range(1, pc + qc + 1)
        if (c > pc) == (k % 2 == 1)
    ]
    return {slot: poly(rng, p, degree) for slot in slots}


def point(rng, p: int, q: int, n: int, even_terms: int, odd_terms: int) -> list[dict]:
    """Coordinates of a point over ``n`` generators: each even one a nonzero
    body plus ``even_terms`` even nilpotent monomials, each odd one
    ``odd_terms`` odd monomials."""
    coords = []
    for _ in range(p):
        c = sparse(rng, n, 0, even_terms, nilpotent=True)
        c[0] = rational(rng, 3, 2)
        coords.append(c)
    for _ in range(q):
        coords.append(sparse(rng, n, 1, odd_terms))
    return coords


# -- library objects ------------------------------------------------------------


def to_element(lib, n: int, terms: dict):
    return lib.grassmann.GrassmannElement(n, terms)


def to_point(lib, p: int, q: int, n: int, coords: list[dict]):
    space = lib.superlinear.SuperSpace(p, q)
    return lib.points.LambdaPoint(space, n, [to_element(lib, n, c) for c in coords])


def to_skeleton(lib, p: int, q: int, codomain: tuple[int, int], sm: dict):
    """The skeleton of a polynomial supermap: the degree-k form is the
    reversal sign times the coefficient polynomial."""
    forms = [dict() for _ in range(q + 1)]
    for (odd_idx, c), pl in sm.items():
        k = len(odd_idx)
        forms[k][(odd_idx, c)] = lib.poly.PolyCoeff(p, {e: reversal_sign(k) * v for e, v in pl.items()})
    S = lib.superlinear.SuperSpace
    return lib.skeleton.Skeleton(S(p, q), S(*codomain), forms)


def skeleton_supermap(skel) -> dict:
    """Read a library skeleton back as a polynomial supermap."""
    out = {}
    for k, table in enumerate(skel.forms):
        for key, pl in table.items():
            out[key] = {e: reversal_sign(k) * v for e, v in pl.terms.items()}
    return out


# -- JSON and text encoders ------------------------------------------------------


def element_json(n: int, terms: dict) -> dict:
    return {
        "n": n,
        "terms": [{"idx": indices(m), "coeff": str(c)} for m, c in sorted(terms.items())],
    }


def space_json(p: int, q: int) -> dict:
    return {"p": p, "q": q}


def point_json(p: int, q: int, n: int, coords: list[dict]) -> dict:
    return {"space": space_json(p, q), "n": n, "coords": [element_json(n, c) for c in coords]}


def matrix_json(p: int, q: int, n: int, rows: list[list[dict]]) -> dict:
    return {"space": space_json(p, q), "n": n, "entries": [[element_json(n, e) for e in row] for row in rows]}


def poly_text(pl: dict) -> str:
    if not pl:
        return "0"
    parts = []
    for exps, c in sorted(pl.items()):
        factors = [f"x{i}^{e}" for i, e in enumerate(exps, start=1) if e]
        parts.append("*".join([f"({c})"] + factors))
    return " + ".join(parts)


def element_text(terms: dict) -> str:
    if not terms:
        return "0"
    return " + ".join(
        "*".join([f"({c})"] + [f"t{i}" for i in indices(m)]) for m, c in sorted(terms.items())
    )


def superfunction_text(p: int, terms: dict) -> str:
    """Text of ``sum poly_I * t_I`` for a dict ``odd mask -> poly``."""
    parts = []
    for m, pl in sorted(terms.items()):
        parts.append("*".join([f"({poly_text(pl)})"] + [f"t{i}" for i in indices(m)]))
    return " + ".join(parts) or "0"


def skeleton_json(p: int, q: int, codomain: tuple[int, int], sm: dict) -> dict:
    maps = []
    for k in range(q + 1):
        entries = [
            {"odd_idx": list(odd_idx), "out": c, "poly": poly_text({e: reversal_sign(k) * v for e, v in pl.items()})}
            for (odd_idx, c), pl in sorted(sm.items())
            if len(odd_idx) == k
        ]
        maps.append({"k": k, "entries": entries})
    return {"domain": space_json(p, q), "codomain": space_json(*codomain), "dom_box": None, "maps": maps}


def write_json(workdir: str, name: str, obj) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(obj, handle)
    return path


def write_text(workdir: str, name: str, text: str) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return path


# -- comparisons used by the checks ------------------------------------------------


def sampled_masks(rng, n: int, count: int) -> list[int]:
    """``count`` random masks plus the empty and the full monomial."""
    out = {0, (1 << n) - 1}
    out.update(rng.randrange(1 << n) for _ in range(count))
    return sorted(out)


def compare_coefficients(got: dict, want, masks_: list[int], label: str) -> str | None:
    """``want`` maps a mask to the expected coefficient."""
    for m in masks_:
        expected = want(m)
        if got.get(m, 0) != expected:
            return f"{label}: coefficient of {indices(m) or 'the unit'} is {got.get(m, 0)}, expected {expected}"
    return None


def compare_dicts(got: dict, want: dict, label: str) -> str | None:
    keys = set(got) | set(want)
    for m in sorted(keys):
        if got.get(m, 0) != want.get(m, 0):
            return f"{label}: coefficient of {indices(m) or 'the unit'} is {got.get(m, 0)}, expected {want.get(m, 0)}"
    return None
