"""Bit-exact JSON encoding and decoding for every serializable type.

Rationals travel as decimal-free strings ``"p"`` or ``"p/q"``; terms and
entries are emitted in a deterministic order so identical values always
serialize to identical bytes.  Decoders check the JSON type of every value
they read and raise ``SchemaError`` naming its JSON path; ``path`` is the
path of the value a decoder is given.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DimensionError, SchemaError
from .grassmann import (
    GrassmannElement,
    GrassmannMorphism,
    indices_of_mask,
    mask_of_indices,
    parse_rational,
)
from .parser import parse_poly
from .points import LambdaPoint, NaturalityReport, SuperrepVerdict
from .poly import PolyCoeff, format_poly
from .skeleton import Skeleton, Superfunction
from .superlinear import MultilinearMap, SuperSpace
from .supermatrix import SuperMatrix


_JSON_TYPES = {
    dict: "an object",
    list: "an array",
    str: "a string",
    int: "an integer",
    float: "a number",
    bool: "a boolean",
    type(None): "null",
}
_REQUIRED = object()


def _expect(value, kind, path: str, step: str | int | None = None):
    """``value`` if it has the JSON type ``kind`` (a type or a tuple of types).

    The value sits at ``path``, followed by the key or index ``step`` if one
    is given; the full path is only spelled out in the error.
    """
    if isinstance(value, kind) and not isinstance(value, bool):
        return value
    if step is not None:
        path = f"{path}[{step}]" if isinstance(step, int) else f"{path}.{step}"
    kinds = kind if isinstance(kind, tuple) else (kind,)
    expected = " or ".join(_JSON_TYPES[k] for k in kinds)
    raise SchemaError(f"{path}: expected {expected}, got {_JSON_TYPES.get(type(value), type(value).__name__)}")


def _field(obj, path: str, key: str, kind, default=_REQUIRED):
    """``obj[key]`` checked by ``_expect``, where ``obj`` is the object at ``path``."""
    _expect(obj, dict, path)
    if key not in obj:
        if default is _REQUIRED:
            raise SchemaError(f"{path}: missing field {key!r}")
        return default
    return _expect(obj[key], kind, path, key)


def _int_list(values: list, path: str) -> list[int]:
    """The array at ``path``, checked to hold integers only."""
    for i, value in enumerate(values):
        if type(value) is not int:
            _expect(value, int, path, i)
    return values


def fraction_to_str(value: Fraction) -> str:
    return str(value)


def fraction_from_json(value) -> Fraction:
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise ValueError(f"expected a rational string 'p' or 'p/q', got {value!r}")


# -- grassmann -------------------------------------------------------------------


def element_to_json(e: GrassmannElement) -> dict:
    return {
        "n": e.n,
        "terms": [
            {"idx": list(indices_of_mask(mask)), "coeff": fraction_to_str(e.terms[mask])}
            for mask in sorted(e.terms)
        ],
    }


def element_from_json(obj, path: str = "$") -> GrassmannElement:
    n = _field(obj, path, "n", int)
    terms = {}
    for i, item in enumerate(_field(obj, path, "terms", list, [])):
        at = f"{path}.terms[{i}]"
        idx = _int_list(_field(item, at, "idx", list), f"{at}.idx")
        if idx != sorted(set(idx)):
            raise ValueError(f"monomial indices must be strictly increasing, got {idx}")
        mask = mask_of_indices(idx)
        if mask in terms:
            raise ValueError(f"duplicate monomial {idx}")
        terms[mask] = fraction_from_json(_field(item, at, "coeff", (str, int)))
    return GrassmannElement(n, terms)


def morphism_to_json(phi: GrassmannMorphism) -> dict:
    return {
        "src": phi.src_n,
        "dst": phi.dst_m,
        "images": [element_to_json(img) for img in phi.images],
    }


def morphism_from_json(obj, path: str = "$") -> GrassmannMorphism:
    images = _field(obj, path, "images", list)
    return GrassmannMorphism(
        _field(obj, path, "src", int),
        _field(obj, path, "dst", int),
        [element_from_json(img, f"{path}.images[{i}]") for i, img in enumerate(images)],
    )


# -- superlinear -----------------------------------------------------------------


def space_to_json(space: SuperSpace) -> dict:
    return {"p": space.p, "q": space.q}


def space_from_json(obj, path: str = "$") -> SuperSpace:
    return SuperSpace(_field(obj, path, "p", int), _field(obj, path, "q", int))


def multilinear_to_json(f: MultilinearMap) -> dict:
    return {
        "domains": [space_to_json(d) for d in f.domains],
        "codomain": space_to_json(f.codomain),
        "entries": [
            {"in": list(ins), "out": out, "coeff": fraction_to_str(coeff)}
            for (ins, out), coeff in sorted(f.coeffs.items())
        ],
    }


def multilinear_from_json(obj, path: str = "$") -> MultilinearMap:
    coeffs = {}
    for i, item in enumerate(_field(obj, path, "entries", list, [])):
        at = f"{path}.entries[{i}]"
        ins = _int_list(_field(item, at, "in", list), f"{at}.in")
        key = (tuple(ins), _field(item, at, "out", int))
        if key in coeffs:
            raise ValueError(f"duplicate entry {item['in']} -> {item['out']}")
        coeffs[key] = fraction_from_json(_field(item, at, "coeff", (str, int)))
    domains = _field(obj, path, "domains", list)
    return MultilinearMap(
        [space_from_json(d, f"{path}.domains[{i}]") for i, d in enumerate(domains)],
        space_from_json(_field(obj, path, "codomain", dict), f"{path}.codomain"),
        coeffs,
    )


# -- points ----------------------------------------------------------------------


def point_to_json(x: LambdaPoint) -> dict:
    return {
        "space": space_to_json(x.space),
        "n": x.n,
        "coords": [element_to_json(c) for c in x.coords],
    }


def point_from_json(obj, path: str = "$") -> LambdaPoint:
    coords = _field(obj, path, "coords", list)
    return LambdaPoint(
        space_from_json(_field(obj, path, "space", dict), f"{path}.space"),
        _field(obj, path, "n", int),
        [element_from_json(c, f"{path}.coords[{i}]") for i, c in enumerate(coords)],
    )


def naturality_report_to_json(report: NaturalityReport) -> list:
    return [
        {
            "morphism": morphism_to_json(v.morphism),
            "sample": [point_to_json(x) for x in v.sample],
            "lhs": point_to_json(v.lhs),
            "rhs": point_to_json(v.rhs),
        }
        for v in report.violations
    ]


def superrep_verdict_to_json(verdict: SuperrepVerdict) -> dict:
    return {
        "superrepresentable": verdict.superrepresentable,
        "format": space_to_json(verdict.format) if verdict.format else None,
        "reasons": list(verdict.reasons),
    }


# -- supermatrix -----------------------------------------------------------------


def matrix_to_json(a: SuperMatrix) -> dict:
    return {
        "space": space_to_json(a.space),
        "n": a.n,
        "entries": [[element_to_json(e) for e in row] for row in a.entries],
    }


def matrix_from_json(obj, path: str = "$") -> SuperMatrix:
    rows = _field(obj, path, "entries", list)
    return SuperMatrix(
        space_from_json(_field(obj, path, "space", dict), f"{path}.space"),
        _field(obj, path, "n", int),
        [
            [
                element_from_json(e, f"{path}.entries[{i}][{j}]")
                for j, e in enumerate(_expect(row, list, f"{path}.entries[{i}]"))
            ]
            for i, row in enumerate(rows)
        ],
    )


# -- skeleton --------------------------------------------------------------------


def poly_to_json(poly: PolyCoeff) -> str:
    return format_poly(poly)


def poly_from_json(text, nvars: int) -> PolyCoeff:
    if not isinstance(text, str):
        raise ValueError(f"expected a polynomial string, got {text!r}")
    return parse_poly(text, nvars)


def skeleton_to_json(skel: Skeleton) -> dict:
    return {
        "domain": space_to_json(skel.domain),
        "codomain": space_to_json(skel.codomain),
        "dom_box": None
        if skel.dom_box is None
        else [[fraction_to_str(lo), fraction_to_str(hi)] for lo, hi in skel.dom_box],
        "maps": [
            {
                "k": k,
                "entries": [
                    {"odd_idx": list(odd_idx), "out": c, "poly": poly_to_json(poly)}
                    for (odd_idx, c), poly in sorted(table.items())
                ],
            }
            for k, table in enumerate(skel.forms)
        ],
    }


def skeleton_from_json(obj, path: str = "$") -> Skeleton:
    domain = space_from_json(_field(obj, path, "domain", dict), f"{path}.domain")
    codomain = space_from_json(_field(obj, path, "codomain", dict), f"{path}.codomain")
    box = _field(obj, path, "dom_box", (list, type(None)), None)
    dom_box = None
    if box is not None:
        dom_box = []
        for i, bounds in enumerate(box):
            at = f"{path}.dom_box[{i}]"
            if len(_expect(bounds, list, at)) != 2:
                raise SchemaError(f"{at}: expected an interval [lo, hi]")
            dom_box.append(tuple(fraction_from_json(_expect(b, (str, int), at)) for b in bounds))
    forms: list[dict] = [dict() for _ in range(domain.q + 1)]
    for t, table in enumerate(_field(obj, path, "maps", list, [])):
        at = f"{path}.maps[{t}]"
        k = _field(table, at, "k", int)
        if not 0 <= k <= domain.q:
            raise DimensionError(f"form degree {k} outside 0..{domain.q}")
        for e, item in enumerate(_field(table, at, "entries", list, [])):
            entry = f"{at}.entries[{e}]"
            odd_idx = _int_list(_field(item, entry, "odd_idx", list), f"{entry}.odd_idx")
            key = (tuple(odd_idx), _field(item, entry, "out", int))
            if key in forms[k]:
                raise ValueError(f"duplicate skeleton entry {item['odd_idx']} -> {item['out']}")
            forms[k][key] = poly_from_json(_field(item, entry, "poly", str), domain.p)
    return Skeleton(domain, codomain, forms, dom_box)


def superfunction_to_json(f: Superfunction) -> dict:
    return {
        "p": f.p,
        "q": f.q,
        "terms": [
            {"odd_idx": list(indices_of_mask(mask)), "poly": poly_to_json(poly)}
            for mask, poly in sorted(f.terms.items())
        ],
    }


def superfunction_from_json(obj, path: str = "$") -> Superfunction:
    p, q = _field(obj, path, "p", int), _field(obj, path, "q", int)
    terms = {}
    for i, item in enumerate(_field(obj, path, "terms", list, [])):
        at = f"{path}.terms[{i}]"
        odd_idx = _int_list(_field(item, at, "odd_idx", list), f"{at}.odd_idx")
        mask = mask_of_indices(odd_idx)
        if mask in terms:
            raise ValueError(f"duplicate superfunction term {item['odd_idx']}")
        terms[mask] = poly_from_json(_field(item, at, "poly", str), p)
    return Superfunction(p, q, terms)
