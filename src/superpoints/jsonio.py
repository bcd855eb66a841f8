"""Bit-exact JSON encoding and decoding for every serializable type.

Rationals travel as decimal-free strings ``"p"`` or ``"p/q"``; terms and
entries are emitted in a deterministic order so identical values always
serialize to identical bytes.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DimensionError
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


def element_from_json(obj) -> GrassmannElement:
    n = int(obj["n"])
    terms = {}
    for item in obj.get("terms", []):
        idx = item["idx"]
        if list(idx) != sorted(set(idx)):
            raise ValueError(f"monomial indices must be strictly increasing, got {idx}")
        mask = mask_of_indices(idx)
        if mask in terms:
            raise ValueError(f"duplicate monomial {idx}")
        terms[mask] = fraction_from_json(item["coeff"])
    return GrassmannElement(n, terms)


def morphism_to_json(phi: GrassmannMorphism) -> dict:
    return {
        "src": phi.src_n,
        "dst": phi.dst_m,
        "images": [element_to_json(img) for img in phi.images],
    }


def morphism_from_json(obj) -> GrassmannMorphism:
    return GrassmannMorphism(
        int(obj["src"]), int(obj["dst"]), [element_from_json(img) for img in obj["images"]]
    )


# -- superlinear -----------------------------------------------------------------


def space_to_json(space: SuperSpace) -> dict:
    return {"p": space.p, "q": space.q}


def space_from_json(obj) -> SuperSpace:
    return SuperSpace(int(obj["p"]), int(obj["q"]))


def multilinear_to_json(f: MultilinearMap) -> dict:
    return {
        "domains": [space_to_json(d) for d in f.domains],
        "codomain": space_to_json(f.codomain),
        "entries": [
            {"in": list(ins), "out": out, "coeff": fraction_to_str(coeff)}
            for (ins, out), coeff in sorted(f.coeffs.items())
        ],
    }


def multilinear_from_json(obj) -> MultilinearMap:
    coeffs = {}
    for item in obj.get("entries", []):
        key = (tuple(int(i) for i in item["in"]), int(item["out"]))
        if key in coeffs:
            raise ValueError(f"duplicate entry {item['in']} -> {item['out']}")
        coeffs[key] = fraction_from_json(item["coeff"])
    return MultilinearMap(
        [space_from_json(d) for d in obj["domains"]],
        space_from_json(obj["codomain"]),
        coeffs,
    )


# -- points ----------------------------------------------------------------------


def point_to_json(x: LambdaPoint) -> dict:
    return {
        "space": space_to_json(x.space),
        "n": x.n,
        "coords": [element_to_json(c) for c in x.coords],
    }


def point_from_json(obj) -> LambdaPoint:
    return LambdaPoint(
        space_from_json(obj["space"]),
        int(obj["n"]),
        [element_from_json(c) for c in obj["coords"]],
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


def matrix_from_json(obj) -> SuperMatrix:
    return SuperMatrix(
        space_from_json(obj["space"]),
        int(obj["n"]),
        [[element_from_json(e) for e in row] for row in obj["entries"]],
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


def skeleton_from_json(obj) -> Skeleton:
    domain = space_from_json(obj["domain"])
    codomain = space_from_json(obj["codomain"])
    box = obj.get("dom_box")
    dom_box = None
    if box is not None:
        dom_box = tuple((fraction_from_json(lo), fraction_from_json(hi)) for lo, hi in box)
    forms: list[dict] = [dict() for _ in range(domain.q + 1)]
    for table in obj.get("maps", []):
        k = int(table["k"])
        if not 0 <= k <= domain.q:
            raise DimensionError(f"form degree {k} outside 0..{domain.q}")
        for item in table.get("entries", []):
            key = (tuple(int(i) for i in item["odd_idx"]), int(item["out"]))
            if key in forms[k]:
                raise ValueError(f"duplicate skeleton entry {item['odd_idx']} -> {item['out']}")
            forms[k][key] = poly_from_json(item["poly"], domain.p)
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


def superfunction_from_json(obj) -> Superfunction:
    p, q = int(obj["p"]), int(obj["q"])
    terms = {}
    for item in obj.get("terms", []):
        mask = mask_of_indices(item["odd_idx"])
        if mask in terms:
            raise ValueError(f"duplicate superfunction term {item['odd_idx']}")
        terms[mask] = poly_from_json(item["poly"], p)
    return Superfunction(p, q, terms)
