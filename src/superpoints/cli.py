"""Command-line front end: expression evaluation and JSON-driven core operations.

Exit codes: 0 on success, 1 on domain errors (dimension or parity mismatches,
singular bodies, rejected reconstructions, bad schemas, inputs that exclude
each other, work beyond the bounds), 2 on usage errors (a missing argument or
one the subcommand does not take) and parse errors (expression syntax and
malformed JSON).
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Iterator
from math import comb, prod

from . import jsonio
from .errors import (
    DimensionError,
    ParseError,
    ReconstructionError,
    SchemaError,
)
from .grassmann import (
    MAX_GENERATORS,
    GrassmannElement,
    _elements,
    _numerators,
    _path,
    _product_trie,
    _sum_of_products,
    format_terms,
    gr_inv,
    mask_of_indices,
)
from .jsonio import _expect, _field, _int_list
from .parser import POWER_LIMIT, max_str_digits, parse_element, parse_superfunction, too_many_digits
from .points import (
    CandidateModule,
    LambdaPoint,
    N_MAX_DEFAULT,
    PointFamily,
    _offsets,
    check_naturality,
    lift_multilinear,
    reconstruct_multilinear,
    superrep_check,
    vbar_module,
    vnil_module,
)
from .poly import PolyCoeff
from .skeleton import _pullback_degree, cs_structure, skeleton_compose, skeleton_eval
from .superlinear import SuperSpace
from .supermatrix import mat_inv, supertrace


def _read_source(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _load_json(path: str):
    return json.loads(_read_source(path))


def _emit(obj):
    print(json.dumps(obj))


def family_from_json(obj, path: str = "$") -> PointFamily:
    """Build a point family from coordinate polynomial data.

    Each term contributes ``coeff * product(vars) * t_theta`` to one output
    coordinate, where ``vars`` is an ordered list of ``[argument, coordinate]``
    pairs multiplied left to right and ``theta`` is an optional fixed monomial
    of the ambient algebra (absent from algebras that are too small, which is
    exactly how fixed-algebra artifacts enter).  The terms are one sum of
    products for the kernel of ``lift_multilinear``: the path of a term is its
    ``vars`` and then its ``theta``, a constant factor that is zero over fewer
    than ``max(theta)`` generators.
    """
    domains = tuple(
        jsonio.space_from_json(d, f"{path}.domains[{i}]")
        for i, d in enumerate(_field(obj, path, "domains", list))
    )
    codomain = jsonio.space_from_json(_field(obj, path, "codomain", dict), f"{path}.codomain")
    n_max = _field(obj, path, "n_max", int, N_MAX_DEFAULT)
    offsets = _offsets(domains)
    base = sum(space.dim for space in domains)
    thetas: dict[int, int] = {}  # monomial mask -> factor key
    entries = []
    for i, output in enumerate(_field(obj, path, "outputs", list)):
        at = f"{path}.outputs[{i}]"
        c = _field(output, at, "out", int)
        if not 1 <= c <= codomain.dim:
            raise ValueError(f"output coordinate {c} outside 1..{codomain.dim}")
        for j, term in enumerate(_field(output, at, "terms", list, [])):
            term_at = f"{at}.terms[{j}]"
            coeff = jsonio.fraction_from_json(_field(term, term_at, "coeff", (str, int)))
            keys = []
            for k, pair in enumerate(_field(term, term_at, "vars", list, [])):
                pair_at = f"{term_at}.vars[{k}]"
                if len(_int_list(_expect(pair, list, pair_at), pair_at)) != 2:
                    raise SchemaError(f"{pair_at}: expected a pair [argument, coordinate]")
                arg, coord = pair
                if not 1 <= arg <= len(domains):
                    raise ValueError(f"argument index {arg} outside 1..{len(domains)}")
                if not 1 <= coord <= domains[arg - 1].dim:
                    raise ValueError(f"coordinate index {coord} outside the format of argument {arg}")
                keys.append(offsets[arg - 1] + coord)
            theta = tuple(_int_list(_field(term, term_at, "theta", list, []), f"{term_at}.theta"))
            if theta:
                if max(theta) > MAX_GENERATORS:
                    continue  # zero over every algebra
                keys.append(thetas.setdefault(mask_of_indices(theta), base + len(thetas)))
            entries.append((keys, c - 1, coeff))
    trie = _product_trie(entries)

    def component(n: int, args: tuple[LambdaPoint, ...]) -> LambdaPoint:
        for x, space in zip(args, domains):
            if x.space != space or x.n != n:
                raise DimensionError(f"argument {x.space} over {x.n} generators, expected {space} over {n}")
        den, factors = _numerators([c.terms for x in args for c in x.coords])
        factors += [{} if mask >> n else {mask: den} for mask in thetas]
        return LambdaPoint(codomain, n, _elements(n, _sum_of_products(n, trie, factors, den, codomain.dim)))

    return PointFamily(domains, codomain, component, n_max)


def candidate_from_json(obj, path: str = "$") -> CandidateModule:
    ambient = jsonio.space_from_json(_field(obj, path, "ambient", dict), f"{path}.ambient")
    n_max = _field(obj, path, "n_max", int)
    table = {}
    for key, points in _field(obj, path, "basis", dict).items():
        at = f"{path}.basis.{key}"
        if not key.isdecimal():
            raise SchemaError(f"{at}: a basis key is a generator count")
        table[int(key)] = [jsonio.point_from_json(x, f"{at}[{i}]") for i, x in enumerate(_expect(points, list, at))]
    for n in range(n_max + 1):
        if n not in table:
            raise ValueError(f"candidate module is missing a basis for n={n}")
    return CandidateModule(ambient, n_max, lambda n: table[n])


# -- subcommand handlers --------------------------------------------------------


def _show(value, as_json: bool) -> None:
    """Print a Grassmann element or a superfunction as canonical text or JSON.

    A coefficient with more digits than the interpreter converts to text is
    refused before anything is printed.
    """
    limit = max_str_digits()
    if limit:
        big = 10**limit
        coeffs = [c for v in value.terms.values() for c in (v.terms.values() if isinstance(v, PolyCoeff) else (v,))]
        if any(abs(c.numerator) >= big or c.denominator >= big for c in coeffs):
            raise ValueError(f"the result has a coefficient of more than {limit} digits, too long to print")
    if not as_json:
        print(value)
    elif isinstance(value, GrassmannElement):
        _emit(jsonio.element_to_json(value))
    else:
        _emit(jsonio.superfunction_to_json(value))


def _expression(args) -> str:
    """The expression of ``eval`` and ``inv``: inline, or read from ``--file``."""
    if args.file is not None and args.expr is not None:
        raise ValueError("an expression and --file exclude each other")
    text = _read_source(args.file) if args.file else args.expr
    if text is None:
        raise ValueError("an expression or --file is required")
    return text


def _cmd_eval(args) -> int:
    text = _expression(args)
    if args.p is not None or args.q is not None:
        if args.n is not None:
            raise ValueError("-n (Grassmann mode) and -p/-q (superfunctions) exclude each other")
        value = parse_superfunction(text, args.p or 0, args.q or 0)
    else:
        if args.n is None:
            raise ValueError("a context is required: -n for Grassmann mode or -p/-q for superfunctions")
        value = parse_element(text, args.n)
    _show(value, args.json)
    return 0


def _cmd_inv(args) -> int:
    if args.n is None:
        raise ValueError("-n is required")
    _show(gr_inv(parse_element(_expression(args), args.n)), args.json)
    return 0


def _cmd_strace(args) -> int:
    matrix = jsonio.matrix_from_json(_load_json(args.file))
    _show(supertrace(matrix), args.json)
    return 0


def _cmd_minv(args) -> int:
    matrix = jsonio.matrix_from_json(_load_json(args.file))
    _emit(jsonio.matrix_to_json(mat_inv(matrix)))
    return 0


def _cmd_lift(args) -> int:
    obj = _load_json(args.file)
    f = jsonio.multilinear_from_json(_field(obj, "$", "map", dict), "$.map")
    points = [jsonio.point_from_json(x, f"$.args[{i}]") for i, x in enumerate(_field(obj, "$", "args", list))]
    _emit(jsonio.point_to_json(lift_multilinear(f, points)))
    return 0


def _cmd_reconstruct(args) -> int:
    family = family_from_json(_load_json(args.file))
    if prod(space.dim for space in family.domains) > POWER_LIMIT:
        raise ValueError(f"reconstruction would probe more than {POWER_LIMIT} tuples of basis vectors")
    _emit(jsonio.multilinear_to_json(reconstruct_multilinear(family)))
    return 0


def _cmd_check_nat(args) -> int:
    obj = _load_json(args.file)
    family = family_from_json(_field(obj, "$", "family", dict), "$.family")
    phi = jsonio.morphism_from_json(_field(obj, "$", "morphism", dict), "$.morphism")
    samples = [
        tuple(
            jsonio.point_from_json(x, f"$.samples[{i}][{j}]")
            for j, x in enumerate(_expect(sample, list, f"$.samples[{i}]"))
        )
        for i, sample in enumerate(_field(obj, "$", "samples", list))
    ]
    report = check_naturality(family, phi, samples)
    _emit(jsonio.naturality_report_to_json(report))
    return 0


def _product_terms(n: int, factors) -> Iterator[int]:
    """Bounds on the terms of each prefix product of ``factors``, each the
    ``e``-th power of a Grassmann element over ``n`` generators with ``T``
    terms of degrees ``lo`` to ``hi``, given as ``(T, lo, hi, e)``.

    ``e`` factors of ``T`` terms multiply into at most ``C(T + e - 1, e)``
    terms, and a product whose monomial degrees run from ``lo`` to ``hi``, all
    of one parity, into at most the sum of ``C(n, d)`` over those degrees.
    """
    count = 1
    lo = hi = 0
    for terms, low, high, e in factors:
        count *= comb(terms + e - 1, e)
        lo += e * low
        hi += e * high
        yield count if count <= POWER_LIMIT else sum(comb(n, d) for d in range(lo, min(n, hi) + 1, 2))


def _cmd_skel_eval(args) -> int:
    obj = _load_json(args.file)
    skel = jsonio.skeleton_from_json(_field(obj, "$", "skeleton", dict), "$.skeleton")
    point = jsonio.point_from_json(_field(obj, "$", "point", dict), "$.point")
    if point.space == skel.domain:
        # skeleton_eval's walk multiplies, for each term x^e * t_J with |J| <= n,
        # the point's odd coordinates at J in ascending order and then the
        # powers x_a^e_a, each power computed from lower ones: every prefix
        # product is bounded, and every power x_a^j with j up to the greatest
        # exponent of x_a.  Past n such a power vanishes when x_a has no body,
        # and its bound grows with j when it has one.
        p, n = point.space.p, point.n
        shape = [(len(x.terms), min(map(int.bit_count, x.terms), default=0),
                  max(map(int.bit_count, x.terms), default=0)) for x in point.coords]
        terms = {(mask, e) for coord in skel.coords for mask, poly in coord.terms.items()
                 if mask.bit_count() <= n for e in poly.terms}
        paths = [[(*shape[p + b], 1) for b in _path(mask)] + [(*shape[a], k) for a, k in enumerate(e) if k]
                 for mask, e in terms]
        for a in range(p):
            top = max((e[a] for _, e in terms), default=0)
            paths += [[(*shape[a], j)] for j in {*range(1, min(top, n) + 1), top} if j]
        if any(bound > POWER_LIMIT for path in paths for bound in _product_terms(n, path)):
            raise ValueError(f"a power or odd product of the value would exceed {POWER_LIMIT} terms")
    _emit(jsonio.point_to_json(skeleton_eval(skel, point)))
    return 0


def _cmd_skel_compose(args) -> int:
    obj = _load_json(args.file)
    g = jsonio.skeleton_from_json(_field(obj, "$", "g", dict), "$.g")
    f = jsonio.skeleton_from_json(_field(obj, "$", "f", dict), "$.f")
    # the bounds of parser._check_power on the pullback: a term P * t_J of g
    # pulls back to sums of products of at most deg P + |J| of f's
    # coordinates, polynomials in f's p even variables of degree at most that
    # number times the largest degree of f
    factors, degree = _pullback_degree(g, f)
    p = f.domain.p
    if degree > POWER_LIMIT or comb(degree + p, p) > POWER_LIMIT:
        raise ValueError(f"the composite would exceed {POWER_LIMIT} in degree or terms")
    if any(too_many_digits(poly.terms, factors) for coord in f.coords for poly in coord.terms.values()):
        raise ValueError(f"the composite would exceed {POWER_LIMIT} digits")
    _emit(jsonio.skeleton_to_json(skeleton_compose(g, f)))
    return 0


def _cmd_superrep_check(args) -> int:
    if args.builtin:
        if args.file is not None:
            raise ValueError("a candidate file and --builtin exclude each other")
        if args.p is None or args.q is None:
            raise ValueError("--builtin requires -p and -q")
        space = SuperSpace(args.p, args.q)
        n_max = args.n if args.n is not None else N_MAX_DEFAULT
        if n_max >= 0 and space.dim * 2 ** min(n_max, POWER_LIMIT) > POWER_LIMIT:
            raise ValueError(f"{space} over {n_max} generators has more than {POWER_LIMIT} ambient rows")
        builder = vbar_module if args.builtin == "vbar" else vnil_module
        candidate = builder(space, n_max)
    else:
        if not args.file:
            raise ValueError("a candidate file or --builtin is required")
        if (args.n, args.p, args.q) != (None, None, None):
            raise ValueError("-n, -p and -q describe a --builtin candidate, not a candidate file")
        candidate = candidate_from_json(_load_json(args.file))
    _emit(jsonio.superrep_verdict_to_json(superrep_check(candidate)))
    return 0


def _cmd_cs_table(args) -> int:
    table = cs_structure()
    if args.json:
        _emit(jsonio.multilinear_to_json(table))
        return 0
    symbols = {1: "1", 2: "t"}
    monomials = {1: "", 2: "t"}
    for i in (1, 2):
        for j in (1, 2):
            terms = {c: coeff for c in (1, 2) if (coeff := table.entry((i, j), c))}
            print(f"m({symbols[i]},{symbols[j]}) = {format_terms(terms, monomials.get)}")
    return 0


#: What a subcommand may take, by the name ``_COMMANDS`` lists it under; a
#: trailing ``?`` marks an optional positional.
_ARGUMENTS = {
    "expr": {"nargs": "?", "help": "inline expression"},
    "--file": {"help": "read the expression from a file, '-' for stdin"},
    "file": {"help": "JSON input file, '-' for stdin"},
    "file?": {"nargs": "?", "help": "candidate JSON file, '-' for stdin"},
    "-n": {"type": int, "help": "Grassmann generator count"},
    "-p": {"type": int, "help": "even dimension"},
    "-q": {"type": int, "help": "odd dimension"},
    "--json": {"action": "store_true", "help": "emit JSON instead of canonical text"},
    "--builtin": {"choices": ["vbar", "vnil"],
                  "help": "use the point functor (or its nilpotent part) of the format -p/-q"},
}

#: Each subcommand: its handler, its help text and the arguments the handler reads.
_COMMANDS = {
    "eval": (_cmd_eval, "parse and print an expression", ("expr", "--file", "-n", "-p", "-q", "--json")),
    "inv": (_cmd_inv, "invert a Grassmann expression", ("expr", "--file", "-n", "--json")),
    "strace": (_cmd_strace, "supertrace of a JSON supermatrix", ("file", "--json")),
    "minv": (_cmd_minv, "invert a JSON supermatrix", ("file",)),
    "lift": (_cmd_lift, "lift a multilinear map to points and evaluate", ("file",)),
    "reconstruct": (_cmd_reconstruct, "recover a multilinear map from a point family", ("file",)),
    "check-nat": (_cmd_check_nat, "naturality report for a family against a morphism", ("file",)),
    "skel-eval": (_cmd_skel_eval, "evaluate a skeleton at a point", ("file",)),
    "skel-compose": (_cmd_skel_compose, "compose two skeletons", ("file",)),
    "superrep-check": (_cmd_superrep_check, "test a candidate module for superrepresentability",
                       ("file?", "--builtin", "-n", "-p", "-q")),
    "cs-table": (_cmd_cs_table, "derived multiplication table on the format 1|1", ("--json",)),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="superpoints",
        description="Exact Grassmann-algebra and functor-of-points calculator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, arguments) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        for argument in arguments:
            command.add_argument(argument.rstrip("?"), **_ARGUMENTS[argument])
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command][0](args)
    except ParseError as exc:
        print(exc, file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"invalid JSON: {exc}", file=sys.stderr)
        return 2
    except ReconstructionError as exc:
        print(exc, file=sys.stderr)
        if exc.witness is not None:
            print(f"witness: {exc.witness!r}", file=sys.stderr)
        return 1
    except KeyError as exc:
        print(f"missing field: {exc}", file=sys.stderr)
        return 1
    except (ValueError, ArithmeticError, TypeError, OSError) as exc:
        print(exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
