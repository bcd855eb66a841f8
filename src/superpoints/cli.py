"""Command-line front end: expression evaluation and JSON-driven core operations.

Exit codes: 0 on success, 1 on domain errors (dimension or parity mismatches,
singular bodies, rejected reconstructions, bad schemas), 2 on parse errors
(expression syntax and malformed JSON).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import jsonio
from .errors import (
    DimensionError,
    DomainError,
    NotInvertibleError,
    ParityError,
    ParseError,
    ReconstructionError,
    SchemaError,
)
from .grassmann import GrassmannElement, format_terms, gr_add, gr_inv, gr_mul
from .jsonio import _expect, _field, _int_list
from .parser import parse_element, parse_superfunction
from .points import (
    CandidateModule,
    LambdaPoint,
    N_MAX_DEFAULT,
    PointFamily,
    check_naturality,
    lift_multilinear,
    reconstruct_multilinear,
    superrep_check,
    vbar_module,
    vnil_module,
)
from .skeleton import cs_structure, skeleton_compose, skeleton_eval
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
    exactly how fixed-algebra artifacts enter).
    """
    domains = tuple(
        jsonio.space_from_json(d, f"{path}.domains[{i}]")
        for i, d in enumerate(_field(obj, path, "domains", list))
    )
    codomain = jsonio.space_from_json(_field(obj, path, "codomain", dict), f"{path}.codomain")
    n_max = _field(obj, path, "n_max", int, N_MAX_DEFAULT)
    compiled = []
    for i, output in enumerate(_field(obj, path, "outputs", list)):
        at = f"{path}.outputs[{i}]"
        c = _field(output, at, "out", int)
        if not 1 <= c <= codomain.dim:
            raise ValueError(f"output coordinate {c} outside 1..{codomain.dim}")
        for j, term in enumerate(_field(output, at, "terms", list, [])):
            term_at = f"{at}.terms[{j}]"
            coeff = jsonio.fraction_from_json(_field(term, term_at, "coeff", (str, int)))
            var_list = []
            for k, pair in enumerate(_field(term, term_at, "vars", list, [])):
                pair_at = f"{term_at}.vars[{k}]"
                if len(_int_list(_expect(pair, list, pair_at), pair_at)) != 2:
                    raise SchemaError(f"{pair_at}: expected a pair [argument, coordinate]")
                arg, coord = pair
                if not 1 <= arg <= len(domains):
                    raise ValueError(f"argument index {arg} outside 1..{len(domains)}")
                if not 1 <= coord <= domains[arg - 1].dim:
                    raise ValueError(f"coordinate index {coord} outside the format of argument {arg}")
                var_list.append((arg, coord))
            theta = tuple(_int_list(_field(term, term_at, "theta", list, []), f"{term_at}.theta"))
            compiled.append((c, coeff, var_list, theta))

    def component(n: int, args: tuple[LambdaPoint, ...]) -> LambdaPoint:
        coords = [GrassmannElement.zero(n) for _ in range(codomain.dim)]
        for c, coeff, var_list, theta in compiled:
            if theta and max(theta) > n:
                continue
            value = GrassmannElement.scalar(n, coeff)
            for arg, coord in var_list:
                value = gr_mul(value, args[arg - 1].coords[coord - 1])
                if value.is_zero():
                    break
            if theta and not value.is_zero():
                value = gr_mul(value, GrassmannElement.monomial(n, theta))
            coords[c - 1] = gr_add(coords[c - 1], value)
        return LambdaPoint(codomain, n, coords)

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


def _cmd_eval(args) -> int:
    text = _read_source(args.file) if args.file else args.expr
    if text is None:
        raise ValueError("an expression or --file is required")
    if args.p is not None or args.q is not None:
        value = parse_superfunction(text, args.p or 0, args.q or 0)
        if args.json:
            _emit(jsonio.superfunction_to_json(value))
        else:
            print(value)
    else:
        if args.n is None:
            raise ValueError("a context is required: -n for Grassmann mode or -p/-q for superfunctions")
        value = parse_element(text, args.n)
        if args.json:
            _emit(jsonio.element_to_json(value))
        else:
            print(value)
    return 0


def _cmd_inv(args) -> int:
    if args.n is None:
        raise ValueError("-n is required")
    text = _read_source(args.file) if args.file else args.expr
    if text is None:
        raise ValueError("an expression or --file is required")
    value = gr_inv(parse_element(text, args.n))
    if args.json:
        _emit(jsonio.element_to_json(value))
    else:
        print(value)
    return 0


def _cmd_strace(args) -> int:
    matrix = jsonio.matrix_from_json(_load_json(args.file))
    value = supertrace(matrix)
    if args.json:
        _emit(jsonio.element_to_json(value))
    else:
        print(value)
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


def _cmd_skel_eval(args) -> int:
    obj = _load_json(args.file)
    skel = jsonio.skeleton_from_json(_field(obj, "$", "skeleton", dict), "$.skeleton")
    point = jsonio.point_from_json(_field(obj, "$", "point", dict), "$.point")
    _emit(jsonio.point_to_json(skeleton_eval(skel, point)))
    return 0


def _cmd_skel_compose(args) -> int:
    obj = _load_json(args.file)
    g = jsonio.skeleton_from_json(_field(obj, "$", "g", dict), "$.g")
    f = jsonio.skeleton_from_json(_field(obj, "$", "f", dict), "$.f")
    _emit(jsonio.skeleton_to_json(skeleton_compose(g, f)))
    return 0


def _cmd_superrep_check(args) -> int:
    if args.builtin:
        if args.p is None or args.q is None:
            raise ValueError("--builtin requires -p and -q")
        space = SuperSpace(args.p, args.q)
        n_max = args.n if args.n is not None else N_MAX_DEFAULT
        builder = vbar_module if args.builtin == "vbar" else vnil_module
        candidate = builder(space, n_max)
    else:
        if not args.file:
            raise ValueError("a candidate file or --builtin is required")
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


_HANDLERS = {
    "eval": _cmd_eval,
    "inv": _cmd_inv,
    "strace": _cmd_strace,
    "minv": _cmd_minv,
    "lift": _cmd_lift,
    "reconstruct": _cmd_reconstruct,
    "check-nat": _cmd_check_nat,
    "skel-eval": _cmd_skel_eval,
    "skel-compose": _cmd_skel_compose,
    "superrep-check": _cmd_superrep_check,
    "cs-table": _cmd_cs_table,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="superpoints",
        description="Exact Grassmann-algebra and functor-of-points calculator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, expr=False, file_positional=False):
        p = sub.add_parser(name, help=help_text)
        if expr:
            p.add_argument("expr", nargs="?", help="inline expression")
            p.add_argument("--file", help="read the expression from a file, '-' for stdin")
        if file_positional:
            p.add_argument("file", help="JSON input file, '-' for stdin")
        p.add_argument("-n", type=int, default=None, help="Grassmann generator count")
        p.add_argument("-p", type=int, default=None, help="even dimension")
        p.add_argument("-q", type=int, default=None, help="odd dimension")
        p.add_argument("--json", action="store_true", help="emit JSON instead of canonical text")
        return p

    add("eval", "parse and print an expression", expr=True)
    add("inv", "invert a Grassmann expression", expr=True)
    add("strace", "supertrace of a JSON supermatrix", file_positional=True)
    add("minv", "invert a JSON supermatrix", file_positional=True)
    add("lift", "lift a multilinear map to points and evaluate", file_positional=True)
    add("reconstruct", "recover a multilinear map from a point family", file_positional=True)
    add("check-nat", "naturality report for a family against a morphism", file_positional=True)
    add("skel-eval", "evaluate a skeleton at a point", file_positional=True)
    add("skel-compose", "compose two skeletons", file_positional=True)
    rep = add("superrep-check", "test a candidate module for superrepresentability")
    rep.add_argument("file", nargs="?", help="candidate JSON file, '-' for stdin")
    rep.add_argument(
        "--builtin",
        choices=["vbar", "vnil"],
        help="use the point functor (or its nilpotent part) of the format -p/-q",
    )
    add("cs-table", "derived multiplication table on the format 1|1")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handler = _HANDLERS[args.command]
    try:
        return handler(args)
    except ParseError as exc:
        print(exc, file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"invalid JSON: {exc}", file=sys.stderr)
        return 2
    except (DimensionError, ParityError, NotInvertibleError, DomainError) as exc:
        print(exc, file=sys.stderr)
        return 1
    except ReconstructionError as exc:
        print(exc, file=sys.stderr)
        if exc.witness is not None:
            print(f"witness: {exc.witness!r}", file=sys.stderr)
        return 1
    except KeyError as exc:
        print(f"missing field: {exc}", file=sys.stderr)
        return 1
    except (ValueError, TypeError, OSError) as exc:
        print(exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
