"""Operations, CLI invocation and result corruption shared by the workloads."""

from __future__ import annotations

import contextlib
import dataclasses
import importlib
import io
import json
import re
import sys
from dataclasses import dataclass
from typing import Any, Callable

from tracing import LAYERS


@dataclass
class Op:
    """One top-level operation: a library call or one ``cli.main(argv)``.

    ``run`` gets the results of the earlier operations of the same round, by
    name.  ``check`` gets the result and those results and returns ``None``
    when the result is right, or a message saying what is wrong.
    """

    name: str
    run: Callable[[dict], Any]
    check: Callable[[Any, dict], str | None]
    cli: bool = False
    timed: str | None = None
    known_fault: str | None = None


@dataclass(frozen=True)
class Escaped:
    """An exception that left the operation."""

    kind: str
    message: str


@dataclass(frozen=True)
class Rejected:
    """An operation that raised the error it was expected to raise."""

    message: str


@dataclass(frozen=True)
class CliResult:
    code: int | None
    stdout: str
    stderr: str
    escaped: str | None


def execute(op: Op, out: dict):
    try:
        return op.run(out)
    except Exception as exc:  # the benchmark records every failure and goes on
        return Escaped(type(exc).__name__, str(exc))


def load_library():
    """Import the package afresh; returns (package, {layer: module})."""
    for name in [m for m in sys.modules if m == "superpoints" or m.startswith("superpoints.")]:
        del sys.modules[name]
    package = importlib.import_module("superpoints")
    modules = {layer: importlib.import_module(f"superpoints.{layer}") for layer in LAYERS}
    return package, modules


class Lib:
    """The freshly imported library: ``lib.grassmann``, ``lib.points``, ...

    Workloads look names up through it at call time, so that the tracer's
    wrappers are seen.
    """

    def __init__(self, package, modules, tracer=None):
        self.package = package
        self.tracer = tracer
        for layer, module in modules.items():
            setattr(self, layer, module)

    def cli_call(self, argv: list[str]) -> CliResult:
        stdout, stderr = io.StringIO(), io.StringIO()
        escaped = None
        code = None
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # an escape from main() is a finding, not a crash
                escaped = f"{type(exc).__name__}: {exc}"
        text = stdout.getvalue()
        tracer = self.tracer
        if tracer is not None and tracer.on:
            tracer.counts["cli.stdout_bytes"] += len(text.encode("utf-8"))
        return CliResult(code, text, stderr.getvalue(), escaped)


def cli_error_check(codes: tuple[int, ...]):
    """Check for a malformed input: a listed exit code, a message, no escape."""

    def check(res: CliResult, out) -> str | None:
        if res.escaped:
            return f"exception escaped main(): {res.escaped}"
        if res.code not in codes:
            return f"exit code {res.code}, expected one of {codes}"
        if not res.stderr.strip():
            return "no error message on stderr"
        return None

    return check


def cli_json(res: CliResult):
    """Decode the JSON stdout of a successful invocation, or raise ValueError."""
    if res.escaped:
        raise ValueError(f"exception escaped main(): {res.escaped}")
    if res.code != 0:
        raise ValueError(f"exit code {res.code}: {res.stderr.strip()[:200]}")
    return json.loads(res.stdout)


# -- corruption for the self-check ------------------------------------------------


def _flip_element(e):
    top = max(e.terms)
    terms = dict(e.terms)
    terms[top] = -terms[top]
    return type(e)(e.n, terms)


def _corrupt_json(obj):
    """Negate the first coefficient, polynomial or flag found; None if none."""
    if isinstance(obj, dict):
        for key in ("coeff", "poly"):
            if isinstance(obj.get(key), str):
                text = obj[key]
                if key == "coeff":
                    obj[key] = text[1:] if text.startswith("-") else "-" + text
                else:
                    obj[key] = f"-({text})"
                return obj
        for key, value in obj.items():
            if isinstance(value, bool):
                obj[key] = not value
                return obj
            if isinstance(value, (dict, list)) and _corrupt_json(value) is not None:
                return obj
    elif isinstance(obj, list):
        for value in obj:
            if isinstance(value, (dict, list)) and _corrupt_json(value) is not None:
                return obj
    return None


def corrupt(res):
    """A deliberately wrong copy of a result (one sign flipped), or None."""
    kind = type(res).__name__
    if kind == "GrassmannElement":
        return _flip_element(res) if res.terms else type(res).one(res.n)
    if kind == "LambdaPoint":
        coords = list(res.coords)
        i = next((i for i, c in enumerate(coords) if c.terms), 0)
        coords[i] = _flip_element(coords[i]) if coords[i].terms else coords[i] + 1
        return type(res)(res.space, res.n, coords)
    if kind == "SuperMatrix":
        rows = [list(r) for r in res.entries]
        i, j = next((i, j) for i, r in enumerate(rows) for j, e in enumerate(r) if e.terms)
        rows[i][j] = _flip_element(rows[i][j])
        return type(res)(res.space, res.n, rows)
    if kind == "MultilinearMap":
        coeffs = dict(res.coeffs)
        key = max(coeffs)
        coeffs[key] = -coeffs[key]
        return type(res)(res.domains, res.codomain, coeffs)
    if kind == "Skeleton":
        forms = [dict(t) for t in res.forms]
        k, key = next((k, key) for k, t in enumerate(forms) for key in sorted(t))
        forms[k][key] = -forms[k][key]
        return type(res)(res.domain, res.codomain, forms, res.dom_box)
    if kind == "Superfunction":
        terms = dict(res.terms)
        top = max(terms)
        terms[top] = -terms[top]
        return type(res)(res.p, res.q, terms)
    if kind == "GrassmannMorphism":
        images = list(res.images)
        i = next(i for i, img in enumerate(images) if img.terms)
        images[i] = _flip_element(images[i])
        return type(res)(res.src_n, res.dst_m, images)
    if kind == "SupersmoothVerdict":
        return dataclasses.replace(res, supersmooth=not res.supersmooth)
    if kind == "SuperrepVerdict":
        return dataclasses.replace(res, superrepresentable=not res.superrepresentable)
    if kind == "GLReport":
        return dataclasses.replace(res, trials=res.trials - 1)
    if isinstance(res, Rejected):
        return "accepted"
    if isinstance(res, CliResult):
        if res.escaped or res.code != 0:
            return CliResult(0, "", "", None)
        try:
            obj = json.loads(res.stdout)
        except json.JSONDecodeError:
            flipped = re.sub(r"= -1$", "= 1", res.stdout, count=1, flags=re.M)
            return None if flipped == res.stdout else dataclasses.replace(res, stdout=flipped)
        if obj == []:
            obj = [None]
        elif isinstance(obj, list) and all(isinstance(v, dict) for v in obj):
            obj = []
        elif _corrupt_json(obj) is None:
            return None
        return dataclasses.replace(res, stdout=json.dumps(obj))
    return None
