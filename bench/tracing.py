"""Layer tracing from outside the library.

The library's modules bind each other's names with ``from .grassmann import
gr_mul``, so a wrapper installed on one module alone would miss most calls.
``Tracer.install`` wraps every public function of every layer, plus a few
private kernels and the constructors (``__init__``) of the layer classes, and
rebinds each wrapper under every module attribute that held the original.

Spans (name, start, end, parent, operation id) are kept in memory in flat
arrays and written out once, after the traced round.  Counts that need extra
work (monomial pairs, matrix cells, ...) are taken with the span clock paused,
so they do not show up in any span's time.
"""

from __future__ import annotations

import functools
import inspect
import json
from array import array
from collections import defaultdict
from enum import Enum
from time import perf_counter

LAYERS = (
    "grassmann", "poly", "superlinear", "points", "supermatrix", "skeleton",
    "linalg", "sampling", "parser", "jsonio", "cli",
)

# Private names that are the kernels of their layer.
PRIVATE_KERNELS = {"skeleton": ("_eval_engine", "_gd_mul")}

# Methods wrapped besides ``__init__`` and ``__call__``.
CLASS_METHODS = {"PolyCoeff": ("__mul__", "diff", "eval")}

# Public helpers called once per term or coordinate are left unwrapped: their
# time counts to the caller, and wrapping them would multiply the overhead.
HELPERS = {
    "grassmann.monomial_sign", "grassmann.indices_of_mask", "grassmann.mask_of_indices",
    "grassmann.parity_of", "grassmann.body", "points.reversal_sign",
    "jsonio.fraction_to_str", "jsonio.fraction_from_json", "sampling.random_rational",
}

PARSERS = ("parser.parse_element", "parser.parse_poly", "parser.parse_superfunction")


def disjoint_pairs(a, b, n: int) -> int:
    """Number of pairs (ma, mb) of monomials of a and b with ma & mb == 0."""
    if len(a) * len(b) <= n << n:
        return sum(1 for ma in a for mb in b if not ma & mb)
    # subset sums: below[s] = number of masks of b contained in s
    below = [0] * (1 << n)
    for mb in b:
        below[mb] += 1
    for i in range(n):
        bit = 1 << i
        for s in range(1 << n):
            if s & bit:
                below[s] += below[s ^ bit]
    full = (1 << n) - 1
    return sum(below[full ^ ma] for ma in a)


class Tracer:
    def __init__(self):
        self.on = False
        self.op_id = -1
        self.names: list[str] = []
        self.span_name = array("H")
        self.span_parent = array("l")
        self.span_op = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = []
        self.child_time: list[float] = []
        self.paused = 0.0
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.exclusive: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.open: dict[str, int] = defaultdict(int)

    # -- wrapping --------------------------------------------------------------

    def _wrap(self, name: str, fn, count=None):
        sid = len(self.names)
        self.names.append(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            stack = tracer.stack
            idx = len(tracer.span_start)
            tracer.span_name.append(sid)
            tracer.span_parent.append(stack[-1] if stack else -1)
            tracer.span_op.append(tracer.op_id)
            tracer.span_end.append(0.0)
            stack.append(idx)
            tracer.child_time.append(0.0)
            tracer.open[name] += 1
            tracer.span_start.append(perf_counter() - tracer.paused)
            result = None
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter() - tracer.paused
                stack.pop()
                tracer.open[name] -= 1
                tracer.span_end[idx] = end
                duration = end - tracer.span_start[idx]
                tracer.calls[name] += 1
                tracer.total[name] += duration
                tracer.exclusive[name] += duration - tracer.child_time.pop()
                if tracer.child_time:
                    tracer.child_time[-1] += duration
                if count is not None:
                    paused_at = perf_counter()
                    count(tracer.counts, args, result)
                    tracer.paused += perf_counter() - paused_at
            return result

        return wrapper

    def install(self, package, modules: dict) -> None:
        """Wrap the layers' callables and rebind them in every module."""
        replace: dict[int, object] = {}
        counters = self._counters()
        for layer in LAYERS:
            module = modules[layer]
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    name = f"{layer}.{attr}"
                    if name in HELPERS or attr.startswith("_") and attr not in PRIVATE_KERNELS.get(layer, ()):
                        continue
                    replace[id(obj)] = self._wrap(name, obj, counters.get(name))
                elif (
                    isinstance(obj, type)
                    and not attr.startswith("_")
                    and obj.__module__ == module.__name__
                    and not issubclass(obj, (Enum, BaseException))
                ):
                    for meth in ("__init__", "__call__") + CLASS_METHODS.get(attr, ()):
                        fn = obj.__dict__.get(meth)
                        if inspect.isfunction(fn):
                            name = f"{layer}.{attr}.{meth}"
                            setattr(obj, meth, self._wrap(name, fn, counters.get(name)))
        for module in [package, *modules.values()]:
            for attr, obj in list(vars(module).items()):
                wrapper = replace.get(id(obj))
                if wrapper is not None and wrapper is not obj:
                    setattr(module, attr, wrapper)

    def _counters(self) -> dict:
        # ``result`` is None when the call raised
        def gr_mul(counts, args, result):
            if result is None:
                return
            a, b = args[0], args[1]
            counts["grassmann.mul.pairs"] += len(a.terms) * len(b.terms)
            counts["grassmann.mul.useful"] += disjoint_pairs(a.terms, b.terms, a.n)

        def gd_mul(counts, args, result):
            counts["skeleton.gd_mul.pairs"] += len(args[0]) * len(args[1])

        def rref(counts, args, result):
            rows = args[0]
            counts["linalg.rref.cells"] += len(rows) * (len(rows[0]) if rows else 0)

        def parse(counts, args, result):
            counts["parser.chars_in"] += len(args[0])

        def morphisms(counts, args, result):
            counts["sampling.morphisms"] += len(result or ())

        def family_call(counts, args, result):
            if self.open["skeleton.check_supersmooth"]:
                counts["skeleton.check_supersmooth.family_evals"] += 1

        out = {
            "grassmann.gr_mul": gr_mul,
            "skeleton._gd_mul": gd_mul,
            "linalg.rref": rref,
            "sampling.standard_morphisms": morphisms,
            "points.PointFamily.__call__": family_call,
        }
        for name in PARSERS:
            out[name] = parse
        return out

    # -- results ---------------------------------------------------------------

    def layer_self(self, layer: str) -> float:
        prefix = layer + "."
        return sum((t for name, t in self.exclusive.items() if name.startswith(prefix)), 0.0)

    def calls_matching(self, predicate) -> int:
        return sum(c for name, c in self.calls.items() if predicate(name))

    def metrics(self, timed: dict[str, float]) -> dict[str, tuple[float, str]]:
        """Per-layer metrics of everything traced so far, as (value, unit)."""
        c, x, k = self.calls, self.exclusive, self.counts
        pairs = k["grassmann.mul.pairs"]
        m = {
            "grassmann.mul.calls": (c["grassmann.gr_mul"], "count"),
            "grassmann.mul.pairs": (pairs, "count"),
            "grassmann.mul.useful_ratio": (k["grassmann.mul.useful"] / pairs if pairs else 0.0, "ratio"),
            "grassmann.mul.self_s": (x["grassmann.gr_mul"], "s"),
            "grassmann.inv.calls": (c["grassmann.gr_inv"], "count"),
            "grassmann.inv.total_s": (self.total["grassmann.gr_inv"], "s"),
            "grassmann.element_new.calls": (c["grassmann.GrassmannElement.__init__"], "count"),
            "grassmann.element_new.self_s": (x["grassmann.GrassmannElement.__init__"], "s"),
            "grassmann.morphism_apply.calls": (c["grassmann.morphism_apply"], "count"),
            "grassmann.morphism_apply.self_s": (x["grassmann.morphism_apply"], "s"),
            "poly.new.calls": (c["poly.PolyCoeff.__init__"], "count"),
            "poly.mul.calls": (c["poly.PolyCoeff.__mul__"], "count"),
            "poly.diff.calls": (c["poly.PolyCoeff.diff"], "count"),
            "poly.eval.calls": (c["poly.PolyCoeff.eval"], "count"),
            "skeleton.eval_engine.calls": (c["skeleton._eval_engine"], "count"),
            "skeleton.gd_mul.calls": (c["skeleton._gd_mul"], "count"),
            "skeleton.gd_mul.pairs": (k["skeleton.gd_mul.pairs"], "count"),
            "skeleton.check_supersmooth.family_evals": (k["skeleton.check_supersmooth.family_evals"], "count"),
            "points.point_new.calls": (c["points.LambdaPoint.__init__"], "count"),
            "points.base_change.calls": (c["points.base_change"], "count"),
            "points.family_evals": (c["points.PointFamily.__call__"], "count"),
            "supermatrix.mat_mul.calls": (c["supermatrix.mat_mul"], "count"),
            "linalg.rref.calls": (c["linalg.rref"], "count"),
            "linalg.rref.cells": (k["linalg.rref.cells"], "count"),
            "superlinear.multilinear_new.calls": (c["superlinear.MultilinearMap.__init__"], "count"),
            "sampling.morphisms": (k["sampling.morphisms"], "count"),
            "parser.calls": (sum(c[name] for name in PARSERS), "count"),
            "parser.chars_in": (k["parser.chars_in"], "chars"),
            "jsonio.decode.calls": (self.calls_matching(lambda s: s.startswith("jsonio.") and s.endswith("_from_json")), "count"),
            "jsonio.encode.calls": (self.calls_matching(lambda s: s.startswith("jsonio.") and s.endswith("_to_json")), "count"),
            "cli.invocations": (c["cli.main"], "count"),
            "cli.stdout_bytes": (k["cli.stdout_bytes"], "bytes"),
        }
        for layer in LAYERS:
            m[f"{layer}.self_s"] = (self.layer_self(layer), "s")
        for name, value in timed.items():
            m[name] = (value, "ms")
        return m

    def write_spans(self, path) -> int:
        """Write the spans as JSON lines: one header, then one array per span."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"fields": ["name", "start", "end", "parent", "op"], "names": self.names}) + "\n")
            for i in range(len(self.span_start)):
                handle.write(
                    f"[{self.span_name[i]},{self.span_start[i]:.9f},{self.span_end[i]:.9f},"
                    f"{self.span_parent[i]},{self.span_op[i]}]\n"
                )
        return len(self.span_start)
