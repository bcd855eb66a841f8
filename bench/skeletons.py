"""Workload ``skeletons``: symbolic work over polynomial coefficients.

Time sits in ``poly`` and in the ring-generic Taylor engine (``_gd_mul`` over
``PolyCoeff``) while the Grassmann layer is nearly idle: skeleton evaluation
at points over n = 8..10 generators, composition of skeleton pairs, and
superfunction products and evaluation; then ``skel-eval``, ``skel-compose``
and ``eval -p/-q`` through the CLI.
"""

from __future__ import annotations

import functools

import inputs as gen
import oracles
from core import Op, cli_json

# Every supermap fills all its slots with polynomials on all monomials up to
# its degree, so that the amount of work does not depend on the seed.
# (p, q, codomain, degree, n): skeleton_eval of a random supermap at a point over n generators
EVALS = (
    (2, 2, (2, 2), 3, 8), (3, 3, (3, 3), 3, 8), (3, 2, (3, 2), 3, 8),
    (2, 4, (2, 2), 3, 9), (3, 3, (2, 2), 3, 9), (2, 4, (2, 4), 2, 9),
    (2, 3, (2, 3), 3, 10), (2, 4, (1, 1), 3, 10), (3, 3, (3, 3), 3, 10),
)
POINT_TERMS = (6, 4)  # even nilpotent terms and odd terms per coordinate
# (p, q, degree of g, degree of f): skeleton_compose(g, f) of two maps p|q -> p|q
COMPOSES = ((2, 3, 2, 1), (2, 3, 2, 2), (3, 3, 2, 1), (3, 3, 1, 2), (2, 4, 2, 1))
# (p, q, degree): superfunction products and evaluations
SUPERFUNCTIONS = ((2, 3, 3), (3, 3, 3), (3, 4, 3))


def check_point(rng, p, q):
    """A point over q + 4 generators whose odd coordinates are t_1..t_q plus
    one more odd monomial in the other generators, so that every odd monomial
    of a superfunction shows in the value."""
    n = q + 4
    rest = [m << q for m in range(1, 1 << 4)]
    coords = []
    for _ in range(p):
        c = {m: gen.rational(rng, 4, 3) for m in rng.sample([m for m in rest if m.bit_count() == 2], 2)}
        c[0] = gen.rational(rng, 3, 2)
        coords.append(c)
    for i in range(q):
        coords.append({1 << i: 1, rng.choice([m for m in rest if m.bit_count() % 2]): gen.rational(rng, 4, 3)})
    return n, coords


def evaluation_check(sm, p, dim_out, coords):
    def check(res, out):
        want = oracles.substitute(sm, p, dim_out, coords)
        for c, (got, w) in enumerate(zip(res.coords, want), start=1):
            msg = gen.compare_dicts(dict(got.terms), w, f"coordinate {c}")
            if msg:
                return msg
        return None

    return check


def superfunction_terms(rng, p, q, degree) -> dict:
    """``odd mask -> polynomial`` with every odd monomial present."""
    return {m: gen.poly(rng, p, degree) for m in range(1 << q)}


def as_supermap(terms: dict) -> dict:
    """A superfunction as a one-coordinate polynomial supermap."""
    return {(tuple(oracles.indices(m)), 1): pl for m, pl in terms.items()}


def build(lib, rng, workdir) -> list[Op]:
    ops: list[Op] = []

    for p, q, codomain, degree, n in EVALS:
        sm = gen.supermap(rng, p, q, codomain, degree)
        skel = gen.to_skeleton(lib, p, q, codomain, sm)
        coords = gen.point(rng, p, q, n, *POINT_TERMS)
        x = gen.to_point(lib, p, q, n, coords)
        ops.append(
            Op(
                f"skeleton_eval {p}|{q} -> {codomain[0]}|{codomain[1]} deg {degree} n={n}",
                lambda out, skel=skel, x=x: lib.skeleton.skeleton_eval(skel, x),
                evaluation_check(sm, p, sum(codomain), coords),
            )
        )

    def composite_check(p, q, g_sm, f_sm, coords):
        """compose(g, f)(x) == g(f(x)) by substitution at a point."""

        @functools.cache
        def want():
            return oracles.substitute(g_sm, p, p + q, oracles.substitute(f_sm, p, p + q, coords))

        def check(res, out):
            got = oracles.substitute(gen.skeleton_supermap(res), p, p + q, coords)
            for c, (a, b) in enumerate(zip(got, want()), start=1):
                msg = gen.compare_dicts(a, b, f"coordinate {c} of compose(g, f)(x)")
                if msg:
                    return msg
            return None

        return check

    for p, q, dg, df in COMPOSES:
        g_sm = gen.supermap(rng, p, q, (p, q), dg)
        f_sm = gen.supermap(rng, p, q, (p, q), df)
        g, f = gen.to_skeleton(lib, p, q, (p, q), g_sm), gen.to_skeleton(lib, p, q, (p, q), f_sm)
        _, coords = check_point(rng, p, q)
        ops.append(
            Op(
                f"skeleton_compose {p}|{q} deg {dg}.{df}",
                lambda out, g=g, f=f: lib.skeleton.skeleton_compose(g, f),
                composite_check(p, q, g_sm, f_sm, coords),
                timed="skeleton.compose.p50_ms",
            )
        )

    def superfunction(p, q, terms):
        PC = lib.poly.PolyCoeff
        return lib.skeleton.Superfunction(p, q, {m: PC(p, pl) for m, pl in terms.items()})

    def product_check(p, F, G, coords):
        """(F*G)(x) == F(x)*G(x) by substitution at a point."""

        @functools.cache
        def want():
            return oracles.mul(
                oracles.substitute(as_supermap(F), p, 1, coords)[0],
                oracles.substitute(as_supermap(G), p, 1, coords)[0],
            )

        def check(res, out):
            terms = {m: dict(pl.terms) for m, pl in res.terms.items()}
            got = oracles.substitute(as_supermap(terms), p, 1, coords)[0]
            return gen.compare_dicts(got, want(), "(F*G)(x)")

        return check

    for p, q, degree in SUPERFUNCTIONS:
        F, G = superfunction_terms(rng, p, q, degree), superfunction_terms(rng, p, q, degree)
        sF, sG = superfunction(p, q, F), superfunction(p, q, G)
        n, coords = check_point(rng, p, q)
        x = gen.to_point(lib, p, q, n, coords)
        ops.append(
            Op(
                f"superfunction_mul {p}|{q} deg {degree}",
                lambda out, sF=sF, sG=sG: lib.skeleton.superfunction_mul(sF, sG),
                product_check(p, F, G, coords),
            )
        )
        ops.append(
            Op(
                f"superfunction_eval {p}|{q} deg {degree}",
                lambda out, sF=sF, x=x: lib.skeleton.superfunction_eval(sF, x),
                lambda res, out, F=F, p=p, coords=coords: gen.compare_dicts(
                    dict(res.terms), oracles.substitute(as_supermap(F), p, 1, coords)[0], "F(x)"
                ),
            )
        )

    # the CLI
    p, q, codomain, degree, n = 3, 3, (3, 3), 3, 10
    sm = gen.supermap(rng, p, q, codomain, degree)
    coords = gen.point(rng, p, q, n, *POINT_TERMS)
    eval_file = gen.write_json(workdir, "skel_eval.json", {
        "skeleton": gen.skeleton_json(p, q, codomain, sm), "point": gen.point_json(p, q, n, coords),
    })
    eval_want = evaluation_check(sm, p, sum(codomain), coords)

    def cli_eval_check(res, out):
        return eval_want(lib.jsonio.point_from_json(cli_json(res)), out)

    p, q = 2, 3
    g_sm = gen.supermap(rng, p, q, (p, q), 2)
    f_sm = gen.supermap(rng, p, q, (p, q), 1)
    compose_file = gen.write_json(workdir, "skel_compose.json", {
        "g": gen.skeleton_json(p, q, (p, q), g_sm), "f": gen.skeleton_json(p, q, (p, q), f_sm),
    })
    compose_want = composite_check(p, q, g_sm, f_sm, check_point(rng, p, q)[1])

    def cli_compose_check(res, out):
        return compose_want(lib.jsonio.skeleton_from_json(cli_json(res)), out)

    F, G = superfunction_terms(rng, 3, 3, 3), superfunction_terms(rng, 3, 3, 3)
    text = f"({gen.superfunction_text(3, F)}) * ({gen.superfunction_text(3, G)})"
    product_want = product_check(3, F, G, check_point(rng, 3, 3)[1])

    def cli_product_check(res, out):
        return product_want(lib.jsonio.superfunction_from_json(cli_json(res)), out)

    run = lib.cli_call
    ops += [
        Op("cli skel-eval 3|3 n=10", lambda out: run(["skel-eval", eval_file]), cli_eval_check, cli=True),
        Op("cli skel-compose 2|3", lambda out: run(["skel-compose", compose_file]), cli_compose_check, cli=True),
        Op("cli eval -p 3 -q 3 (F*G)", lambda out: run(["eval", "-p", "3", "-q", "3", text, "--json"]), cli_product_check, cli=True),
    ]
    return ops
