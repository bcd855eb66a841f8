"""Workload ``dense-algebra``: few, huge exact computations.

Nearly all time sits in the Grassmann product loop and in Fraction arithmetic
with growing numbers, over a few thousand kernel calls: dense products and
series inverses at n = 8..11, powers with exponents in the hundreds, base
change along morphisms with multi-term odd images, and dense supermatrix
products and inverses; then ``inv``, ``minv`` and ``eval`` on inputs of the
same size through the CLI.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import inputs as gen
import oracles
from core import Op, cli_json

# Sizes are chosen for a round of about four seconds on one 2020s x86 core.
# Of the 35 operations of a round the three slowest (the n = 11 products and
# the 4|4 inverse) take 8.6 % of the latency samples, so the 90th percentile
# falls inside the samples of the n = 10 inverse rather than between two
# operations.
PRODUCTS = (7, 7, 8, 8, 8, 9, 9, 10, 11, 11)
INVERSES = (8, 8, 8, 9, 10)
POWERS = ((6, 200), (5, 300))
# (p, q, n, density of the entries)
MATRIX_MULS = ((3, 3, 6, 1.0), (4, 4, 6, 1.0), (3, 3, 8, 0.25))
MATRIX_INVS = ((3, 3, 6, 1.0), (4, 4, 6, 1.0), (3, 3, 8, 0.15))


def dense(rng, n):
    """Every monomial of ``n`` generators, with a nonzero integer body.  The
    body sets how fast the denominators of an inverse grow, so it comes from
    the shape generator and every seed inverts with the same body."""
    body = rng.shape.randint(1, 5) * rng.shape.choice((-1, 1))
    return gen.element(rng, n, body=body)


def low_degree(rng, n):
    """Body 3/2 plus every monomial of degree 1 or 2: its powers fill the algebra."""
    terms = {m: gen.rational(rng, 3, 2) for m in gen.masks(n, nilpotent=True) if m.bit_count() <= 2}
    terms[0] = Fraction(3, 2)
    return terms


def odd_images(rng, src, dst):
    """Generator images with three odd terms each: t_i, another generator
    and one cubic monomial."""
    images = []
    for i in range(1, src + 1):
        img = {1 << (i - 1): Fraction(1)}
        other = rng.shape.choice([j for j in range(dst) if j != i - 1])
        img[1 << other] = gen.rational(rng, 3, 2)
        img[sum(1 << g for g in rng.shape.sample(range(dst), 3))] = gen.rational(rng, 3, 2)
        images.append(img)
    return images


def supermatrix(rng, p, q, n, density):
    rows = []
    for i in range(p + q):
        row = []
        for j in range(p + q):
            parity = 0 if (i < p) == (j < p) else 1
            entry = gen.element(rng, n, parity, density, max_num=5, max_den=3)
            entry.pop(0, None)
            if i == j:
                entry[0] = Fraction(rng.shape.randint(2, 5))
            row.append(entry)
        rows.append(row)
    return rows


# -- checks ---------------------------------------------------------------------


def product_check(a, b, n, masks):
    def check(res, out):
        got = res.terms
        return gen.compare_coefficients(
            got, lambda m: oracles.coefficient(a, b, m), masks + [max(got, default=0)], "product"
        )

    return check


def inverse_errors(a: dict, inv: dict, masks) -> str | None:
    """``a*inv`` and ``inv*a`` must be 1 on the sampled masks."""
    for m in masks + [max(inv, default=0)]:
        for left, right, label in ((a, inv, "a*inv(a)"), (inv, a, "inv(a)*a")):
            got = oracles.coefficient(left, right, m)
            if got != (m == 0):
                return f"{label}: coefficient of {oracles.indices(m) or 'the unit'} is {got}"
    return None


def matrix_product_errors(A, B, C, n, masks) -> str | None:
    """``A*B == C`` entrywise on the sampled masks (and each entry's top mask)."""
    d = len(A)
    for i, j in itertools.product(range(d), repeat=2):
        got = C[i][j]
        for m in masks + [max(got, default=0)]:
            want = sum(oracles.coefficient(A[i][k], B[k][j], m) for k in range(d))
            if got.get(m, 0) != want:
                return f"entry ({i + 1},{j + 1}): coefficient of {oracles.indices(m) or 'the unit'} is {got.get(m, 0)}, expected {want}"
    return None


def matrix_inverse_errors(A, inv, n, masks) -> str | None:
    d = len(A)
    ident = [[{0: Fraction(1)} if i == j else {} for j in range(d)] for i in range(d)]
    return matrix_product_errors(A, inv, ident, n, masks) or matrix_product_errors(inv, A, ident, n, masks)


def entries(matrix):
    return [[dict(e.terms) for e in row] for row in matrix.entries]


# -- the workload -----------------------------------------------------------------


def build(lib, rng, workdir) -> list[Op]:
    G, M = lib.grassmann, lib.supermatrix
    E = lambda n, t: gen.to_element(lib, n, t)  # noqa: E731
    ops: list[Op] = []

    def sample(n, count=12):
        return gen.sampled_masks(rng, n, count)

    # products
    factors = {}
    for idx, n in enumerate(PRODUCTS):
        a, b = dense(rng, n), dense(rng, n)
        ea, eb = E(n, a), E(n, b)
        name = f"gr_mul n={n} #{idx}"
        factors[name] = (a, b)
        ops.append(Op(name, lambda out, ea=ea, eb=eb: lib.grassmann.gr_mul(ea, eb), product_check(a, b, n, sample(n))))

    # inverses
    for idx, n in enumerate(INVERSES):
        a = dense(rng, n)
        ea, masks = E(n, a), sample(n)
        ops.append(
            Op(
                f"gr_inv n={n} #{idx}",
                lambda out, ea=ea: lib.grassmann.gr_inv(ea),
                lambda res, out, a=a, masks=masks: inverse_errors(a, res.terms, masks),
            )
        )

    # powers, against the binomial expansion of body + nilpotent part
    for n, k in POWERS:
        a = low_degree(rng, n)
        ea = E(n, a)
        ops.append(
            Op(
                f"pow n={n} k={k}",
                lambda out, ea=ea, k=k: ea ** k,
                lambda res, out, a=a, k=k, n=n: gen.compare_dicts(res.terms, oracles.power(a, k, n), f"a**{k}"),
            )
        )

    # base change along phi: 7 -> 8 and psi: 8 -> 9, and their composite
    a, b = factors["gr_mul n=7 #0"]
    phi_img, psi_img = odd_images(rng, 7, 8), odd_images(rng, 8, 9)
    phi = G.GrassmannMorphism(7, 8, [E(8, t) for t in phi_img])
    psi = G.GrassmannMorphism(8, 9, [E(9, t) for t in psi_img])
    ea, eb = E(7, a), E(7, b)
    hom_masks = sample(8)

    def hom_check(role):
        """phi(ab) == phi(a)*phi(b) on sampled masks, with this op's result in ``role``."""

        def check(res, out):
            parts = {"a": out["phi(a)"], "b": out["phi(b)"], "ab": out["phi(ab)"], role: res}
            fa, fb, fab = (parts[key].terms for key in ("a", "b", "ab"))
            return gen.compare_coefficients(
                fab, lambda m: oracles.coefficient(fa, fb, m),
                hom_masks + [max(fab), max(fa), max(fb)], "phi(ab) vs phi(a)*phi(b)",
            )

        return check

    ops += [
        Op("phi(a)", lambda out: lib.grassmann.morphism_apply(phi, ea), hom_check("a")),
        Op("phi(b)", lambda out: lib.grassmann.morphism_apply(phi, eb), hom_check("b")),
        Op("phi(ab)", lambda out: lib.grassmann.morphism_apply(phi, out["gr_mul n=7 #0"]), hom_check("ab")),
    ]
    def compose_check(res, out):
        chi_img = [oracles.apply_morphism(psi_img, img) for img in phi_img]
        for i, (got, want) in enumerate(zip(res.images, chi_img), start=1):
            msg = gen.compare_dicts(got.terms, want, f"image of t{i} under psi.phi")
            if msg:
                return msg
        return None

    def equal_to(other):
        def check(res, out):
            return None if res == out[other] else f"differs from {other}"

        return check

    ops += [
        Op("psi.phi", lambda out: lib.grassmann.morphism_compose(psi, phi), compose_check),
        Op("(psi.phi)(a)", lambda out: lib.grassmann.morphism_apply(out["psi.phi"], ea), equal_to("psi(phi(a))")),
        Op("psi(phi(a))", lambda out: lib.grassmann.morphism_apply(psi, out["phi(a)"]), equal_to("(psi.phi)(a)")),
    ]

    # supermatrices
    S = lib.superlinear.SuperSpace

    def matrix(p, q, n, rows):
        return M.SuperMatrix(S(p, q), n, [[E(n, e) for e in row] for row in rows])

    for p, q, n, density in MATRIX_MULS:
        A, B = supermatrix(rng, p, q, n, density), supermatrix(rng, p, q, n, density)
        mA, mB, masks = matrix(p, q, n, A), matrix(p, q, n, B), sample(n, 3)
        ops.append(
            Op(
                f"mat_mul {p}|{q} n={n}",
                lambda out, mA=mA, mB=mB: lib.supermatrix.mat_mul(mA, mB),
                lambda res, out, A=A, B=B, n=n, masks=masks: matrix_product_errors(A, B, entries(res), n, masks),
            )
        )
    inv_inputs = {}
    for p, q, n, density in MATRIX_INVS:
        A = supermatrix(rng, p, q, n, density)
        mA, masks = matrix(p, q, n, A), sample(n, 3)
        name = f"mat_inv {p}|{q} n={n}"
        inv_inputs[name] = (A, mA)
        ops.append(
            Op(
                name,
                lambda out, mA=mA: lib.supermatrix.mat_inv(mA),
                lambda res, out, A=A, n=n, masks=masks: matrix_inverse_errors(A, entries(res), n, masks),
                timed="supermatrix.mat_inv.p50_ms",
            )
        )

    # base change commutes with inversion: inv(theta(A)) == theta(inv(A)), theta: 6 -> 6
    A, mA = inv_inputs["mat_inv 3|3 n=6"]
    theta_img = odd_images(rng, 6, 6)
    theta = G.GrassmannMorphism(6, 6, [E(6, t) for t in theta_img])

    def base_change_check(res, out):
        want = [[oracles.apply_morphism(theta_img, e) for e in row] for row in A]
        for i, row in enumerate(entries(res)):
            for j, got in enumerate(row):
                msg = gen.compare_dicts(got, want[i][j], f"theta(A) entry ({i + 1},{j + 1})")
                if msg:
                    return msg
        return None

    ops += [
        Op("theta(A)", lambda out: lib.supermatrix.mat_base_change(theta, mA), base_change_check),
        Op(
            "inv(theta A)", lambda out: lib.supermatrix.mat_inv(out["theta(A)"]), equal_to("theta(inv A)"),
            timed="supermatrix.mat_inv.p50_ms",
        ),
        Op("theta(inv A)", lambda out: lib.supermatrix.mat_base_change(theta, out["mat_inv 3|3 n=6"]), equal_to("inv(theta A)")),
    ]

    # the CLI on inputs of the same size
    a9 = dense(rng, 9)
    inv_file = gen.write_text(workdir, "inv_n9.txt", gen.element_text(a9))
    inv_masks = sample(9)
    a8, b8 = dense(rng, 8), dense(rng, 8)
    eval_file = gen.write_text(
        workdir, "eval_n8.txt", f"({gen.element_text(a8)}) * ({gen.element_text(b8)})"
    )
    eval_masks = sample(8)
    A6 = supermatrix(rng, 3, 3, 6, 1.0)
    minv_file = gen.write_json(workdir, "minv_3x3_n6.json", gen.matrix_json(3, 3, 6, A6))
    minv_masks = sample(6, 3)

    def cli_inv_check(res, out):
        inv = lib.jsonio.element_from_json(cli_json(res))
        return inverse_errors(a9, dict(inv.terms), inv_masks)

    def cli_eval_check(res, out):
        got = lib.jsonio.element_from_json(cli_json(res))
        return product_check(a8, b8, 8, eval_masks)(got, out)

    def cli_minv_check(res, out):
        inv = lib.jsonio.matrix_from_json(cli_json(res))
        return matrix_inverse_errors(A6, entries(inv), 6, minv_masks)

    ops += [
        Op("cli inv -n 9", lambda out: lib.cli_call(["inv", "-n", "9", "--file", inv_file, "--json"]), cli_inv_check, cli=True),
        Op("cli eval -n 8 (a*b)", lambda out: lib.cli_call(["eval", "-n", "8", "--file", eval_file, "--json"]), cli_eval_check, cli=True),
        Op("cli minv 3|3 n=6", lambda out: lib.cli_call(["minv", minv_file]), cli_minv_check, cli=True),
    ]
    return ops
