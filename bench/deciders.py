"""Workload ``deciders``: the public deciders on small formats.

The Grassmann layer is reached through about 10^5 tiny elements, so
construction, validation, hashing, base change of points and exact
elimination dominate; the deciders' own gates are timed.  Two faults in the
program make seven operations fail in every run, counted as failed: six
false positives of ``check_supersmooth`` on the body-scaling family, and a
``"coeff": "1/0"`` that escapes the CLI's ``main()`` as a traceback.
"""

from __future__ import annotations

import itertools

import inputs as gen
from core import Op, Rejected, cli_error_check, cli_json

# (domain formats, codomain format)
RECONSTRUCT = (
    (((1, 1), (1, 1)), (1, 1)),
    (((1, 2), (1, 2)), (1, 2)),
    (((2, 1), (2, 1)), (2, 1)),
    (((2, 2), (2, 2)), (2, 2)),
    (((2, 3), (2, 3)), (2, 3)),
    (((1, 3), (1, 3)), (1, 3)),
    (((1, 1), (1, 1), (1, 1)), (1, 1)),
    (((1, 2), (1, 2), (1, 2)), (1, 2)),
    (((2, 3), (2, 3), (2, 3)), (2, 3)),
)
NON_NATURAL = (((1, 2), (1, 2)), ((2, 3), (2, 3)))
# (builtin, p, q, n_max, expected verdict)
SUPERREP = (
    ("vbar", 1, 1, 7, True), ("vnil", 1, 1, 7, False),
    ("vbar", 1, 2, 5, True), ("vnil", 1, 2, 5, False),
    ("vbar", 2, 1, 5, True), ("vnil", 2, 1, 5, False),
    ("vbar", 2, 2, 4, True), ("vnil", 2, 2, 4, False),
)
# (n, p, q, trials)
GL = ((3, 1, 1, 10), (4, 2, 1, 8), (5, 1, 2, 6), (5, 2, 2, 4))
# (p, q, codomain, polynomial degree) of the random supermaps given to check_supersmooth
SUPERSMOOTH = ((1, 1, (1, 1), 2), (1, 2, (1, 1), 2), (2, 1, (1, 1), 2))
SUPERSMOOTH_DEGREE, SUPERSMOOTH_N_MAX = 3, 3
BODY_SCALING_SEEDS = range(1, 13)
# check_supersmooth(max_degree=3, n_max=3) calls the body-scaling family
# supersmooth at these seeds (ROADMAP item 3).
BODY_SCALING_FALSE_POSITIVES = (4, 5, 6, 7, 9, 10)


def random_multilinear(rng, domains, codomain) -> dict:
    """Entries ((i1..ik), c) -> rational of an even map on half of the
    entries that evenness allows."""
    def parity(fmt, i):
        return int(i > fmt[0])

    allowed = [
        (ins, c)
        for ins in itertools.product(*(range(1, sum(d) + 1) for d in domains))
        for c in range(1, sum(codomain) + 1)
        if parity(codomain, c) == sum(parity(d, i) for d, i in zip(domains, ins)) % 2
    ]
    return {key: gen.rational(rng, 4, 3) for key in sorted(rng.shape.sample(allowed, (len(allowed) + 1) // 2))}


def to_multilinear(lib, domains, codomain, coeffs):
    S = lib.superlinear.SuperSpace
    return lib.superlinear.MultilinearMap([S(*d) for d in domains], S(*codomain), coeffs)


def coeffs_check(want: dict):
    def check(res, out):
        got = dict(res.coeffs)
        if got != want:
            diff = sorted(set(got.items()) ^ set(want.items()))[:1]
            return f"reconstructed map differs from the generated one at {diff}"
        return None

    return check


def family_json(domains, codomain, coeffs, theta=None) -> dict:
    """The lift of a multilinear map as CLI family data: the coordinates are
    multiplied in reversed argument order."""
    outputs = {}
    for (ins, c), g in sorted(coeffs.items()):
        pairs = [[k + 1, i] for k, i in reversed(list(enumerate(ins)))]
        outputs.setdefault(c, []).append({"coeff": str(g), "vars": pairs})
    if theta is not None:
        outputs.setdefault(1, []).append({"coeff": "1", "vars": [], "theta": list(theta)})
    return {
        "domains": [gen.space_json(*d) for d in domains],
        "codomain": gen.space_json(*codomain),
        "outputs": [{"out": c, "terms": terms} for c, terms in sorted(outputs.items())],
    }


def build(lib, rng, workdir) -> list[Op]:
    P, S = lib.points, lib.superlinear.SuperSpace
    ops: list[Op] = []

    # reconstruct(lift(f)) == f
    for domains, codomain in RECONSTRUCT:
        coeffs = random_multilinear(rng, domains, codomain)
        f = to_multilinear(lib, domains, codomain, coeffs)
        label = " x ".join(f"{p}|{q}" for p, q in domains)
        ops.append(
            Op(
                f"reconstruct {label}",
                lambda out, f=f: lib.points.reconstruct_multilinear(lib.points.lift_family(f)),
                coeffs_check(coeffs),
                timed="points.reconstruct.p50_ms",
            )
        )

    # families polluted by a fixed Grassmann constant must be rejected
    def rejects(family):
        try:
            lib.points.reconstruct_multilinear(family)
        except lib.package.ReconstructionError as exc:
            return Rejected(str(exc))
        return "accepted"

    def rejected_check(res, out):
        return None if isinstance(res, Rejected) else "a non-natural family was reconstructed"

    for domains in NON_NATURAL:
        codomain = domains[0]
        f = to_multilinear(lib, domains, codomain, random_multilinear(rng, domains, codomain))
        family = P.injected_constant_family(f, 1, (1, 2))
        label = " x ".join(f"{p}|{q}" for p, q in domains)
        ops.append(Op(f"reconstruct non-natural {label}", lambda out, fam=family: rejects(fam), rejected_check))

    # superrepresentability verdicts with known answers
    for builtin, p, q, n_max, expected in SUPERREP:
        make_module = P.vbar_module if builtin == "vbar" else P.vnil_module
        candidate = make_module(S(p, q), n_max)

        def superrep_check(res, out, expected=expected, p=p, q=q):
            if res.superrepresentable != expected:
                return f"verdict {res.superrepresentable}, expected {expected}"
            if expected and (res.format.p, res.format.q) != (p, q):
                return f"format {res.format}, expected {p}|{q}"
            return None

        ops.append(
            Op(
                f"superrep_check {builtin} {p}|{q} n_max={n_max}",
                lambda out, c=candidate: lib.points.superrep_check(c),
                superrep_check,
                timed="points.superrep.p50_ms",
            )
        )

    # supergroup laws
    for n, p, q, trials in GL:
        gl_seed = rng.shape.randrange(1 << 30)

        def gl_check(res, out, trials=trials):
            if res.trials != trials:
                return f"ran {res.trials} trials, asked for {trials}"
            return None if res.passed else f"violations: {res.violations[:2]}"

        ops.append(
            Op(
                f"gl_group_check n={n} {p}|{q} trials={trials}",
                lambda out, a=(n, p, q, trials, gl_seed): lib.supermatrix.gl_group_check(*a),
                gl_check,
                timed="supermatrix.gl_check.p50_ms",
            )
        )

    # check_supersmooth recovers the skeleton of a polynomial supermap; the
    # family evaluates that skeleton with the library's skeleton_eval, which
    # the skeletons workload checks against plain substitution
    for p, q, codomain, degree in SUPERSMOOTH:
        sm = gen.supermap(rng, p, q, codomain, degree)
        want = gen.to_skeleton(lib, p, q, codomain, sm)
        family = P.PointFamily(
            (S(p, q),), S(*codomain), lambda n, args, want=want: lib.skeleton.skeleton_eval(want, args[0])
        )

        def smooth_check(res, out, want=want):
            if not res.supersmooth:
                return f"rejected a polynomial supermap: {res.diagnostics[:1]}"
            return None if res.skeleton == want else "recovered a different skeleton"

        ops.append(
            Op(
                f"check_supersmooth {p}|{q} -> {codomain[0]}|{codomain[1]}",
                lambda out, fam=family: lib.skeleton.check_supersmooth(
                    fam, max_degree=SUPERSMOOTH_DEGREE, n_max=SUPERSMOOTH_N_MAX
                ),
                smooth_check,
                timed="skeleton.check_supersmooth.p50_ms",
            )
        )

    # the body-scaling family (t, body(t)*xi) on 1|1 is not supersmooth
    space11 = S(1, 1)

    def body_scaling(n, args):
        t, xi = args[0].coords
        G = lib.grassmann
        return lib.points.LambdaPoint(space11, n, (t, G.gr_scale(G.body(t), xi)))

    scaling = P.PointFamily((space11,), space11, body_scaling)

    def not_smooth(res, out):
        return "called supersmooth" if res.supersmooth else None

    for s in BODY_SCALING_SEEDS:
        ops.append(
            Op(
                f"check_supersmooth body-scaling seed={s}",
                lambda out, s=s: lib.skeleton.check_supersmooth(scaling, max_degree=3, n_max=3, seed=s),
                not_smooth,
                timed="skeleton.check_supersmooth.p50_ms",
                known_fault="false positive: gates 2 and 3 sample sparse points (ROADMAP item 3)"
                if s in BODY_SCALING_FALSE_POSITIVES else None,
            )
        )

    # the CLI
    recon_files = {}
    for fmt in ((1, 2), (2, 3)):
        coeffs = random_multilinear(rng, (fmt, fmt), fmt)
        path = gen.write_json(workdir, f"reconstruct_{fmt[0]}{fmt[1]}.json", family_json((fmt, fmt), fmt, coeffs))
        recon_files[fmt] = (path, coeffs)

    def cli_reconstruct_check(coeffs):
        def check(res, out):
            return coeffs_check(coeffs)(lib.jsonio.multilinear_from_json(cli_json(res)), out)

        return check

    domains, codomain = ((1, 2), (1, 2)), (1, 2)
    nat_coeffs = random_multilinear(rng, domains, codomain)
    src, dst = 3, 3
    images = [gen.sparse(rng, dst, 1, 2) for _ in range(src)]
    samples = [
        [gen.point_json(1, 2, src, gen.point(rng, 1, 2, src, 2, 2)) for _ in domains] for _ in range(3)
    ]
    morphism = {"src": src, "dst": dst, "images": [gen.element_json(dst, img) for img in images]}
    kill = {
        "src": src, "dst": dst,
        "images": [gen.element_json(dst, {} if i == 1 else {1 << (i - 1): 1}) for i in range(1, src + 1)],
    }
    natural_file = gen.write_json(workdir, "check_nat.json", {
        "family": family_json(domains, codomain, nat_coeffs), "morphism": morphism, "samples": samples,
    })
    polluted_file = gen.write_json(workdir, "check_nat_polluted.json", {
        "family": family_json(domains, codomain, nat_coeffs, theta=(1, 2)), "morphism": kill, "samples": samples,
    })

    def natural_check(res, out):
        report = cli_json(res)
        return None if report == [] else f"{len(report)} violations reported for a natural family"

    def polluted_check(res, out):
        report = cli_json(res)
        if len(report) != len(samples):
            return f"{len(report)} violations for {len(samples)} samples of a non-natural family"
        for v in report:
            if lib.jsonio.point_from_json(v["lhs"]) == lib.jsonio.point_from_json(v["rhs"]):
                return "a reported violation has equal sides"
        return None

    def cli_superrep_check(expected, p, q):
        def check(res, out):
            verdict = cli_json(res)
            if verdict["superrepresentable"] is not expected:
                return f"verdict {verdict['superrepresentable']}, expected {expected}"
            if expected:
                fmt = lib.jsonio.space_from_json(verdict["format"])
                if (fmt.p, fmt.q) != (p, q):
                    return f"format {fmt}, expected {p}|{q}"
            return None

        return check

    def cs_table_check(res, out):
        if res.escaped or res.code != 0:
            return f"exit {res.code} {res.escaped or ''}"
        want = {"m(1,1) = 1", "m(1,t) = t", "m(t,1) = t", "m(t,t) = -1"}
        lines = set(res.stdout.splitlines())
        return None if lines == want else f"table {sorted(lines)}"

    bad_syntax = gen.write_text(workdir, "bad_syntax.json", '{"space": {"p": 1, "q": 1}, "n": 2,')
    missing = gen.write_json(workdir, "missing_field.json", {"space": {"p": 1, "q": 1}, "entries": []})
    zero_den = gen.write_json(workdir, "zero_denominator.json", {
        "space": {"p": 1, "q": 0}, "n": 1, "entries": [[{"n": 1, "terms": [{"idx": [], "coeff": "1/0"}]}]],
    })
    run = lib.cli_call
    ops += [
        *(
            Op(f"cli reconstruct {p}|{q} x {p}|{q}", lambda out, path=path: run(["reconstruct", path]),
               cli_reconstruct_check(coeffs), cli=True)
            for (p, q), (path, coeffs) in recon_files.items()
        ),
        Op("cli check-nat natural", lambda out: run(["check-nat", natural_file]), natural_check, cli=True),
        Op("cli check-nat polluted", lambda out: run(["check-nat", polluted_file]), polluted_check, cli=True),
        Op("cli superrep-check vbar 1|2", lambda out: run(["superrep-check", "--builtin", "vbar", "-p", "1", "-q", "2", "-n", "4"]),
           cli_superrep_check(True, 1, 2), cli=True),
        Op("cli superrep-check vnil 2|1", lambda out: run(["superrep-check", "--builtin", "vnil", "-p", "2", "-q", "1", "-n", "4"]),
           cli_superrep_check(False, 2, 1), cli=True),
        Op("cli cs-table", lambda out: run(["cs-table"]), cs_table_check, cli=True),
        Op("cli bad JSON syntax", lambda out: run(["minv", bad_syntax]), cli_error_check((1, 2)), cli=True),
        Op("cli missing field", lambda out: run(["minv", missing]), cli_error_check((1, 2)), cli=True),
        Op("cli parse error", lambda out: run(["eval", "-n", "2", "t1 +* t2"]), cli_error_check((1, 2)), cli=True),
        Op("cli coeff 1/0", lambda out: run(["strace", zero_den]), cli_error_check((1,)), cli=True,
           known_fault="ZeroDivisionError escapes main() (ROADMAP item 4)"),
    ]
    return ops
