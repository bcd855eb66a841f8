"""Gate 1 of ``check_supersmooth``: one probe per body node, separable interpolation,
bounds on the deciders' inputs and on the CLI's work."""

import itertools
import json
import random
from fractions import Fraction

import pytest

from superpoints import (
    PointFamily,
    SuperSpace,
    check_supersmooth,
    identity_family,
    skeleton_eval,
    superrep_check,
    vbar_module,
)
from superpoints import cli, skeleton
from superpoints.poly import PolyCoeff
from superpoints.skeleton import _interpolate, _lagrange_weights, _probe_forms

from helpers import poly_eval, random_polynomial_supermap, reference_candidate
from test_skeleton import NOT_SUPERSMOOTH


def counted(family):
    """The family with a call counter in ``calls[0]``."""
    calls = [0]

    def component(n, args):
        calls[0] += 1
        return family.component(n, args)

    return PointFamily(family.domains, family.codomain, component, family.n_max), calls


def random_skeleton_family(rng):
    dom = SuperSpace(rng.randint(0, 2), rng.randint(0, 3))
    cod = SuperSpace(rng.randint(0, 2), rng.randint(1, 2))
    skel = random_polynomial_supermap(rng, dom, cod, max_degree=rng.randint(0, 2)).skeleton()
    return PointFamily((dom,), cod, lambda n, args: skeleton_eval(skel, args[0])), skel


class TestAgainstReference:
    @pytest.mark.parametrize("seed", range(1, 31))
    def test_random_skeleton_families(self, seed):
        family, skel = random_skeleton_family(random.Random(seed))
        reference = reference_candidate(family, 2)
        assert reference == skel
        verdict = check_supersmooth(family, max_degree=2, n_max=2, seed=seed)
        assert (verdict.supersmooth, verdict.diagnostics, verdict.skeleton) == (True, (), reference)

    @pytest.mark.parametrize("name", NOT_SUPERSMOOTH)
    def test_not_supersmooth_families(self, name, monkeypatch):
        family = NOT_SUPERSMOOTH[name]
        verdicts = [check_supersmooth(family, max_degree=3, n_max=3, seed=s) for s in range(1, 6)]
        monkeypatch.setattr(skeleton, "_probe_forms", lambda family, d: reference_candidate(family, d).forms)
        expected = [check_supersmooth(family, max_degree=3, n_max=3, seed=s) for s in range(1, 6)]
        assert verdicts == expected
        assert not any(v.supersmooth for v in verdicts)


class TestCallCount:
    @pytest.mark.parametrize("p, q, max_degree", [(0, 2, 3), (1, 1, 3), (2, 3, 2), (3, 0, 1), (3, 2, 4)])
    def test_one_call_per_body_node(self, p, q, max_degree):
        family, calls = counted(identity_family(SuperSpace(p, q)))
        _probe_forms(family, max_degree)
        assert calls[0] == (max_degree + 1) ** p

    def test_identity_3_2_total(self):
        family, calls = counted(identity_family(SuperSpace(3, 2)))
        assert check_supersmooth(family, max_degree=4, n_max=4).supersmooth
        assert calls[0] == 736


class TestInterpolate:
    @pytest.mark.parametrize("p, d", list(itertools.product(range(4), range(4))))
    def test_recovers_polynomials(self, p, d):
        rng = random.Random(10 * p + d)
        nodes = [Fraction(t) for t in range(d + 1)]
        weights = _lagrange_weights(nodes)
        for _ in range(3):
            poly = PolyCoeff(
                p,
                {e: Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for e in itertools.product(range(d + 1), repeat=p)},
            )
            grid = itertools.product(range(d + 1), repeat=p)
            values = {j: v for j in grid if (v := poly_eval(poly, [nodes[a] for a in j]))}
            assert _interpolate(p, weights, values) == poly


class TestNegativeBounds:
    def test_check_supersmooth(self):
        family = identity_family(SuperSpace(1, 1))
        for max_degree, n_max in ((3, -1), (-1, 3)):
            with pytest.raises(ValueError, match="non-negative"):
                check_supersmooth(family, max_degree=max_degree, n_max=n_max)
        with pytest.raises(ValueError, match="non-negative"):
            check_supersmooth(identity_family(SuperSpace(1, 1), n_max=-2))

    def test_superrep_check(self):
        with pytest.raises(ValueError, match="non-negative"):
            superrep_check(vbar_module(SuperSpace(1, 1), -3))

    def test_cli(self, capsys):
        code = cli.main(["superrep-check", "--builtin", "vbar", "-p", "1", "-q", "1", "-n", "-1"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert "non-negative" in captured.err


class Reached(Exception):
    pass


def _reached(*args):
    raise Reached


class TestCliWorkBound:
    @pytest.mark.parametrize("builtin", ["vbar", "vnil"])
    def test_builtin_rows(self, builtin, capsys, monkeypatch):
        monkeypatch.setattr(cli, "superrep_check", _reached)
        for n in (12, 40, 10**9):
            code = cli.main(["superrep-check", "--builtin", builtin, "-p", "1", "-q", "1", "-n", str(n)])
            captured = capsys.readouterr()
            assert (code, captured.out) == (1, "")
            assert "ambient rows" in captured.err
        with pytest.raises(Reached):  # 2 * 2**11 = 4096 rows
            cli.main(["superrep-check", "--builtin", builtin, "-p", "1", "-q", "1", "-n", "11"])

    def test_reconstruct_probes(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr(cli, "reconstruct_multilinear", _reached)

        def reconstruct(p):
            path = tmp_path / f"family{p}.json"
            domains = [{"p": p, "q": 0}] * 3
            path.write_text(json.dumps({"domains": domains, "codomain": {"p": 1, "q": 0}, "outputs": []}))
            return cli.main(["reconstruct", str(path)])

        for p in (17, 200):
            code = reconstruct(p)
            captured = capsys.readouterr()
            assert (code, captured.out) == (1, "")
            assert "would probe" in captured.err
        with pytest.raises(Reached):  # 16**3 = 4096 probes
            reconstruct(16)

    def test_skel_compose_pullback(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr(cli, "skeleton_compose", _reached)

        def skeleton(dom, cod, entries):
            maps = [{"k": 0, "entries": [{"odd_idx": [], "out": c, "poly": poly} for c, poly in entries]}]
            return {"domain": {"p": dom, "q": 0}, "codomain": {"p": cod, "q": 0}, "dom_box": None, "maps": maps}

        def compose(power, inner):
            path = tmp_path / "compose.json"
            p = 1 if "x2" not in inner else 2
            f = skeleton(p, p, [(1, inner), (2, "x2")][:p])
            path.write_text(json.dumps({"g": skeleton(p, 1, [(1, f"x1^{power}")]), "f": f}))
            return cli.main(["skel-compose", str(path)])

        # (1+x1+x2)^e has C(e+2, 2) terms: 4,278 at e = 91 and 4,371 at e = 92;
        # (1+x1)^4300 has 4,301; the coefficients of (12345/678 + 98765/4321*x1)^e
        # have at most e * log10(40101805) digits, 4,181 at e = 550 and 4,333 at e = 570
        cases = [(92, "1 + x1 + x2", "degree or terms"), (4000, "1 + x1 + x2", "degree or terms"),
                 (4300, "1 + x1", "degree or terms"), (570, "12345/678 + 98765/4321*x1", "digits")]
        for power, inner, message in cases:
            code = compose(power, inner)
            captured = capsys.readouterr()
            assert (code, captured.out) == (1, "")
            assert message in captured.err
        for power, inner in [(91, "1 + x1 + x2"), (550, "12345/678 + 98765/4321*x1")]:
            with pytest.raises(Reached):
                compose(power, inner)

    def test_skel_eval_odd_products(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr(cli, "skeleton_eval", _reached)

        def evaluate(n, k, terms):
            # the 0|k -> 1|1 skeleton t1..tk -> 1 in the coordinate of parity
            # k, at a point whose k odd coordinates each hold the first
            # `terms` generators
            entry = {"odd_idx": list(range(1, k + 1)), "out": 1 + k % 2, "poly": "1"}
            skel = {
                "domain": {"p": 0, "q": k}, "codomain": {"p": 1, "q": 1}, "dom_box": None,
                "maps": [{"k": k, "entries": [entry]}],
            }
            odd = {"n": n, "terms": [{"idx": [i], "coeff": i} for i in range(1, terms + 1)]}
            point = {"space": {"p": 0, "q": k}, "n": n, "coords": [odd] * k}
            path = tmp_path / "eval.json"
            path.write_text(json.dumps({"skeleton": skel, "point": point}))
            return cli.main(["skel-eval", str(path)])

        # min(n**k, C(n, k)): C(16, 8) = 12,870 and C(20, 10) = 184,756 terms;
        # the bench's 3|3 point over 10 generators has min(4**3, C(10, 3)) = 64
        for n, k in [(16, 8), (20, 10)]:
            code = evaluate(n, k, n)
            captured = capsys.readouterr()
            assert (code, captured.out) == (1, "")
            assert "odd product" in captured.err
        for n, k, terms in [(10, 3, 4), (14, 7, 14), (20, 10, 2)]:  # 64, 3,432 and 2**10 terms
            with pytest.raises(Reached):
                evaluate(n, k, terms)
