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
from test_cli import _point
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
        # gate 1: 5**3 = 125 body nodes; gate 2: 125 + 2 closure bodies; gate 3:
        # one call per source count 0..4 and one per morphism of the 121-morphism grid
        assert calls[0] == 125 + 127 + 5 + 121


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


def _pairs(k):
    """``t1*t2 + t3*t4 + ... + t(2k-1)*t(2k)``."""
    return [((2 * i + 1, 2 * i + 2), 1) for i in range(k)]


class TestSkelEvalBound:
    """``skel-eval`` bounds every product its walk forms, before any work."""

    def evaluate(self, tmp_path, p, q, cod, entries, n, coords):
        maps = [{"k": k, "entries": [{"odd_idx": odd, "out": out, "poly": poly}
                                     for odd, out, poly in entries if len(odd) == k]} for k in range(q + 1)]
        skel = {"domain": {"p": p, "q": q}, "codomain": {"p": cod[0], "q": cod[1]}, "dom_box": None, "maps": maps}
        path = tmp_path / "eval.json"
        path.write_text(json.dumps({"skeleton": skel, "point": _point(p, q, n, coords)}))
        return cli.main(["skel-eval", str(path)])

    @pytest.fixture(autouse=True)
    def unreachable(self, monkeypatch):
        monkeypatch.setattr(cli, "skeleton_eval", _reached)

    def assert_refused(self, capsys, code):
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert "odd product" in captured.err

    def test_even_powers(self, capsys, tmp_path):
        # x1^e at a sum of k disjoint pairs has C(k, e) terms: C(20, 10) =
        # 184,756 and C(16, 8) = 12,870; x1^20 is one term, but the square and
        # multiply forms x1^8 with C(20, 8) = 125,970 terms
        for power, k in [(10, 20), (8, 16), (20, 20)]:
            self.assert_refused(capsys, self.evaluate(tmp_path, 1, 0, (1, 0), [([], 1, f"x1^{power}")],
                                                      2 * k, [_pairs(k)]))
        with pytest.raises(Reached):  # C(22, 3) = 1,540 terms
            self.evaluate(tmp_path, 1, 0, (1, 0), [([], 1, "x1^3")], 40, [_pairs(20)])

    def test_power_with_a_body(self, capsys, tmp_path):
        # a power of 1 + quadratics over n generators has at most 2**(n-1)
        # terms, the even degrees, whatever the exponent: 4,096 at n = 13, but
        # 2**19 at n = 20, where x1^10 is formed even though the term it
        # enters, t1..t19 * x1^10 at t_i -> t_i, has at most C(20, 19) = 20
        def quadratics(n):
            return [((), 1)] + [(m, 1) for m in itertools.combinations(range(1, n + 1), 2)]

        with pytest.raises(Reached):
            self.evaluate(tmp_path, 1, 0, (1, 0), [([], 1, "x1^4300")], 13, [quadratics(13)])
        odd = [[((i,), 1)] for i in range(1, 20)]
        code = self.evaluate(tmp_path, 1, 19, (1, 19), [(list(range(1, 20)), 20, "x1^10")], 20,
                             [quadratics(20)] + odd)
        self.assert_refused(capsys, code)

    def test_dense_odd_coordinates(self, capsys, tmp_path):
        # t1*t2*t3 at three coordinates holding all 1,140 cubic monomials over
        # 20 generators has up to C(20, 9) = 167,960 terms, though C(20, 3) = 1,140
        rng = random.Random(3)
        cubic = [[(m, rng.randint(1, 9)) for m in itertools.combinations(range(1, 21), 3)] for _ in range(3)]
        self.assert_refused(capsys, self.evaluate(tmp_path, 0, 3, (0, 1), [([1, 2, 3], 1, "1")], 20, cubic))

    def test_prefix_products(self, capsys, tmp_path):
        # t1..t20 at linear odd coordinates over 20 generators is one term, but
        # the walk first forms t1..t10 with up to C(20, 10) = 184,756 terms
        rng = random.Random(5)
        coords = [[((i,), rng.randint(1, 9)) for i in range(1, 21)] for _ in range(20)]
        self.assert_refused(capsys, self.evaluate(tmp_path, 0, 20, (1, 0), [(list(range(1, 21)), 1, "1")], 20, coords))

    def test_zero_skeleton_is_evaluated(self, tmp_path):
        with pytest.raises(Reached):
            self.evaluate(tmp_path, 1, 0, (1, 0), [], 1, [[((), 3)]])
