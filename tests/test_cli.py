"""Command-line interface: subcommands, exit codes, byte-exact documented outputs."""

import argparse
import contextlib
import io
import json
import random
import time
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superpoints import GrassmannElement, LambdaPoint, SuperMatrix, SuperSpace, cli, jsonio, lift_multilinear
from superpoints.cli import family_from_json, main
from superpoints.sampling import random_invertible_matrix, random_multilinear, random_point


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDocumentedExamples:
    def test_eval_reordered_product(self, capsys):
        code, out, err = run_cli(capsys, "eval", "-n", "2", "t2*t1")
        assert (code, out, err) == (0, "-t1*t2\n", "")

    def test_strace_identity(self, capsys, tmp_path):
        m = SuperMatrix.identity(SuperSpace(2, 3), 0)
        path = tmp_path / "identity.json"
        path.write_text(json.dumps(jsonio.matrix_to_json(m)))
        code, out, err = run_cli(capsys, "strace", str(path))
        assert (code, out, err) == (0, "-1\n", "")

    def test_inv_zero_body(self, capsys):
        code, out, err = run_cli(capsys, "inv", "-n", "2", "t1")
        assert (code, out, err) == (1, "", "not invertible: zero body\n")


class TestEval:
    def test_json_output(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "-n", "2", "--json", "1 + t1*t2")
        assert code == 0
        assert json.loads(out) == {
            "n": 2,
            "terms": [{"idx": [], "coeff": "1"}, {"idx": [1, 2], "coeff": "1"}],
        }

    def test_superfunction_mode(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "-p", "1", "-q", "2", "x1^2 + t2*t1")
        assert code == 0
        assert out == "x1^2 - t1*t2\n"

    def test_huge_power_of_nilpotent_generator(self, capsys):
        for context in (["-n", "3"], ["-p", "1", "-q", "3"]):
            code, out, err = run_cli(capsys, "eval", *context, "t1^99999999")
            assert (code, out, err) == (0, "0\n", "")

    def test_parse_error_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "eval", "-n", "2", "t1 + $")
        assert code == 2
        assert "offset 5" in err

    def test_out_of_range_generator_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "eval", "-n", "2", "t3")
        assert code == 2
        assert "t3" in err

    def test_missing_context_exit_1(self, capsys):
        code, _, err = run_cli(capsys, "eval", "t1")
        assert code == 1

    def test_stdin_input(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("t1 + t2"))
        code, out, _ = run_cli(capsys, "eval", "-n", "2", "--file", "-")
        assert (code, out) == (0, "t1 + t2\n")


class TestPowerLimit:
    """``^`` refuses a power whose part free of nilpotents would be too large, before any work."""

    @pytest.mark.parametrize("argv, exponent", [
        (["-p", "1", "-q", "1", "(2+x1)^999999"], "999999"),
        (["-n", "2", "(2+t1)^99999999"], "99999999"),
    ])
    def test_too_large_exits_1_at_once(self, capsys, argv, exponent):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "eval", *argv)
        assert time.perf_counter() - start < 2
        assert (code, out) == (1, "")
        assert err.startswith(f"exponent {exponent} ") and "Traceback" not in err

    @pytest.mark.parametrize("text, want", [
        ("t1^999999999", "0"),
        ("(t1+t2)^99999999", "0"),
        ("(1+t1)^1000000", "1 + 1000000*t1"),
    ])
    def test_nilpotent_and_unit_bodies_pass(self, capsys, text, want):
        assert run_cli(capsys, "eval", "-n", "2", text) == (0, want + "\n", "")

    def test_power_within_the_limit(self, capsys):
        terms = ["1", "3000*x1"] + [f"{comb(3000, j)}*x1^{j}" for j in range(2, 3000)] + ["x1^3000"]
        assert run_cli(capsys, "eval", "-p", "1", "-q", "1", "(1+x1)^3000") == (0, f"({' + '.join(terms)})\n", "")

    def test_too_many_terms_exits_1_at_once(self, capsys):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "eval", "-p", "2", "-q", "0", "(1+x1+x2)^1000")
        assert time.perf_counter() - start < 2
        assert (code, out) == (1, "")
        assert err == "exponent 1000 at offset 10 is too large: the power would exceed 4300 terms\n"

    def test_power_of_one_term_body_is_one_term(self, capsys):
        start = time.perf_counter()
        for text in ("(x1*x2)^100", "x1^100*x2^100"):
            assert run_cli(capsys, "eval", "-p", "2", "-q", "0", text) == (0, "x1^100*x2^100\n", "")
        assert run_cli(capsys, "eval", "-p", "2", "-q", "1", "(x1*x2 + t1)^100") == (
            0, "x1^100*x2^100 + 100*x1^99*x2^99*t1\n", "",
        )
        assert time.perf_counter() - start < 2

    @pytest.mark.parametrize("text, message", [
        ("(x1*x2)^3000", "exponent 3000 at offset 8 is too large: the power would exceed 4300 in degree\n"),
        ("(3*x1*x2)^9100", "exponent 9100 at offset 10 is too large: the power would exceed 4300 digits\n"),
    ])
    def test_one_term_body_keeps_degree_and_digit_bounds(self, capsys, text, message):
        assert run_cli(capsys, "eval", "-p", "2", "-q", "0", text) == (1, "", message)

    def test_exponent_beyond_float_range(self, capsys):
        huge = str(10**400)
        code, out, err = run_cli(capsys, "eval", "-n", "1", f"2^{huge}")
        assert (code, out) == (1, "") and err.startswith(f"exponent {huge} at offset 2 ")
        assert run_cli(capsys, "eval", "-n", "1", f"(1+t1)^{huge}") == (0, f"1 + {huge}*t1\n", "")


class TestDigitLimit:
    """Integers longer than the interpreter converts to or from text get the library's own messages."""

    @pytest.mark.parametrize("text, offset", [("\u00b2", 0), ("t\u00b9", 0)])
    def test_digit_symbols_are_not_digits(self, capsys, text, offset):
        # str.isdigit accepts superscripts, which int() rejects
        code, out, err = run_cli(capsys, "eval", "-n", "1", text)
        assert (code, out) == (2, "")
        assert err.endswith(f"(at offset {offset})\n") and "int()" not in err

    def test_long_literal_is_a_parse_error(self, capsys):
        code, out, err = run_cli(capsys, "eval", "-n", "1", "t1 + " + "7" * 4400)
        assert (code, out) == (2, "")
        assert err == "integer literal of 4400 digits is longer than the limit of 4300 (at offset 5)\n"

    @pytest.mark.parametrize("argv", [
        ["-n", "1", "2^14000*2^14000"],
        ["-n", "1", "--json", "2^14000*2^14000"],
        ["-p", "1", "-q", "0", "(2^14000*x1)*2^14000"],
    ])
    def test_unprintable_result_exits_1(self, capsys, argv):
        code, out, err = run_cli(capsys, "eval", *argv)
        assert (code, out) == (1, "")
        assert err == "the result has a coefficient of more than 4300 digits, too long to print\n"


def _rarely(common, rare):
    """``rare`` one time in eight, else ``common``."""
    return st.tuples(st.integers(0, 7), common, rare).map(lambda t: t[2] if t[0] == 7 else t[1])


@st.composite
def fuzz_expressions(draw):
    """Sums of products of powers of atoms and parenthesised sums of atoms,
    with literals and exponents near and beyond the digit limit."""
    atoms = _rarely(
        st.sampled_from(["0", "1", "2", "12", "3/4", "1/0", "t1", "t2", "t3", "t1*t2", "x1", "x2", "x3"]),
        st.integers(4290, 4310).map(lambda k: "7" * k),
    )
    exponents = _rarely(
        st.integers(0, 30).map(str),
        st.one_of(
            st.sampled_from(["4301", "14000", "99999", str(10**20), str(10**400)]),
            st.integers(4290, 4310).map(lambda k: "9" * k),
        ),
    )

    def factor():
        if draw(st.booleans()):
            text = draw(atoms)
        else:
            text = "(" + " + ".join(draw(st.lists(atoms, min_size=1, max_size=3))) + ")"
        if draw(st.booleans()):
            text += "^" + draw(exponents)
        return text

    def term():
        return " * ".join(factor() for _ in range(draw(st.integers(1, 3))))

    return " - ".join(term() for _ in range(draw(st.integers(1, 2))))


class TestFuzzEval:
    """No expression makes ``eval`` escape, show Python internals or run long."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.one_of(
            st.integers(0, 3).map(lambda n: ["-n", str(n)]),
            st.tuples(st.integers(0, 2), st.integers(0, 2)).map(lambda pq: ["-p", str(pq[0]), "-q", str(pq[1])]),
        ),
        fuzz_expressions(),
        st.booleans(),
    )
    def test_exit_codes_and_messages(self, context, text, as_json):
        argv = ["eval", *context, text] + (["--json"] if as_json else [])
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert time.perf_counter() - start < 2, text[:200]
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue() and "set_int_max_str_digits" not in err.getvalue()
        assert bool(out.getvalue()) == (code == 0)


class TestInv:
    def test_series_inverse(self, capsys):
        code, out, _ = run_cli(capsys, "inv", "-n", "2", "1 + t1*t2")
        assert (code, out) == (0, "1 - t1*t2\n")

    def test_round_trip_property(self, capsys):
        code, out, _ = run_cli(capsys, "inv", "-n", "3", "2 + t1 + t1*t2*t3")
        assert code == 0
        code2, out2, _ = run_cli(capsys, "eval", "-n", "3", f"({out.strip()}) * (2 + t1 + t1*t2*t3)")
        assert (code2, out2) == (0, "1\n")


class TestMatrixCommands:
    def test_minv_round_trip(self, capsys, tmp_path):
        rng = random.Random(1)
        m = random_invertible_matrix(rng, SuperSpace(1, 1), 2)
        path = tmp_path / "m.json"
        path.write_text(json.dumps(jsonio.matrix_to_json(m)))
        code, out, _ = run_cli(capsys, "minv", str(path))
        assert code == 0
        inv = jsonio.matrix_from_json(json.loads(out))
        from superpoints import mat_mul

        assert mat_mul(m, inv) == SuperMatrix.identity(SuperSpace(1, 1), 2)

    def test_minv_singular_exit_1(self, capsys, tmp_path):
        m = SuperMatrix.zero(SuperSpace(1, 0), 1)
        path = tmp_path / "m.json"
        path.write_text(json.dumps(jsonio.matrix_to_json(m)))
        code, _, err = run_cli(capsys, "minv", str(path))
        assert code == 1
        assert "not invertible" in err

    def test_zero_denominator_exit_1(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        entry = {"n": 1, "terms": [{"idx": [], "coeff": "1/0"}]}
        path.write_text(json.dumps({"space": {"p": 1, "q": 0}, "n": 1, "entries": [[entry]]}))
        code, out, err = run_cli(capsys, "strace", str(path))
        assert (code, out, err) == (1, "", "zero denominator in '1/0'\n")

    def test_bad_json_exit_2(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, "strace", str(path))
        assert code == 2
        assert "invalid JSON" in err


class TestSchemaErrors:
    """A document of the wrong shape exits 1 with the JSON path of the bad value."""

    ENTRY = {"n": 1, "terms": [{"idx": [], "coeff": "1"}]}
    CASES = [
        ("strace", [1, 2], "$: expected an object, got an array"),
        ("minv", [1, 2], "$: expected an object, got an array"),
        ("minv", {"space": {"p": 1, "q": 0}, "n": 1, "entries": "abc"}, "$.entries: expected an array, got a string"),
        ("strace", {"space": {"p": 1, "q": 0}, "n": 1, "entries": [["x"]]},
         "$.entries[0][0]: expected an object, got a string"),
        ("strace", {"space": {"p": 1, "q": 0}, "n": 1, "entries": [[{"n": 1, "terms": [{"idx": "1", "coeff": "1"}]}]]},
         "$.entries[0][0].terms[0].idx: expected an array, got a string"),
        ("minv", {"space": {"p": 1, "q": 0}, "entries": [[ENTRY]]}, "$: missing field 'n'"),
        ("skel-compose", {"g": 5, "f": []}, "$.g: expected an object, got an integer"),
        ("skel-eval", {"skeleton": {"domain": {"p": 1, "q": None}}, "point": {}},
         "$.skeleton.domain.q: expected an integer, got null"),
        ("check-nat", {"family": {"domains": [], "codomain": {"p": 1, "q": 0}, "outputs": [{"out": 1, "terms": [{"coeff": 1, "vars": [[1]]}]}]},
                       "morphism": {}, "samples": []},
         "$.family.outputs[0].terms[0].vars[0]: expected a pair"),
        ("lift", {"map": {"domains": [], "codomain": {"p": 1, "q": 0}}, "args": {}},
         "$.args: expected an array, got an object"),
    ]

    @pytest.mark.parametrize("command, doc, message", CASES, ids=[m for _, _, m in CASES])
    def test_exit_1_with_path(self, capsys, tmp_path, command, doc, message):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, command, str(path))
        assert (code, out) == (1, "")
        assert err.startswith(message)
        for internal in ("indices must be integers", "not subscriptable", "object has no attribute", "Traceback"):
            assert internal not in err


class TestLiftReconstructCheckNat:
    FAMILY = {
        "domains": [{"p": 0, "q": 1}, {"p": 0, "q": 1}],
        "codomain": {"p": 1, "q": 0},
        "outputs": [
            {"out": 1, "terms": [{"coeff": "1", "vars": [[2, 1], [1, 1]]}]}
        ],
    }

    def test_lift(self, capsys, tmp_path):
        payload = {
            "map": {
                "domains": [{"p": 0, "q": 1}, {"p": 0, "q": 1}],
                "codomain": {"p": 1, "q": 0},
                "entries": [{"in": [1, 1], "out": 1, "coeff": "1"}],
            },
            "args": [
                {"space": {"p": 0, "q": 1}, "n": 2, "coords": [{"n": 2, "terms": [{"idx": [1], "coeff": "1"}]}]},
                {"space": {"p": 0, "q": 1}, "n": 2, "coords": [{"n": 2, "terms": [{"idx": [2], "coeff": "1"}]}]},
            ],
        }
        path = tmp_path / "lift.json"
        path.write_text(json.dumps(payload))
        code, out, _ = run_cli(capsys, "lift", str(path))
        assert code == 0
        point = json.loads(out)
        assert point["coords"][0]["terms"] == [{"idx": [1, 2], "coeff": "-1"}]

    def test_reconstruct_polynomial_family(self, capsys, tmp_path):
        path = tmp_path / "family.json"
        path.write_text(json.dumps(self.FAMILY))
        code, out, _ = run_cli(capsys, "reconstruct", str(path))
        assert code == 0
        f = jsonio.multilinear_from_json(json.loads(out))
        # the family multiplies second coordinate first, which is exactly the
        # reversed order a lift uses, so the recovered entry is +1
        assert f.entry((1, 1), 1) == 1

    def test_reconstruct_rejects_fixed_constant(self, capsys, tmp_path):
        family = json.loads(json.dumps(self.FAMILY))
        family["outputs"][0]["terms"].append({"coeff": "1", "vars": [], "theta": [1, 2]})
        path = tmp_path / "family.json"
        path.write_text(json.dumps(family))
        code, _, err = run_cli(capsys, "reconstruct", str(path))
        assert code == 1
        assert "witness" in err

    def test_check_nat_reports_violation(self, capsys, tmp_path):
        rng = random.Random(2)
        family = json.loads(json.dumps(self.FAMILY))
        family["outputs"][0]["terms"].append({"coeff": "1", "vars": [], "theta": [1, 2]})
        phi = {"src": 2, "dst": 2, "images": [
            {"n": 2, "terms": []},
            {"n": 2, "terms": [{"idx": [2], "coeff": "1"}]},
        ]}
        samples = [
            [
                jsonio.point_to_json(random_point(rng, SuperSpace(0, 1), 2)),
                jsonio.point_to_json(random_point(rng, SuperSpace(0, 1), 2)),
            ]
        ]
        payload = {"family": family, "morphism": phi, "samples": samples}
        path = tmp_path / "nat.json"
        path.write_text(json.dumps(payload))
        code, out, _ = run_cli(capsys, "check-nat", str(path))
        assert code == 0
        violations = json.loads(out)
        assert len(violations) == 1
        assert violations[0]["lhs"] != violations[0]["rhs"]


class TestFamilyKernel:
    """A JSON point family runs the sum-of-products kernel of ``lift_multilinear``."""

    @settings(max_examples=30, deadline=None)
    @given(st.randoms(use_true_random=False), st.integers(1, 3), st.integers(0, 4))
    def test_reversed_vars_give_the_lift(self, rng, arity, n):
        domains = tuple(SuperSpace(rng.randint(0, 2), rng.randint(1, 2)) for _ in range(arity))
        f = random_multilinear(rng, domains, SuperSpace(1, 1))
        doc = {
            "domains": [{"p": d.p, "q": d.q} for d in domains],
            "codomain": {"p": 1, "q": 1},
            "outputs": [
                {"out": c, "terms": [
                    {"coeff": str(coeff), "vars": [[a + 1, i] for a, i in reversed(list(enumerate(ins)))]}
                    for (ins, out), coeff in sorted(f.coeffs.items()) if out == c
                ]}
                for c in (1, 2)
            ],
        }
        args = tuple(random_point(rng, d, n) for d in domains)
        assert family_from_json(doc)(n, args) == lift_multilinear(f, args)

    def test_theta_factor_vanishes_over_small_algebras(self):
        doc = {"domains": [{"p": 1, "q": 0}], "codomain": {"p": 1, "q": 0}, "outputs": [
            {"out": 1, "terms": [{"coeff": "2", "vars": [[1, 1]], "theta": [1, 2]}, {"coeff": "1", "vars": [[1, 1]]}]},
        ]}
        family = family_from_json(doc)
        x = LambdaPoint(SuperSpace(1, 0), 1, [GrassmannElement(1, {0: 3})])
        assert family(1, (x,)).coords[0] == GrassmannElement(1, {0: 3})
        y = LambdaPoint(SuperSpace(1, 0), 2, [GrassmannElement(2, {0: 3})])
        assert family(2, (y,)).coords[0] == GrassmannElement(2, {0: 3, 0b11: 6})

    def test_wrong_parity_output_exits_1(self, capsys, tmp_path):
        doc = {"domains": [{"p": 0, "q": 1}], "codomain": {"p": 1, "q": 0}, "outputs": [
            {"out": 1, "terms": [{"coeff": "1", "vars": [[1, 1]]}]},
        ]}
        path = tmp_path / "family.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "reconstruct", str(path))
        assert (code, out) == (1, "")
        assert err == "coordinate 1 must be even or zero, got t1\n"


class TestSkeletonCommands:
    SKELETON = {
        "domain": {"p": 1, "q": 2},
        "codomain": {"p": 1, "q": 0},
        "dom_box": None,
        "maps": [
            {"k": 0, "entries": [{"odd_idx": [], "out": 1, "poly": "x1"}]},
            {"k": 1, "entries": []},
            {"k": 2, "entries": [{"odd_idx": [1, 2], "out": 1, "poly": "x1"}]},
        ],
    }

    def test_skel_eval(self, capsys, tmp_path):
        point = {
            "space": {"p": 1, "q": 2},
            "n": 2,
            "coords": [
                {"n": 2, "terms": [{"idx": [], "coeff": "3"}]},
                {"n": 2, "terms": [{"idx": [1], "coeff": "1"}]},
                {"n": 2, "terms": [{"idx": [2], "coeff": "1"}]},
            ],
        }
        path = tmp_path / "eval.json"
        path.write_text(json.dumps({"skeleton": self.SKELETON, "point": point}))
        code, out, _ = run_cli(capsys, "skel-eval", str(path))
        assert code == 0
        value = jsonio.point_from_json(json.loads(out))
        # contribution of the 2-form: -x1 at x1=3 on t1*t2
        from superpoints import GrassmannElement

        assert value.coords[0] == GrassmannElement(2, {0: 3, 0b11: -3})

    def test_skel_compose(self, capsys, tmp_path):
        g = {
            "domain": {"p": 1, "q": 0},
            "codomain": {"p": 1, "q": 0},
            "dom_box": None,
            "maps": [{"k": 0, "entries": [{"odd_idx": [], "out": 1, "poly": "x1^2"}]}],
        }
        path = tmp_path / "compose.json"
        path.write_text(json.dumps({"g": g, "f": self.SKELETON}))
        code, out, _ = run_cli(capsys, "skel-compose", str(path))
        assert code == 0
        composite = json.loads(out)
        degree2 = composite["maps"][2]["entries"]
        assert degree2 == [{"odd_idx": [1, 2], "out": 1, "poly": "2*x1^2"}]


class TestSuperrepAndCsTable:
    def test_builtin_vbar(self, capsys):
        code, out, _ = run_cli(capsys, "superrep-check", "--builtin", "vbar", "-p", "1", "-q", "2", "-n", "4")
        assert code == 0
        verdict = json.loads(out)
        assert verdict == {"superrepresentable": True, "format": {"p": 1, "q": 2}, "reasons": []}

    def test_builtin_vnil_rejected(self, capsys):
        code, out, _ = run_cli(capsys, "superrep-check", "--builtin", "vnil", "-p", "1", "-q", "0", "-n", "4")
        assert code == 0
        verdict = json.loads(out)
        assert not verdict["superrepresentable"]
        assert verdict["reasons"]

    def test_cs_table_text(self, capsys):
        code, out, _ = run_cli(capsys, "cs-table")
        assert code == 0
        assert out == "m(1,1) = 1\nm(1,t) = t\nm(t,1) = t\nm(t,t) = -1\n"

    def test_cs_table_json(self, capsys):
        code, out, _ = run_cli(capsys, "cs-table", "--json")
        assert code == 0
        table = jsonio.multilinear_from_json(json.loads(out))
        assert table.entry((2, 2), 1) == -1


def _element(n, terms):
    return {"n": n, "terms": [{"idx": idx, "coeff": coeff} for idx, coeff in terms]}


def _point(p, q, n, coords):
    return {"space": {"p": p, "q": q}, "n": n, "coords": [_element(n, terms) for terms in coords]}


class TestMalformedCandidate:
    """Basis points outside the ambient space or over the wrong algebra exit 1."""

    CASES = {
        "format 1|0 in a 2|1 ambient": {
            "ambient": {"p": 2, "q": 1},
            "n_max": 1,
            "basis": {"0": [_point(1, 0, 0, [[([], "1")]])], "1": []},
        },
        "1|1 points in a 1|0 ambient": {
            "ambient": {"p": 1, "q": 0},
            "n_max": 1,
            "basis": {
                "0": [_point(1, 1, 0, [[([], "1")], []])],
                "1": [_point(1, 1, 1, [[([], "1")], [([1], "1")]])],
            },
        },
        "basis(0) over 2 generators": {
            "ambient": {"p": 1, "q": 0},
            "n_max": 1,
            "basis": {"0": [_point(1, 0, 2, [[([1, 2], "1")]])], "1": []},
        },
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_exits_1_with_message(self, capsys, tmp_path, case):
        path = tmp_path / "candidate.json"
        path.write_text(json.dumps(self.CASES[case]))
        code, out, err = run_cli(capsys, "superrep-check", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("basis point 0 for n=0 lies in ") and "Traceback" not in err


class TestDeterminism:
    def test_identical_invocations_identical_bytes(self, capsys):
        results = set()
        for _ in range(3):
            code, out, err = run_cli(capsys, "eval", "-n", "3", "(1+t1)*(2+t2*t3) - 1/3")
            results.add((code, out, err))
        assert len(results) == 1


def _candidate(n_max):
    """The point functor of 1|0 as a candidate file: the body 1 over each algebra."""
    one = [([], "1")]
    return {"ambient": {"p": 1, "q": 0}, "n_max": n_max,
            "basis": {str(n): [_point(1, 0, n, [one])] for n in range(n_max + 1)}}


#: the options each subcommand takes, besides its positional
TAKES = {
    "eval": {"--file", "-n", "-p", "-q", "--json"},
    "inv": {"--file", "-n", "--json"},
    "strace": {"--json"},
    "minv": set(),
    "lift": set(),
    "reconstruct": set(),
    "check-nat": set(),
    "skel-eval": set(),
    "skel-compose": set(),
    "superrep-check": {"--builtin", "-n", "-p", "-q"},
    "cs-table": {"--json"},
}
OPTIONS = {"--file": ["--file", "-"], "-n": ["-n", "1"], "-p": ["-p", "1"], "-q": ["-q", "1"],
           "--json": ["--json"], "--builtin": ["--builtin", "vbar"]}
POSITIONAL = {"eval": ["1"], "inv": ["1"], "superrep-check": [], "cs-table": []}


class TestArgumentTable:
    """Each subcommand takes only the arguments its handler reads."""

    def test_table_keys_are_the_subcommands(self):
        (action,) = [a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        assert list(action.choices) == list(cli._COMMANDS) == list(TAKES)

    @pytest.mark.parametrize("command, option", [
        (command, option) for command, takes in TAKES.items() for option in OPTIONS if option not in takes
    ])
    def test_an_option_not_taken_is_a_usage_error(self, capsys, command, option):
        argv = [command, *POSITIONAL.get(command, ["in.json"]), *OPTIONS[option]]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert (exc.value.code, captured.out) == (2, "")
        assert "usage:" in captured.err

    def valid_inputs(self, tmp_path):
        """One valid argv per handler and mode, with its input files."""

        def write(name, doc):
            path = tmp_path / name
            path.write_text(json.dumps(doc))
            return str(path)

        expression = tmp_path / "expr.txt"
        expression.write_text("1 + t1")
        identity = write("identity.json", jsonio.matrix_to_json(SuperMatrix.identity(SuperSpace(1, 1), 1)))
        odd = [_point(0, 1, 2, [[([i], "1")]]) for i in (1, 2)]
        family = TestLiftReconstructCheckNat.FAMILY
        skeleton = TestSkeletonCommands.SKELETON
        point = _point(1, 2, 2, [[([], "3")], [([1], "1")], [([2], "1")]])
        g = {"domain": {"p": 1, "q": 0}, "codomain": {"p": 1, "q": 0}, "dom_box": None,
             "maps": [{"k": 0, "entries": [{"odd_idx": [], "out": 1, "poly": "x1^2"}]}]}
        lift = {"map": {"domains": [{"p": 0, "q": 1}] * 2, "codomain": {"p": 1, "q": 0},
                        "entries": [{"in": [1, 1], "out": 1, "coeff": "1"}]}, "args": odd}
        phi = {"src": 2, "dst": 2, "images": [_element(2, [([1], "1")]), _element(2, [([2], "1")])]}
        return [
            ["eval", "-n", "2", "--json", "t2*t1"],
            ["eval", "-p", "1", "-q", "1", "--file", str(expression)],
            ["inv", "-n", "1", "1 + t1"],
            ["strace", identity],
            ["minv", identity],
            ["lift", write("lift.json", lift)],
            ["reconstruct", write("family.json", family)],
            ["check-nat", write("nat.json", {"family": family, "morphism": phi, "samples": [odd]})],
            ["skel-eval", write("eval.json", {"skeleton": skeleton, "point": point})],
            ["skel-compose", write("compose.json", {"g": g, "f": skeleton})],
            ["superrep-check", write("candidate.json", _candidate(1))],
            ["superrep-check", "--builtin", "vnil", "-p", "1", "-q", "1", "-n", "2"],
            ["cs-table"],
        ]

    def test_handlers_read_exactly_their_arguments(self, capsys, tmp_path):
        class Recording(argparse.Namespace):
            def __getattribute__(self, name):
                if not name.startswith("_"):
                    object.__getattribute__(self, "_read").add(name)
                return object.__getattribute__(self, name)

        declared, read = {}, {}
        for argv in self.valid_inputs(tmp_path):
            values = vars(cli._build_parser().parse_args(argv))
            command = values.pop("command")
            args = Recording(**values)
            object.__setattr__(args, "_read", read.setdefault(command, set()))
            assert cli._COMMANDS[command][0](args) == 0, argv
            declared[command] = set(values)
            capsys.readouterr()
        assert read == declared
        assert set(declared) == set(cli._COMMANDS)

    def test_arithmetic_error_exits_1(self, capsys, monkeypatch):
        def divide(*args):
            raise ZeroDivisionError("division by zero")

        monkeypatch.setattr(cli, "cs_structure", divide)
        assert run_cli(capsys, "cs-table") == (1, "", "division by zero\n")


class TestExclusiveInputs:
    """An input that the chosen mode would not read is refused, not dropped."""

    def test_eval_n_with_p_and_q(self, capsys):
        code, out, err = run_cli(capsys, "eval", "-n", "2", "-p", "1", "-q", "1", "t1")
        assert (code, out, err) == (1, "", "-n (Grassmann mode) and -p/-q (superfunctions) exclude each other\n")

    def test_expression_with_file(self, capsys, tmp_path):
        path = tmp_path / "expr.txt"
        path.write_text("t1")
        for command in ("eval", "inv"):
            code, out, err = run_cli(capsys, command, "-n", "2", "--file", str(path), "1 + t2")
            assert (code, out, err) == (1, "", "an expression and --file exclude each other\n")

    def test_superrep_file_with_builtin(self, capsys, tmp_path):
        path = tmp_path / "candidate.json"
        path.write_text(json.dumps(_candidate(1)))
        code, out, err = run_cli(capsys, "superrep-check", str(path), "--builtin", "vbar", "-p", "1", "-q", "1")
        assert (code, out, err) == (1, "", "a candidate file and --builtin exclude each other\n")

    def test_superrep_file_with_n(self, capsys, tmp_path):
        path = tmp_path / "candidate.json"
        path.write_text(json.dumps(_candidate(1)))
        code, out, err = run_cli(capsys, "superrep-check", str(path), "-n", "4")
        assert (code, out, err) == (1, "", "-n, -p and -q describe a --builtin candidate, not a candidate file\n")
