"""Command-line interface: subcommands, exit codes, byte-exact documented outputs."""

import json
import random

import pytest

from superpoints import SuperMatrix, SuperSpace, jsonio
from superpoints.cli import main
from superpoints.sampling import random_invertible_matrix, random_point


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


class TestDeterminism:
    def test_identical_invocations_identical_bytes(self, capsys):
        results = set()
        for _ in range(3):
            code, out, err = run_cli(capsys, "eval", "-n", "3", "(1+t1)*(2+t2*t3) - 1/3")
            results.add((code, out, err))
        assert len(results) == 1
