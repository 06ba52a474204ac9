import json
import subprocess
import sys
from fractions import Fraction

import pytest

from nlie.cli import main
from nlie.io import ProblemFileError, emit_problem, load_problem, parse_problem

NILP_FILE = {
    "schema_version": "1",
    "n": 3,
    "g": {"dim": 4, "bracket": [{"args": [1, 2, 3], "value": {"4": "1"}}]},
    "V": {"dim": 4},
    "rho": [{"block": [1, 2],
             "matrix": [["0", "0", "0", "0"], ["0", "0", "0", "0"],
                        ["0", "0", "0", "0"], ["0", "0", "1", "0"]]}],
}

ONE_BLOCK_FILE = {
    "schema_version": "1",
    "n": 3,
    "g": {"dim": 3, "bracket": []},
    "V": {"dim": 2},
    "rho": [{"block": [1, 2], "matrix": [["0", "1"], ["0", "0"]]}],
    "T": [["0", "0"], ["0", "0"], ["1", "2"]],
    "f": ["0", "0", "1"],
    "x0": ["0", "0", "1", "0", "0"],
}


def write(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


def test_parse_basic():
    prob = parse_problem(json.dumps(NILP_FILE))
    assert prob.n == 3
    assert prob.algebra.structure[(0, 1, 2)] == (0, 0, 0, Fraction(1))
    assert prob.rep.action[(0, 1)].column(2) == (0, 0, 0, Fraction(1))


def test_round_trip_identity():
    prob = parse_problem(json.dumps(ONE_BLOCK_FILE))
    emitted = emit_problem(prob)
    back = parse_problem(emitted)
    assert back.algebra.structure == prob.algebra.structure
    assert back.rep.action == prob.rep.action
    assert back.operator == prob.operator
    assert back.covector == prob.covector
    assert back.x0 == prob.x0
    assert emit_problem(back) == emitted


def test_float_rejected():
    bad = dict(NILP_FILE)
    bad["g"] = {"dim": 4, "bracket": [{"args": [1, 2, 3], "value": {"4": 0.5}}]}
    with pytest.raises(ProblemFileError):
        parse_problem(json.dumps(bad))


def test_out_of_range_index():
    bad = dict(NILP_FILE)
    bad["g"] = {"dim": 4, "bracket": [{"args": [1, 2, 9], "value": {"4": 1}}]}
    with pytest.raises(ProblemFileError):
        parse_problem(json.dumps(bad))


def test_unsorted_block():
    bad = dict(NILP_FILE)
    bad["g"] = {"dim": 4, "bracket": [{"args": [2, 1, 3], "value": {"4": 1}}]}
    with pytest.raises(ProblemFileError):
        parse_problem(json.dumps(bad))


def test_json_error_has_position():
    with pytest.raises(ProblemFileError, match="line"):
        parse_problem("{ not json")


def test_cli_verify_pass(tmp_path, capsys):
    path = write(tmp_path, "p.json", NILP_FILE)
    assert main(["verify", path]) == 0
    out = capsys.readouterr().out
    assert "filippov" in out and "pass" in out


def test_cli_verify_fail_with_witness(tmp_path, capsys):
    broken = dict(NILP_FILE)
    broken["g"] = {"dim": 4, "bracket": [
        {"args": [1, 2, 3], "value": {"4": "1"}},
        {"args": [1, 2, 4], "value": {"1": "1"}}]}
    broken["rho"] = []
    path = write(tmp_path, "p.json", broken)
    assert main(["verify", path]) == 1
    out = capsys.readouterr().out
    assert "fail" in out and "witness" in out


def test_cli_missing_T_reported_absent(tmp_path, capsys):
    path = write(tmp_path, "p.json", NILP_FILE)
    main(["verify", path, "--json"])
    report = json.loads(capsys.readouterr().out)
    rb = next(c for c in report["checks"] if c["check"] == "rota_baxter")
    assert rb["status"] == "absent"


def test_cli_input_error(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{")
    assert main(["verify", str(p)]) == 2


def test_cli_missing_file():
    assert main(["verify", "/nonexistent/x.json"]) == 2


def test_cli_cohomology_pair_table(tmp_path, capsys):
    f = {
        "schema_version": "1", "n": 3,
        "g": {"dim": 3, "bracket": []},
        "V": {"dim": 2}, "rho": [],
    }
    path = write(tmp_path, "p.json", f)
    assert main(["cohomology", path, "--max-m", "2", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    table = {row["m"]: row for row in report["table"]}
    assert table[1]["dim_H"] == 6
    assert table[2]["dim_H"] == 18


def test_cli_cohomology_operator_table(tmp_path, capsys):
    f = {
        "schema_version": "1", "n": 3,
        "g": {"dim": 3, "bracket": []},
        "V": {"dim": 2}, "rho": [],
        "T": [["0", "0"], ["0", "0"], ["0", "0"]],
    }
    path = write(tmp_path, "p.json", f)
    assert main(["cohomology", path, "--max-m", "2", "--target", "operator",
                 "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    table = {row["m"]: row for row in report["table"]}
    assert table[0]["dim_H"] == 3
    assert table[1]["dim_H"] == 6
    assert table[2]["dim_H"] == 6


def test_cli_machine_output_deterministic(tmp_path, capsys):
    path = write(tmp_path, "p.json", ONE_BLOCK_FILE)
    main(["cohomology", path, "--max-m", "2", "--target", "operator", "--json"])
    first = capsys.readouterr().out
    main(["cohomology", path, "--max-m", "2", "--target", "operator", "--json"])
    second = capsys.readouterr().out
    assert first == second


def test_cli_deform_check_and_extend(tmp_path, capsys):
    payload = dict(ONE_BLOCK_FILE)
    payload["deformation"] = [[["0", "0"], ["0", "0"], ["0", "0"]]]
    path = write(tmp_path, "p.json", payload)
    assert main(["deform", path, "--action", "check"]) == 0
    capsys.readouterr()
    assert main(["deform", path, "--action", "extend", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["extension"] != "obstructed"


def test_cli_deform_extend_with_empty_degree2_space(tmp_path, capsys):
    """dim V = 1 < n - 1 leaves no degree-2 cochains; d_1 is 0 x 2 and every
    1-cochain solves the empty system, so the zero extension is returned."""
    payload = {"schema_version": "1", "n": 3, "g": {"dim": 2, "bracket": []},
               "V": {"dim": 1}, "rho": [], "T": [["1"], ["0"]],
               "deformation": [[["0"], ["1"]]]}
    path = write(tmp_path, "p.json", payload)
    assert main(["deform", path, "--action", "extend", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["extension"] == [["0"], ["0"]]


def test_cli_deform_invalid_jet_reports_order(tmp_path, capsys):
    """Valid first coefficient, garbage second: the order-2 equation fails
    and the failing order plus tuple surface in the report."""
    from nlie import Matrix, NLieAlgebra, SpaceSpec, adjoint_rep
    from nlie.io import Problem
    alg = NLieAlgebra(2, SpaceSpec(3, "g"), {
        (0, 1): [0, 2, 0], (0, 2): [0, 0, -2], (1, 2): [1, 0, 0]})
    prob = Problem(2, alg, adjoint_rep(alg))
    prob.operator = Matrix.zero(3, 3)
    prob.deformation = [Matrix([[2, -1, -1], [2, -1, 2], [-2, -2, 0]]),
                        Matrix([[1, 0, 0], [0, 0, 0], [0, 0, 0]])]
    path = tmp_path / "p.json"
    path.write_text(emit_problem(prob))
    code = main(["deform", str(path), "--action", "check", "--json"])
    report = json.loads(capsys.readouterr().out)
    entry = next(c for c in report["checks"] if c["check"] == "order_validity")
    assert code == 1
    assert entry["status"] == "fail"
    assert entry["witness"]["order"] == 2
    assert len(entry["witness"]["tuple"]) == 2


def test_cli_deform_equivalence(tmp_path, capsys):
    payload = dict(ONE_BLOCK_FILE)
    zero = [["0", "0"], ["0", "0"], ["0", "0"]]
    payload["deformation"] = [zero]
    payload["deformation_prime"] = [zero]
    path = write(tmp_path, "p.json", payload)
    assert main(["deform", path, "--action", "equivalence", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    entry = next(c for c in report["checks"] if c["check"] == "equivalence")
    assert entry["result"] == "equivalent"


def test_cli_lift_roundtrip(tmp_path, capsys):
    path = write(tmp_path, "p.json", ONE_BLOCK_FILE)
    out = str(tmp_path / "raised.json")
    assert main(["lift", path, "--out", out]) == 0
    capsys.readouterr()
    raised = load_problem(out)
    assert raised.n == 4
    # emitted file verifies at the higher arity
    assert main(["verify", out]) == 0


def test_cli_lift_inadmissible(tmp_path, capsys):
    payload = dict(NILP_FILE)
    payload["f"] = ["0", "0", "0", "1"]
    path = write(tmp_path, "p.json", payload)
    assert main(["lift", path]) == 1
    out = capsys.readouterr().out
    assert "fail" in out


def test_cli_lift_chain_checks(tmp_path, capsys):
    payload = dict(ONE_BLOCK_FILE)
    payload["cochains"] = [
        {"space": "operator", "degree": 1,
         "entries": [{"blocks": [], "tail": 1, "value": {"1": "1"}}]},
        {"space": "pair", "degree": 2,
         "entries": [{"blocks": [[1, 2]], "tail": 1, "value": {"1": "1/2"}}]},
    ]
    path = write(tmp_path, "p.json", payload)
    code = main(["lift", path, "--json"])
    report = json.loads(capsys.readouterr().out)
    names = [c["check"] for c in report["checks"]]
    assert any(n.startswith("operator_chain_map") for n in names)
    assert any(n.startswith("pair_chain_map") for n in names)
    assert code == 0


def test_cli_deform_obstructed_end_to_end(tmp_path, capsys):
    """The frozen nontrivial obstruction class surfaces as 'obstructed'."""
    from nlie import Matrix, NLieAlgebra, SpaceSpec, adjoint_rep
    from nlie.io import Problem
    alg = NLieAlgebra(2, SpaceSpec(3, "g"), {
        (0, 1): [0, 2, 0], (0, 2): [0, 0, -2], (1, 2): [1, 0, 0]})
    prob = Problem(2, alg, adjoint_rep(alg))
    prob.operator = Matrix.zero(3, 3)
    prob.deformation = [Matrix([[2, -1, -1], [2, -1, 2], [-2, -2, 0]])]
    path = tmp_path / "sl2.json"
    path.write_text(emit_problem(prob))
    assert main(["deform", str(path), "--action", "extend", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["extension"] == "obstructed"


def test_cli_lift_degree0_chain_map(tmp_path, capsys):
    """A supplied normalized central element turns on the degree-0 check."""
    path = write(tmp_path, "p.json", ONE_BLOCK_FILE)
    assert main(["lift", str(path), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    entry = next(c for c in report["checks"]
                 if c["check"] == "operator_chain_map_degree0")
    assert entry["status"] == "pass"


def test_cli_lift_unnormalized_x0_skips_degree0(tmp_path, capsys):
    payload = dict(ONE_BLOCK_FILE)
    payload["x0"] = ["0", "0", "2", "0", "0"]   # central but f(x0) = 2
    path = write(tmp_path, "p.json", payload)
    assert main(["lift", str(path), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    entry = next(c for c in report["checks"]
                 if c["check"] == "operator_chain_map_degree0")
    assert entry["status"] == "skipped"


def test_console_script_runs():
    proc = subprocess.run([sys.executable, "-m", "nlie.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "verify" in proc.stdout
