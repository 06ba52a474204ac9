import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from nlie import (BlockMap, Matrix, NLieAlgebra, Representation, SpaceSpec, abelian,
                  adjoint_rep, cli, zero_representation)
from nlie.cli import main, oversized_differential
from nlie.io import (Problem, ProblemFileError, emit_problem, load_problem,
                     parse_problem)
from nlie.linalg import basis_vec

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


def test_duplicate_bracket_args_rejected(tmp_path, capsys):
    """A second entry for the same args would silently overwrite the first."""
    bad = dict(NILP_FILE)
    bad["g"] = {"dim": 4, "bracket": [{"args": [1, 2, 3], "value": {"4": 1}},
                                      {"args": [1, 2, 3], "value": {"1": 1}}]}
    with pytest.raises(ProblemFileError,
                       match=r"g\.bracket\[1\]: duplicate args.*g\.bracket\[0\]"):
        parse_problem(json.dumps(bad))
    assert main(["verify", write(tmp_path, "p.json", bad)]) == 2
    assert "g.bracket[1]" in capsys.readouterr().err


def test_duplicate_rho_block_rejected(tmp_path, capsys):
    bad = dict(NILP_FILE)
    zero = [["0"] * 4 for _ in range(4)]
    bad["rho"] = NILP_FILE["rho"] + [{"block": [1, 2], "matrix": zero}]
    with pytest.raises(ProblemFileError, match=r"rho\[1\]: duplicate block.*rho\[0\]"):
        parse_problem(json.dumps(bad))
    assert main(["verify", write(tmp_path, "p.json", bad)]) == 2
    assert "rho[1]" in capsys.readouterr().err


def test_duplicate_cochain_entry_rejected(tmp_path, capsys):
    bad = dict(ONE_BLOCK_FILE)
    entry = {"blocks": [[1, 2]], "tail": 1, "value": {"1": "1"}}
    bad["cochains"] = [{"space": "pair", "degree": 2,
                        "entries": [entry, {**entry, "value": {"2": "1"}}]}]
    with pytest.raises(ProblemFileError,
                       match=r"cochains\[0\]\.entries\[1\]: duplicate .*"
                             r"cochains\[0\]\.entries\[0\]"):
        parse_problem(json.dumps(bad))
    assert main(["lift", write(tmp_path, "p.json", bad)]) == 2
    assert "cochains[0].entries[1]" in capsys.readouterr().err


@pytest.mark.parametrize("command, payload, where", [
    ("verify", {**NILP_FILE, "g": {"dim": 4, "bracket": [
        {"args": [1, 2, 3], "value": {"4": "1", "04": "0"}}]}},
     "g.bracket[0].value['04']: duplicate coordinate 4, already given at "
     "g.bracket[0].value['4']"),
    ("lift", {**ONE_BLOCK_FILE, "cochains": [{"space": "pair", "degree": 2, "entries": [
        {"blocks": [[1, 2]], "tail": 3, "value": {"1": "1", "001": "-1"}}]}]},
     "cochains[0].entries[0].value['001']: duplicate coordinate 1, already given at "
     "cochains[0].entries[0].value['1']"),
], ids=["bracket", "cochain"])
def test_duplicate_coordinate_rejected(tmp_path, capsys, command, payload, where):
    """"4" and "04" name one coordinate; the later value would silently win
    (here it would zero the only bracket)."""
    with pytest.raises(ProblemFileError, match=re.escape(where)):
        parse_problem(json.dumps(payload))
    assert main([command, write(tmp_path, "p.json", payload)]) == 2
    assert where in capsys.readouterr().err


@pytest.mark.parametrize("old, new, key", [
    ('{"schema_version"', '{"n": 2, "schema_version"', "n"),       # n = 3 would win
    ('"value": {"4": "1"}', '"value": {"4": "1", "4": "0"}', "4"),  # 0 would win
], ids=["top-level", "nested"])
def test_duplicate_json_key_rejected(tmp_path, capsys, old, new, key):
    """json keeps the last of two equal keys, at the top level or nested."""
    text = json.dumps(NILP_FILE)
    assert text.count(old) == 1
    text = text.replace(old, new)
    with pytest.raises(ProblemFileError, match=f"duplicate key '{key}'"):
        parse_problem(text)
    path = tmp_path / "p.json"
    path.write_text(text)
    assert main(["verify", str(path)]) == 2
    assert f"duplicate key '{key}'" in capsys.readouterr().err


@pytest.mark.parametrize("field, where", [
    (("g", "bracket"), "g.bracket[1]"),
    (("rho",), "rho[1]"),
    (("cochains",), "cochains[1]"),
    (("cochains", 0, "entries"), "cochains[0].entries[1]"),
])
def test_non_object_entry_rejected(tmp_path, capsys, field, where):
    """A list entry that is not an object is an input error with its
    location, not a traceback."""
    bad = json.loads(json.dumps(ONE_BLOCK_FILE))
    bad["g"]["bracket"] = [{"args": [1, 2, 3], "value": {}}]
    bad["cochains"] = [{"space": "pair", "degree": 1, "entries": [
        {"blocks": [], "tail": 1, "value": {"1": "1"}}]}]
    target = bad
    for k in field:
        target = target[k]
    target.append(5)
    with pytest.raises(ProblemFileError, match=re.escape(f"{where}: expected an object")):
        parse_problem(json.dumps(bad))
    assert main(["verify", write(tmp_path, "p.json", bad)]) == 2
    assert where in capsys.readouterr().err


@pytest.mark.parametrize("field", ["deformation", "deformation_prime"])
def test_non_list_deformation_rejected(tmp_path, capsys, field):
    """A deformation field that is not a list is an input error, not a
    TypeError traceback."""
    bad = {**ONE_BLOCK_FILE, field: 5}
    with pytest.raises(ProblemFileError, match=re.escape(f"{field}: expected a list")):
        parse_problem(json.dumps(bad))
    assert main(["verify", write(tmp_path, "p.json", bad)]) == 2
    assert field in capsys.readouterr().err


BOOL_BASE = {
    "schema_version": "1",
    "n": 2,
    "g": {"dim": 1, "bracket": []},
    "V": {"dim": 0},
    "rho": [],
    "cochains": [{"space": "pair", "degree": 1, "entries": [
        {"blocks": [], "tail": 1, "value": {}}]}],
}


@pytest.mark.parametrize("field, value, where", [
    (("g", "dim"), True, "g.dim"),
    (("V", "dim"), False, "V.dim"),
    (("cochains", 0, "degree"), True, "cochains[0]: degree"),
    (("cochains", 0, "entries", 0, "tail"), True, "cochains[0]: tail"),
])
def test_boolean_integers_rejected(tmp_path, capsys, field, value, where):
    """JSON booleans are not integers, even though Python's bool is an int."""
    bad = json.loads(json.dumps(BOOL_BASE))
    assert parse_problem(json.dumps(bad)).n == 2
    target = bad
    for k in field[:-1]:
        target = target[k]
    target[field[-1]] = value
    with pytest.raises(ProblemFileError, match=re.escape(where)):
        parse_problem(json.dumps(bad))
    assert main(["verify", write(tmp_path, "p.json", bad)]) == 2
    assert where in capsys.readouterr().err


@pytest.mark.parametrize("value", [
    "1e3", "2.5", " 1/2 ", "+3", "1_000", "1/-2", "٣",
    # ten characters that Fraction(str) would expand to a billion digits
    "1e999999999",
])
def test_rational_string_grammar(tmp_path, capsys, value):
    """A rational string is -?[0-9]+(/[0-9]+)?: no decimal point, exponent,
    sign '+', spaces, underscores or non-ASCII digits."""
    bad = {**NILP_FILE, "g": {"dim": 4, "bracket": [
        {"args": [1, 2, 3], "value": {"4": value}}]}}
    where = "g.bracket[0]: bad rational"
    with pytest.raises(ProblemFileError, match=re.escape(where)):
        parse_problem(json.dumps(bad))
    assert main(["verify", write(tmp_path, "p.json", bad)]) == 2
    assert where in capsys.readouterr().err


@pytest.mark.parametrize("value, expected", [
    ("-3", Fraction(-3)), ("-07/14", Fraction(-1, 2)), ("12/8", Fraction(3, 2)),
    (-2, Fraction(-2))])
def test_rational_grammar_accepts(value, expected):
    good = {**NILP_FILE, "g": {"dim": 4, "bracket": [
        {"args": [1, 2, 3], "value": {"4": value}}]}}
    assert parse_problem(json.dumps(good)).algebra.structure == {(0, 1, 2): (0, 0, 0, expected)}


@pytest.mark.parametrize("key", ["0_4", " 4", "+4", "4 ", "٤"])
def test_index_key_grammar(tmp_path, capsys, key):
    """Sparse-vector keys are plain decimal digits; int() would read every
    one of these as index 4."""
    bad = {**NILP_FILE, "g": {"dim": 4, "bracket": [
        {"args": [1, 2, 3], "value": {key: "1"}}]}}
    where = "g.bracket[0]: bad index key"
    with pytest.raises(ProblemFileError, match=re.escape(where)):
        parse_problem(json.dumps(bad))
    assert main(["verify", write(tmp_path, "p.json", bad)]) == 2
    assert where in capsys.readouterr().err


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


@pytest.mark.parametrize("target, lowest", [("pair", 1), ("operator", 0)])
def test_cli_cohomology_max_m_range(tmp_path, capsys, target, lowest):
    """Below the first degree the table would be empty with verdict true;
    the CLI refuses such a --max-m as an input error."""
    path = write(tmp_path, "p.json", ONE_BLOCK_FILE)
    for bad in (lowest - 1, -3):
        with pytest.raises(SystemExit) as exc:
            main(["cohomology", path, "--max-m", str(bad), "--target", target])
        assert exc.value.code == 2
        assert "--max-m" in capsys.readouterr().err
    assert main(["cohomology", path, "--max-m", str(lowest), "--target", target,
                 "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert [row["m"] for row in report["table"]] == [lowest]


class Built(Exception):
    """Raised by a differential builder that must not be reached."""


def forbid_builds(monkeypatch):
    def build(*args):
        raise Built
    monkeypatch.setattr(cli, "coboundary_matrix", build)
    monkeypatch.setattr(cli, "rb_coboundary_matrix", build)


def cross4_problem() -> Problem:
    """The adjoint pair of the 4-dimensional 3-Lie algebra with the zero
    operator: |C^m| = 6^(m-1)·16 for both targets."""
    alg = NLieAlgebra(3, SpaceSpec(4, "g"), {
        (0, 1, 2): [0, 0, 0, 1], (0, 1, 3): [0, 0, -1, 0],
        (0, 2, 3): [0, 1, 0, 0], (1, 2, 3): [-1, 0, 0, 0]})
    return Problem(3, alg, adjoint_rep(alg), operator=Matrix.zero(4, 4))


@pytest.mark.parametrize("target", ["pair", "operator"])
def test_size_guard_refuses_before_building(tmp_path, capsys, monkeypatch, target):
    """cross4's d_4 (20736 x 3456, 71.7M entries) is refused with exit 2
    before anything is built; d_3 (1.99M entries) and --no-size-limit get
    through to the builder, which here raises instead of building."""
    forbid_builds(monkeypatch)
    path = tmp_path / "cross4.json"
    path.write_text(emit_problem(cross4_problem()))
    argv = ["cohomology", str(path), "--target", target, "--json"]
    assert main(argv + ["--max-m", "4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "d_4 would be a 20736 x 3456 matrix (71663616 entries)" in captured.err
    assert "--no-size-limit" in captured.err
    assert main(argv + ["--max-m", "9"]) == 2
    assert "d_4 would be" in capsys.readouterr().err
    with pytest.raises(Built):
        main(argv + ["--max-m", "4", "--no-size-limit"])
    with pytest.raises(Built):
        main(argv + ["--max-m", "3"])


def test_size_guard_closed_form():
    prob = cross4_problem()
    limit = cli.MAX_DIFFERENTIAL_ENTRIES
    assert 3456 * 576 <= limit < 20736 * 3456
    for target in ("pair", "operator"):
        assert oversized_differential(prob, 3, target, limit) is None
        assert oversized_differential(prob, 4, target, limit) == (4, 20736, 3456)
        # the scan stops at the first refused degree, whatever --max-m is
        assert oversized_differential(prob, 10 ** 9, target, limit) == (4, 20736, 3456)
        assert oversized_differential(prob, 2, target, 576 * 96 - 1) == (2, 576, 96)
        assert oversized_differential(prob, 2, target, 576 * 96) is None
    # the pair's scan starts at d_1 (96 x 16)
    assert oversized_differential(prob, 1, "pair", 96 * 16 - 1) == (1, 96, 16)
    # the operator's degree 0: d_0 is 3000 x 3000 for dim g = 3000, dim V = 1
    wide = abelian(2, 3000)
    assert oversized_differential(Problem(2, wide, zero_representation(wide, 1)),
                                  0, "operator", limit) == (0, 3000, 3000)
    # the walk bound applies only once C(d, n−1) ≤ 1: the plane's d_1 on a
    # line (4 x 2, C(2, 1) = 2) costs 8, not (4 + 1)·(2 + 1)·1³ = 15
    plane = abelian(2, 2)
    assert oversized_differential(Problem(2, plane, zero_representation(plane, 1)),
                                  1, "pair", 8) is None
    # sizes that stop growing, with C(2, 2) = 1 and C(1, 2) = 0 blocks over V,
    # still cost (rows + 1)·(cols + 1)·m³ per degree, so the scan ends
    small = abelian(3, 3)
    for dv, big in ((2, (44, 6, 6)), (1, (159, 0, 0))):
        prob = Problem(3, small, zero_representation(small, dv))
        assert oversized_differential(prob, 10 ** 9, "operator", limit) == big
        assert oversized_differential(prob, big[0] - 1, "operator", limit) is None


def degenerate_file(dim_g: int, degree: int = 1) -> dict:
    """n = 3 with dim V = 1: C(2, 2) = 1 block for dim g = 2 and C(1, 2) = 0
    for dim g = 1, so |C^m| stops growing, with one empty pair cochain."""
    return {"schema_version": "1", "n": 3, "g": {"dim": dim_g, "bracket": []},
            "V": {"dim": 1}, "rho": [], "f": ["1"] + ["0"] * (dim_g - 1),
            "cochains": [{"space": "pair", "degree": degree, "entries": []}]}


def test_size_guard_charges_every_degree_once_sizes_stop_growing(tmp_path, capsys,
                                                                 monkeypatch):
    """Once C(d, n−1) ≤ 1 each degree still costs (rows + 1)·(cols + 1)·m³,
    so a deep table or cochain is refused with exit 2 before anything is
    built, and --no-size-limit still builds it."""
    wide, narrow = (write(tmp_path, f"g{d}.json", degenerate_file(d)) for d in (2, 1))
    deep = write(tmp_path, "deep.json", degenerate_file(2, degree=1001))
    walk = "d_77 is 2 x 2, but the walk of degree 77, (2 + 1)·(2 + 1)·77^3 = 4108797"
    with monkeypatch.context() as m:
        forbid_builds(m)
        for max_m in ("100", "400"):
            assert main(["cohomology", wide, "--max-m", max_m, "--json"]) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and walk in captured.err
        assert main(["cohomology", narrow, "--max-m", "100000", "--json"]) == 2
        assert "d_159 is 0 x 0, but the walk of degree 159" in capsys.readouterr().err
    assert main(["lift", deep, "--json"]) == 2
    assert f"cochains[0] (pair, degree 1001) at arity 3: {walk}" in capsys.readouterr().err
    assert main(["cohomology", wide, "--max-m", "78", "--no-size-limit", "--json"]) == 0
    assert len(json.loads(capsys.readouterr().out)["table"]) == 78


def sl2_problem(e23=(1, 0, 0), operator=None) -> str:
    """The adjoint pair of sl2, with [e2, e3] replaced by the given value."""
    table = {(0, 1): [0, 2, 0], (0, 2): [0, 0, -2]}
    ad = adjoint_rep(NLieAlgebra(2, SpaceSpec(3, "g"), {**table, (1, 2): [1, 0, 0]}))
    alg = NLieAlgebra(2, SpaceSpec(3, "g"), {**table, (1, 2): list(e23)})
    return emit_problem(Problem(2, alg, Representation(alg, ad.module, ad.action),
                                operator=operator))


def test_cohomology_of_an_invalid_structure(tmp_path, capsys, monkeypatch):
    """A non-operator gets no operator table, and a negative dim H^m, which
    proves d_m∘d_{m−1} != 0, fails the `complex` check; both exit 1."""
    path = tmp_path / "sl2.json"
    path.write_text(sl2_problem(operator=Matrix([[1, 0, 0], [0, 0, 1], [0, 0, 0]])))
    with monkeypatch.context() as m:
        forbid_builds(m)
        assert main(["cohomology", str(path), "--target", "operator", "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["table"] == []
    assert report["checks"] == [{"check": "rota_baxter", "status": "fail", "witness": [1, 3],
                                 "detail": "operator identity fails"}]
    path.write_text(sl2_problem(e23=(2, 0, 0)))
    assert main(["cohomology", str(path), "--max-m", "3", "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert [row["dim_H"] for row in report["table"]] == [1, -2, -12]
    assert report["checks"] == [{"check": "complex", "status": "fail",
                                 "detail": "dim H^2 = -2 < 0, so d_2∘d_1 != 0"}]
    path.write_text(sl2_problem())
    assert main(["cohomology", str(path), "--max-m", "3", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["checks"] == []


def heis3_deep_cochain_file(degree: int) -> dict:
    """The adjoint pair of heis3 with f = e^1 and one empty pair cochain:
    |C^m| = 3^(m+1) at arity 2 and at the raised arity 3."""
    return {"schema_version": "1", "n": 2,
            "g": {"dim": 3, "bracket": [{"args": [1, 2], "value": {"3": "1"}}]},
            "V": {"dim": 3},
            "rho": [{"block": [1], "matrix": [["0", "0", "0"], ["0", "0", "0"], ["0", "1", "0"]]},
                    {"block": [2], "matrix": [["0", "0", "0"], ["0", "0", "0"], ["-1", "0", "0"]]}],
            "f": ["1", "0", "0"],
            "cochains": [{"space": "pair", "degree": degree, "entries": []}]}


def test_lift_refuses_a_cochain_with_an_oversized_differential(tmp_path, capsys):
    """d_6 (6561 x 2187) is over the limit, so a degree-8 cochain is refused
    before any chain-map work; degree 5 (d_5: 2187 x 729) still lifts."""
    path = write(tmp_path, "deep8.json", heis3_deep_cochain_file(8))
    assert main(["lift", path, "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert ("cochains[0] (pair, degree 8) at arity 2: d_6 would be a 6561 x 2187 matrix "
            "(14348907 entries), over the limit of 4000000") in captured.err
    assert main(["lift", write(tmp_path, "deep5.json", heis3_deep_cochain_file(5)), "--json"]) == 0


def test_size_guard_counts_the_keys_of_a_zero_module(tmp_path, capsys):
    """With dim V = 0 every differential is 0 x 0, but each cochain walk
    still visits all 3^m keys of heis3's degree-m cochains, so d_7 (6561 x
    2187 keys) is refused for `cohomology --max-m 13` and for a degree-8
    cochain; a degree-6 cochain still lifts."""
    def zero_module_file(degree):
        payload = {**heis3_deep_cochain_file(degree), "V": {"dim": 0}, "rho": []}
        return write(tmp_path, f"zero{degree}.json", payload)

    keys = "d_7 is zero but would walk 6561 x 2187 cochain keys (14348907 pairs)"
    assert main(["cohomology", zero_module_file(8), "--max-m", "13", "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and keys in captured.err and "matrix" not in captured.err
    assert main(["lift", zero_module_file(8), "--json"]) == 2
    assert f"cochains[0] (pair, degree 8) at arity 2: {keys}" in capsys.readouterr().err
    assert main(["lift", zero_module_file(6), "--json"]) == 0


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


def test_cli_deform_extend_with_zero_dim_module(tmp_path, capsys):
    """dim V = 0: every cochain space of positive degree is empty, and the
    extension is the 2 x 0 matrix."""
    payload = {"schema_version": "1", "n": 2, "g": {"dim": 2, "bracket": []},
               "V": {"dim": 0}, "T": [[], []], "deformation": [[[], []]]}
    path = write(tmp_path, "p.json", payload)
    assert main(["deform", path, "--action", "extend", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["extension"] == [[], []]


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


SL2 = {(0, 1): [0, 2, 0], (0, 2): [0, 0, -2], (1, 2): [1, 0, 0]}


@pytest.mark.parametrize("t, jet, status, order", [
    # T = id breaks the identity on sl2: [u, v] = 2[u, v]
    (Matrix.identity(3), [Matrix.zero(3, 3)], "fail", 0),
    # T = 0 holds; the garbage second coefficient fails order 2
    (Matrix.zero(3, 3), [Matrix([[2, -1, -1], [2, -1, 2], [-2, -2, 0]]),
                         Matrix([[1, 0, 0], [0, 0, 0], [0, 0, 0]])], "pass", 2),
])
def test_cli_deform_reads_the_operator_identity_off_order_0(tmp_path, capsys, monkeypatch,
                                                            t, jet, status, order):
    """`deform --action check|extend` gives verify's `rota_baxter` entry,
    read off order 0 of the jet: check_rb does not run."""
    alg = NLieAlgebra(2, SpaceSpec(3, "g"), SL2)
    prob = Problem(2, alg, adjoint_rep(alg), operator=t, deformation=jet)
    path = tmp_path / "p.json"
    path.write_text(emit_problem(prob))
    assert main(["verify", str(path), "--json"]) == (status == "fail")
    verify = json.loads(capsys.readouterr().out)["checks"]
    calls = []
    monkeypatch.setattr(cli, "check_rb", lambda *args: calls.append(args))
    for action in ("check", "extend"):
        assert main(["deform", str(path), "--action", action, "--json"]) == 1
        checks = json.loads(capsys.readouterr().out)["checks"]
        assert checks[0] == next(c for c in verify if c["check"] == "rota_baxter")
        assert checks[0]["status"] == status
        assert checks[1]["check"] == "order_validity"
        assert checks[1]["witness"]["order"] == order
        if status == "fail":
            assert checks[1]["witness"]["tuple"] == checks[0]["witness"]
    assert calls == []


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


def test_cli_lift_raises_the_pair_once(tmp_path, capsys, monkeypatch):
    """One raised pair serves every chain-map check: the degree-0 wedges and
    two pair and two operator cochains make one `raise_arity_rep` call, and
    the two induced pairs (of T and of the lifted T) one `operator_rep` each."""
    import nlie.lift
    import nlie.rota_baxter
    calls = {"raise_arity_rep": 0, "operator_rep": 0}

    def counted(module, name):
        inner = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return inner(*args)
        monkeypatch.setattr(module, name, wrapper)

    for module, name in ((cli, "raise_arity_rep"), (nlie.lift, "raise_arity_rep"),
                         (nlie.rota_baxter, "operator_rep")):
        counted(module, name)
    payload = dict(ONE_BLOCK_FILE)
    payload["cochains"] = [
        {"space": space, "degree": 2,
         "entries": [{"blocks": [[1, 2]], "tail": 1, "value": {"1": "1/2"}}]}
        for space in ("pair", "operator", "pair", "operator")]
    assert main(["lift", write(tmp_path, "p.json", payload), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert [c["check"] for c in report["checks"]][-5:] == [
        "operator_chain_map_degree0", "pair_chain_map[0]", "operator_chain_map[1]",
        "pair_chain_map[2]", "operator_chain_map[3]"]
    assert calls == {"raise_arity_rep": 1, "operator_rep": 2}


def test_cli_lift_checks_x0_centrality_once(tmp_path, capsys, monkeypatch):
    """`x0_central` and the degree-0 square on all three basis wedges of the
    one-block file share one `is_central` call."""
    import nlie.lift
    calls = []
    inner = nlie.lift.is_central

    def wrapper(*args):
        calls.append(args)
        return inner(*args)

    for module in (cli, nlie.lift):
        monkeypatch.setattr(module, "is_central", wrapper)
    assert main(["lift", write(tmp_path, "p.json", ONE_BLOCK_FILE), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    entries = {c["check"]: c["status"] for c in report["checks"]}
    assert entries["x0_central"] == entries["operator_chain_map_degree0"] == "pass"
    assert len(calls) == 1


def test_cli_verify_runs_the_direct_pair_checkers_only_on_failure(tmp_path, capsys,
                                                                  monkeypatch):
    """A valid pair passes `filippov` and `representation` on its [δ, δ]
    alone; a broken one runs each direct checker once, for its witness."""
    import nlie.core
    calls = []

    def counted(name):
        inner = getattr(nlie.core, name)

        def wrapper(*args):
            calls.append(name)
            return inner(*args)
        for module in (cli, nlie.core):
            monkeypatch.setattr(module, name, wrapper)

    for name in ("check_filippov", "check_representation"):
        counted(name)
    assert main(["verify", write(tmp_path, "ok.json", NILP_FILE), "--json"]) == 0
    capsys.readouterr()
    assert calls == []
    broken = dict(ONE_BLOCK_FILE, rho=ONE_BLOCK_FILE["rho"] + [
        {"block": [1, 3], "matrix": [["0", "0"], ["1", "0"]]}])
    assert main(["verify", write(tmp_path, "broken.json", broken), "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["checks"][:2] == [
        {"check": "filippov", "status": "pass"},
        {"check": "representation", "status": "fail", "witness": [[1, 2], [1, 3]],
         "detail": "commutator identity fails"}]
    assert sorted(calls) == ["check_filippov", "check_representation"]


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


NON_OPERATOR = Matrix([[1, 2, 0], [0, 1, 3], [1, 0, 1]])


def test_cli_deform_equivalence_stops_at_a_non_operator(tmp_path, capsys, monkeypatch):
    """Equivalence of deformations is defined only for an operator T: a
    failing `rota_baxter` is the whole report, and no gauge is searched."""
    monkeypatch.setattr(cli, "find_equivalence", None)
    payload = json.loads(sl2_problem(operator=NON_OPERATOR))
    payload["deformation"] = [[["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]]
    payload["deformation_prime"] = [[["0"] * 3] * 3]
    path = write(tmp_path, "p.json", payload)
    assert main(["deform", path, "--action", "equivalence", "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["checks"] == [{"check": "rota_baxter", "status": "fail", "witness": [1, 2],
                                 "detail": "operator identity fails"}]


def heis3_plus_line() -> NLieAlgebra:
    """heis3 ⊕ R e4: e4 is central and outside [g, g], so f = e4* is
    admissible with f(e4) = 1."""
    return NLieAlgebra(2, SpaceSpec(4, "g"), {(0, 1): [0, 0, 1, 0]})


@pytest.mark.parametrize("alg, t, f, x0", [
    # (-1)^(n-1)·f(x0_g) = 1, so an operator would get the degree-0 square
    (heis3_plus_line(), Matrix.identity(4), (0, 0, 0, 1), (0, 0, 0, -1, 0, 0, 0, 0)),
    # heis3, whose x0 = e3 is central but not normalized
    (NLieAlgebra(2, SpaceSpec(3, "g"), {(0, 1): [0, 0, 1]}), NON_OPERATOR, (1, 0, 0),
     (0, 0, 1, 0, 0, 0)),
], ids=["normalized-x0", "heis3"])
def test_cli_lift_skips_the_operator_squares_of_a_non_operator(tmp_path, capsys, monkeypatch,
                                                                alg, t, f, x0):
    """A T that fails `rota_baxter` gets no degree-0 square and no operator
    chain map, each `skipped` with the reason; `x0_central` and the pair
    chain map do not depend on T and are still checked."""
    for name in ("degree0_chain_map_holds", "operator_chain_map_holds"):
        monkeypatch.setattr(cli, name, None)
    d = alg.dim
    prob = Problem(2, alg, adjoint_rep(alg), operator=t, covector=f, x0=x0)
    spec = SpaceSpec(d, "g")
    prob.cochains = [("operator", BlockMap(2, 0, spec, spec, {(0,): basis_vec(d, 0)})),
                     ("operator", BlockMap(2, 1, spec, spec, {((0,), 1): basis_vec(d, 1)})),
                     ("pair", BlockMap(2, 1, spec, spec, {((0,), 1): basis_vec(d, 2)}))]
    path = tmp_path / "p.json"
    path.write_text(emit_problem(prob))
    assert main(["lift", str(path), "--json"]) == 1
    entries = {c["check"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    assert entries["rota_baxter"]["status"] == "fail"
    assert entries["x0_central"]["status"] == "pass"
    assert entries["pair_chain_map[2]"]["status"] == "pass"
    skipped = {"status": "skipped", "detail": "T fails rota_baxter"}
    for name in ("operator_chain_map[0]", "operator_chain_map[1]", "operator_chain_map_degree0"):
        assert entries[name] == {"check": name, **skipped}


def test_console_script_runs():
    proc = subprocess.run([sys.executable, "-m", "nlie.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "verify" in proc.stdout


def test_main_builds_one_parser_and_answers_like_fresh_processes(tmp_path, capsys):
    """`main` builds its parser once per process.  Calls in turn with every
    command, a refused `--max-m` among them, give the exit codes and the
    output of one fresh process per call."""
    payload = dict(ONE_BLOCK_FILE)
    payload["deformation"] = [[["0", "0"], ["0", "0"], ["0", "0"]]]
    path = write(tmp_path, "p.json", payload)
    calls = [["verify", path, "--json"],
             ["cohomology", path, "--max-m", "-1", "--json"],
             ["deform", path, "--action", "extend", "--json"],
             ["lift", path, "--json"]]
    in_process = []
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
        out = capsys.readouterr()
        in_process.append((code, out.out, out.err))
    paths = [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    fresh = [subprocess.run([sys.executable, "-m", "nlie.cli", *argv], capture_output=True,
                            text=True, env=env) for argv in calls]
    assert [(p.returncode, p.stdout, p.stderr) for p in fresh] == in_process
    assert [code for code, _, _ in in_process] == [0, 2, 0, 0]
    assert all(json.loads(out)["verdict"] for code, out, _ in in_process if code == 0)
    assert cli._parser() is cli._parser()


# --- symplectic forms in `verify` ----------------------------------------------

NILP4_OMEGA = [["0", "0", "0", "1"], ["0", "0", "1", "0"],
               ["0", "-1", "0", "0"], ["-1", "0", "0", "0"]]


def test_cli_verify_passes_the_nilp4_form(tmp_path, capsys):
    path = write(tmp_path, "p.json", dict(NILP_FILE, omega=NILP4_OMEGA))
    assert main(["verify", path, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert {"check": "symplectic", "status": "pass"} in report["checks"]


def test_cli_verify_names_where_an_incompatible_form_fails(tmp_path, capsys):
    """ω = e¹∧e² + e³∧e⁴ on h3 ⊕ R is skew and nondegenerate, but (ωᵀ)⁻¹ is
    no operator on the coadjoint pair: the witness is the failing increasing
    pair of g* indices, 1-based."""
    payload = {"schema_version": "1", "n": 2,
               "g": {"dim": 4, "bracket": [{"args": [1, 2], "value": {"3": "1"}}]},
               "V": {"dim": 1}, "rho": [],
               "omega": [["0", "1", "0", "0"], ["-1", "0", "0", "0"],
                         ["0", "0", "0", "1"], ["0", "0", "-1", "0"]]}
    assert main(["verify", write(tmp_path, "p.json", payload), "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] is False
    assert [c for c in report["checks"] if c["status"] == "fail"] == [
        {"check": "symplectic", "status": "fail", "witness": [1, 2],
         "detail": "compatibility fails"}]


# --- lift: x0 ----------------------------------------------------------------------

@pytest.mark.parametrize("x0, central", [((1, 0, 0), False), ((0, 0, 1), True)])
def test_cli_lift_checks_x0_without_T(tmp_path, capsys, x0, central):
    """Centrality does not depend on T: without one, x0 is still checked,
    the degree-0 square (which needs T) is not reported, and the operator
    cochains are `absent`."""
    payload = dict(heis3_deep_cochain_file(1), x0=[*map(str, x0), "0", "0", "0"])
    payload["cochains"] = [{"space": "operator", "degree": d, "entries": []} for d in (1, 2)]
    assert main(["lift", write(tmp_path, "p.json", payload), "--json"]) == (0 if central else 1)
    checks = json.loads(capsys.readouterr().out)["checks"]
    names = [c["check"] for c in checks]
    assert "operator_chain_map_degree0" not in names
    assert checks[names.index("x0_central")] == {
        "check": "x0_central", "status": "pass" if central else "fail"}
    for i in (0, 1):
        assert checks[names.index(f"operator_chain_map[{i}]")]["status"] == "absent"


@pytest.mark.parametrize("sign, status", [(-1, "pass"), (1, "skipped")])
def test_cli_lift_normalizes_x0_with_the_sign_of_the_arity(tmp_path, capsys, sign, status):
    """At n = 2 the degree-0 square needs (−1)^(n−1)·f(x0_g) = −f(x0_g) = 1:
    on heis3 ⊕ R with f = e⁴* and the zero operator, x0 = −e4 gets the
    square and x0 = e4 is not normalized."""
    alg = heis3_plus_line()
    x0 = (0, 0, 0, sign, 0, 0, 0, 0)
    prob = Problem(2, alg, adjoint_rep(alg), operator=Matrix.zero(4, 4),
                   covector=(0, 0, 0, 1), x0=x0)
    path = tmp_path / "p.json"
    path.write_text(emit_problem(prob))
    assert main(["lift", str(path), "--json"]) == 0
    entry = next(c for c in json.loads(capsys.readouterr().out)["checks"]
                 if c["check"] == "operator_chain_map_degree0")
    assert entry["status"] == status
    if status == "skipped":
        assert entry["detail"] == "x0 not normalized: (-1)^(n-1)·f(x0_g) != 1"


def test_cli_lift_notes_the_antisymmetrized_component(tmp_path, capsys):
    """A degree-2 pair cochain on heis3 is checked on its wedge-tail
    component, and the entry says so only when that differs from the file's
    cochain."""
    payload = heis3_deep_cochain_file(2)
    one = {"blocks": [[1]], "tail": 2, "value": {"3": "1"}}
    payload["cochains"] = [{"space": "pair", "degree": 2, "entries": entries}
                           for entries in ([one], [one, {**one, "blocks": [[2]], "tail": 1,
                                                         "value": {"3": "-1"}}])]
    main(["lift", write(tmp_path, "p.json", payload), "--json"])
    entries = {c["check"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    assert entries["pair_chain_map[0]"]["detail"] == "antisymmetrized wedge-tail component"
    assert "detail" not in entries["pair_chain_map[1]"]


# --- deform: the gauge ---------------------------------------------------------------

def test_cli_deform_equivalence_writes_1_based_gauge_keys(tmp_path, capsys):
    """On the one-block file, T₁' − T₁ = d(e1∧e2) for T₁ = 0: the gauge is
    e1∧e2, keyed 1-based."""
    zero = [["0", "0"], ["0", "0"], ["0", "0"]]
    payload = dict(ONE_BLOCK_FILE, deformation=[zero],
                   deformation_prime=[[["0", "0"], ["0", "0"], ["0", "1"]]])
    path = write(tmp_path, "p.json", payload)
    assert main(["deform", path, "--action", "equivalence", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["gauge"] == {"1^2": "1"}


# --- the parser and the writer ----------------------------------------------------------

def test_repeated_index_is_an_input_error(tmp_path, capsys):
    bad = dict(NILP_FILE)
    bad["g"] = {"dim": 4, "bracket": [{"args": [1, 1, 2], "value": {"4": 1}}]}
    assert main(["verify", write(tmp_path, "p.json", bad)]) == 2
    assert "g.bracket[0]: indices must be strictly increasing" in capsys.readouterr().err


def test_block_cochains_survive_a_round_trip():
    """Blocks and tails are 1-based in the file and 0-based inside, both
    ways; the file is written with a 2-space indent."""
    cochain = {"space": "pair", "degree": 2,
               "entries": [{"blocks": [[3, 4]], "tail": 4, "value": {"1": 1}},
                           {"blocks": [[1, 2]], "tail": 1, "value": {"4": "-1/2"}}]}
    prob = parse_problem(json.dumps(dict(NILP_FILE, cochains=[cochain])))
    (space, bm), = prob.cochains
    assert space == "pair" and bm.blocks == 1
    assert bm.table == {((2, 3), 3): (1, 0, 0, 0), ((0, 1), 0): (0, 0, 0, Fraction(-1, 2))}
    emitted = emit_problem(prob)
    assert json.loads(emitted)["cochains"] == [{**cochain, "entries": cochain["entries"][::-1]}]
    assert emitted.splitlines()[1] == '  "V": {'
    assert parse_problem(emitted).cochains[0][1].table == bm.table


# --- the size guard's messages at the limit -------------------------------------------------

def test_size_refusal_at_the_limit():
    """A cost equal to the limit is admitted.  abelian(3, 3) on a 2-dim
    module has C(2, 2) = 1, so the operator's d_1 is 6 x 6 = 36 entries but
    costs (6 + 1)·(6 + 1)·1³ = 49 as a walk, and the refusal names the walk
    while the matrix itself is within the limit."""
    cross4 = cross4_problem()
    for target in ("pair", "operator"):
        assert cli.size_refusal(cross4, 2, target, 576 * 96) is None
        assert cli.size_refusal(cross4, 2, target, 576 * 96 - 1) == (
            "d_2 would be a 576 x 96 matrix (55296 entries), over the limit of 55295")
    small = abelian(3, 3)
    prob = Problem(3, small, zero_representation(small, 2))
    assert cli.size_refusal(prob, 1, "operator", 49) is None
    for limit in (36, 48):
        assert cli.size_refusal(prob, 1, "operator", limit) == (
            f"d_1 is 6 x 6, but the walk of degree 1, (6 + 1)·(6 + 1)·1^3 = 49, "
            f"is over the limit of {limit}")
    assert cli.size_refusal(prob, 1, "operator", 35) == (
        "d_1 would be a 6 x 6 matrix (36 entries), over the limit of 35")
