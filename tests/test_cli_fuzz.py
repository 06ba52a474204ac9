"""Fuzzing the exit-code contract of `nlie` over its arguments: any mix of
command, `--target`, `--action`, `--max-m` and problem file ends in exit 0
(checks pass), 1 (a check failed) or 2 (input or usage error), never in a
traceback.  The corpus reaches cochains, a non-central `x0`, a cochain
too deep to lift and a deep cochain over a zero module, and `--max-m`
reaches degrees the size guard refuses (d_6 of the valid file's pair
complex has 6.4M entries).  Everything runs
in-process."""
import contextlib
import io
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nlie.cli import main

ONE_BLOCK = {
    "schema_version": "1",
    "n": 3,
    "g": {"dim": 3, "bracket": []},
    "V": {"dim": 2},
    "rho": [{"block": [1, 2], "matrix": [["0", "1"], ["0", "0"]]}],
    "T": [["0", "0"], ["0", "0"], ["1", "2"]],
    "deformation": [[["0", "0"], ["0", "0"], ["0", "0"]]],
    "deformation_prime": [[["0", "0"], ["0", "0"], ["0", "0"]]],
    "f": ["0", "0", "1"],
    "x0": ["0", "0", "1", "0", "0"],
}

# the adjoint pair of heis3 with T = 0 and a non-central x0 = e_1 ⊕ 0; no
# file cochain has degree 0, so lifting them never reads x0
HEIS3_NON_CENTRAL_X0 = {
    "schema_version": "1",
    "n": 2,
    "g": {"dim": 3, "bracket": [{"args": [1, 2], "value": {"3": "1"}}]},
    "V": {"dim": 3},
    "rho": [{"block": [1], "matrix": [["0", "0", "0"], ["0", "0", "0"], ["0", "1", "0"]]},
            {"block": [2], "matrix": [["0", "0", "0"], ["0", "0", "0"], ["-1", "0", "0"]]}],
    "T": [["0", "0", "0"], ["0", "0", "0"], ["0", "0", "0"]],
    "f": ["1", "0", "0"],
    "x0": ["1", "0", "0", "0", "0", "0"],
    "cochains": [
        {"space": "pair", "degree": 2,
         "entries": [{"blocks": [[1]], "tail": 2, "value": {"3": "1"}}]},
        {"space": "operator", "degree": 2,
         "entries": [{"blocks": [[1]], "tail": 2, "value": {"1": "1"}}]},
    ],
}

CORPUS = {
    "valid": json.dumps(ONE_BLOCK),
    # a second action block that breaks the representation identity (exit 1)
    "broken": json.dumps({**ONE_BLOCK, "rho": ONE_BLOCK["rho"] + [
        {"block": [1, 3], "matrix": [["0", "0"], ["1", "0"]]}]}),
    "zero-module": json.dumps({"schema_version": "1", "n": 2,
                               "g": {"dim": 2, "bracket": []}, "V": {"dim": 0},
                               "T": [[], []], "deformation": [[[], []]]}),
    "malformed": '{"n": 3, "g": ',
    "non-central-x0": json.dumps(HEIS3_NON_CENTRAL_X0),
    # the heis3 pair and f with an empty degree-12 pair cochain, whose
    # differentials `lift` refuses (exit 2) instead of building
    "deep-cochain": json.dumps({
        **{k: v for k, v in HEIS3_NON_CENTRAL_X0.items() if k not in ("T", "x0")},
        "cochains": [{"space": "pair", "degree": 12, "entries": []}]}),
    # heis3 and f acting on a zero module with an empty degree-8 pair
    # cochain: every differential is 0 x 0, but d_7 walks 6561 x 2187 keys
    "zero-module-deep": json.dumps({
        **{k: v for k, v in HEIS3_NON_CENTRAL_X0.items() if k not in ("T", "x0", "rho")},
        "V": {"dim": 0}, "rho": [],
        "cochains": [{"space": "pair", "degree": 8, "entries": []}]}),
}


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("argv")
    paths = {}
    for name, text in CORPUS.items():
        paths[name] = root / f"{name}.json"
        paths[name].write_text(text)
    return paths


def run(argv: list[str]) -> int:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return main(argv)
        except SystemExit as e:  # argparse usage errors
            return e.code


def test_broken_file_fails_a_check(corpus):
    assert run(["verify", str(corpus["broken"])]) == 1
    assert run(["verify", str(corpus["valid"])]) == 0


@settings(deadline=None, max_examples=100)
@given(command=st.sampled_from(["verify", "cohomology", "deform", "lift"]),
       name=st.sampled_from(sorted(CORPUS)),
       target=st.none() | st.sampled_from(["pair", "operator"]),
       action=st.none() | st.sampled_from(["check", "extend", "equivalence"]),
       max_m=st.none() | st.integers(-1, 8),
       as_json=st.booleans())
@example(command="deform", name="zero-module", target=None, action="extend",
         max_m=None, as_json=True)
@example(command="lift", name="non-central-x0", target=None, action=None,
         max_m=None, as_json=True)
@example(command="lift", name="deep-cochain", target=None, action=None,
         max_m=None, as_json=True)
@example(command="lift", name="zero-module-deep", target=None, action=None,
         max_m=None, as_json=True)
@example(command="cohomology", name="zero-module-deep", target="pair", action=None,
         max_m=8, as_json=True)
def test_every_argv_exits_0_1_or_2(corpus, command, name, target, action, max_m, as_json):
    argv = [command, str(corpus[name])]
    if target is not None:
        argv += ["--target", target]
    if action is not None:
        argv += ["--action", action]
    if max_m is not None:
        argv += ["--max-m", str(max_m)]
    if as_json:
        argv.append("--json")
    assert run(argv) in (0, 1, 2)
