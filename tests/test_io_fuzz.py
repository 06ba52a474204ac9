"""Fuzzing the problem-file contract: one node of a valid file is replaced
by a small JSON value at any depth.  Parsing either yields a Problem or
raises ProblemFileError, and `nlie verify` answers with exit 0, 1 or 2."""
import json
import os
import tempfile

from hypothesis import example, given, settings
from hypothesis import strategies as st

from nlie.cli import main
from nlie.io import Problem, ProblemFileError, parse_problem

# rationals are strings here, so the JSON integers are exactly the schema's
# integer fields: n, dimensions, indices, degrees and tails
BASE = {
    "schema_version": "1",
    "n": 3,
    "g": {"dim": 3, "bracket": [{"args": [1, 2, 3], "value": {"3": "0"}}]},
    "V": {"dim": 2},
    "rho": [{"block": [1, 2], "matrix": [["0", "1"], ["0", "0"]]}],
    "T": [["0", "0"], ["0", "0"], ["1", "2"]],
    "deformation": [[["0", "0"], ["0", "0"], ["1", "0"]]],
    "f": ["0", "0", "1"],
    "x0": ["0", "0", "1", "0", "0"],
    "cochains": [{"space": "pair", "degree": 2, "entries": [
        {"blocks": [[1, 2]], "tail": 3, "value": {"1": "1/2"}}]}],
}


def _paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        for k, v in node.items():
            yield from _paths(v, prefix + (k,))
    elif isinstance(node, list):
        for i, v in enumerate(node):
            yield from _paths(v, prefix + (i,))


PATHS = list(_paths(BASE))

SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-10, 10), st.floats(width=16),
    st.text(max_size=4), st.sampled_from(["1", "3", "-1", "1/2", "1/0", "2.5"]))
VALUES = st.recursive(SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=3),
    st.dictionaries(st.text(max_size=3), inner, max_size=3)), max_leaves=6)


def _replace(doc, path, value):
    if not path:
        return value
    out = json.loads(json.dumps(doc))
    node = out
    for k in path[:-1]:
        node = node[k]
    node[path[-1]] = value
    return out


def _get(doc, path):
    for k in path:
        doc = doc[k]
    return doc


def _is_json_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def test_base_file_is_valid():
    prob = parse_problem(json.dumps(BASE))
    assert prob.deformation and prob.cochains and prob.operator is not None


@settings(deadline=None, max_examples=300)
@given(path=st.sampled_from(PATHS), value=VALUES)
@example(path=("deformation",), value=5)
@example(path=("cochains", 0, "degree"), value=True)
@example(path=("cochains", 0, "entries", 0, "tail"), value=True)
def test_one_replaced_node_is_an_input_error_or_a_problem(path, value):
    text = json.dumps(_replace(BASE, path, value))
    try:
        parsed = parse_problem(text)
    except ProblemFileError:
        parsed = None
    else:
        assert isinstance(parsed, Problem)
    if _is_json_int(_get(BASE, path)) and not _is_json_int(value):
        assert parsed is None, "a schema integer accepted another JSON type"
    with tempfile.TemporaryDirectory() as tmp:
        fname = os.path.join(tmp, "p.json")
        with open(fname, "w", encoding="utf-8") as fh:
            fh.write(text)
        assert main(["verify", fname]) in (0, 1, 2)
