"""JSON problem files: parsing, validation, emission.

Indices are 1-based in files (and sorted), 0-based inside the engine.  The
parser converts them on the way in; on the way out `emit_problem` (with
`_emit_value`) and the CLI's report writers (`cli._fmt_witness` and the gauge
keys of `deform --action equivalence`) add 1.  Rationals travel as JSON integers
or as strings of the form `-?[0-9]+(/[0-9]+)?` — floats, and decimal or
exponent strings, are rejected so nothing inexact can leak into the
computation and no short string can stand for a huge number.  No JSON
object may name a key twice.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Iterator, Optional, Union

from .core import NLieAlgebra, Representation
from .linalg import Matrix, Vec, vector
from .multilinear import BlockMap, SpaceSpec
from .rota_baxter import RBOperator

SCHEMA_VERSION = "1"
_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")
_INDEX_KEY = re.compile(r"[0-9]+")


class ProblemFileError(ValueError):
    """Input problems: malformed JSON, bad indices, inexact numbers."""


def _rat(x: Any, where: str) -> Fraction:
    if isinstance(x, bool) or isinstance(x, float):
        raise ProblemFileError(f"{where}: numbers must be exact (int or 'p/q' string)")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        if not _RATIONAL.fullmatch(x):
            raise ProblemFileError(f"{where}: bad rational {x!r}: expected 'p' or 'p/q' "
                                   "with decimal digits")
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as e:
            raise ProblemFileError(f"{where}: bad rational {x!r}: {e}") from None
    raise ProblemFileError(f"{where}: bad rational {x!r}")


def _rat_str(x: Fraction) -> Union[int, str]:
    if x.denominator == 1:
        return int(x)
    return f"{x.numerator}/{x.denominator}"


def _is_int(x: Any) -> bool:
    """A JSON integer: `true` and `false` are ints to Python, not to the schema."""
    return isinstance(x, int) and not isinstance(x, bool)


def _indices(raw: Any, size: int, dim: int, where: str) -> tuple[int, ...]:
    if not isinstance(raw, list) or len(raw) != size:
        raise ProblemFileError(f"{where}: expected {size} indices")
    out = []
    for i in raw:
        if not _is_int(i) or not 1 <= i <= dim:
            raise ProblemFileError(f"{where}: index {i!r} out of range 1..{dim}")
        out.append(i - 1)
    if any(a >= b for a, b in zip(out, out[1:])):
        raise ProblemFileError(f"{where}: indices must be strictly increasing")
    return tuple(out)


def _claim(seen: dict, key: Any, where: str, what: str) -> None:
    """Record that `where` gives `key`; a second entry for it is an error."""
    if key in seen:
        raise ProblemFileError(f"{where}: duplicate {what}, already given at {seen[key]}")
    seen[key] = where


def _sparse_vec(raw: Any, dim: int, where: str) -> Vec:
    if not isinstance(raw, dict):
        raise ProblemFileError(f"{where}: expected an index->rational map")
    out = [Fraction(0)] * dim
    seen: dict = {}
    for k, v in raw.items():
        if not _INDEX_KEY.fullmatch(k):
            raise ProblemFileError(f"{where}: bad index key {k!r}")
        i = int(k)
        if not 1 <= i <= dim:
            raise ProblemFileError(f"{where}: index {i} out of range 1..{dim}")
        _claim(seen, i, f"{where}.value[{k!r}]", f"coordinate {i}")
        out[i - 1] = _rat(v, where)
    return tuple(out)


def _objects(raw: Any, where: str) -> Iterator[tuple[str, dict]]:
    """(location, entry) for each entry of a list of objects."""
    if not isinstance(raw, list):
        raise ProblemFileError(f"{where}: expected a list of objects")
    for i, item in enumerate(raw):
        loc = f"{where}[{i}]"
        if not isinstance(item, dict):
            raise ProblemFileError(f"{loc}: expected an object")
        yield loc, item


def _matrix(raw: Any, rows: int, cols: int, where: str) -> Matrix:
    if not isinstance(raw, list) or len(raw) != rows or \
            any(not isinstance(r, list) or len(r) != cols for r in raw):
        raise ProblemFileError(f"{where}: expected a {rows}x{cols} matrix")
    return Matrix([[_rat(x, where) for x in r] for r in raw])


@dataclass
class Problem:
    """Parsed problem file: the pair plus whatever optional data came along."""
    n: int
    algebra: NLieAlgebra
    rep: Representation
    operator: Optional[Matrix] = None
    covector: Optional[Vec] = None
    omega: Optional[Matrix] = None
    deformation: list[Matrix] = field(default_factory=list)
    deformation_prime: list[Matrix] = field(default_factory=list)
    x0: Optional[Vec] = None
    cochains: list[tuple[str, BlockMap]] = field(default_factory=list)

    @property
    def dim_g(self) -> int:
        return self.algebra.dim

    @property
    def dim_v(self) -> int:
        return self.rep.dim_v

    def rb_operator(self) -> Optional[RBOperator]:
        if self.operator is None:
            return None
        return RBOperator(self.rep, self.operator)


def _parse_cochain(raw: dict, n: int, dim_g: int, dim_v: int,
                   where: str) -> tuple[str, BlockMap]:
    space = raw.get("space")
    if space not in ("pair", "operator"):
        raise ProblemFileError(f"{where}: space must be 'pair' or 'operator'")
    degree = raw.get("degree")
    if not _is_int(degree) or degree < 1:
        raise ProblemFileError(f"{where}: degree must be a positive integer")
    blocks = degree - 1
    if space == "pair":
        sdim, tdim = dim_g, dim_v
        src, tgt = SpaceSpec(dim_g, "g"), SpaceSpec(dim_v, "V")
    else:
        sdim, tdim = dim_v, dim_g
        src, tgt = SpaceSpec(dim_v, "V"), SpaceSpec(dim_g, "g")
    table = {}
    seen: dict = {}
    for loc, e in _objects(raw.get("entries", []), f"{where}.entries"):
        braw = e.get("blocks", [])
        if not isinstance(braw, list) or len(braw) != blocks:
            raise ProblemFileError(f"{where}: expected {blocks} blocks per entry")
        key_blocks = tuple(_indices(b, n - 1, sdim, where) for b in braw)
        tail = e.get("tail")
        if not _is_int(tail) or not 1 <= tail <= sdim:
            raise ProblemFileError(f"{where}: tail out of range")
        key = key_blocks + (tail - 1,)
        _claim(seen, key, loc, "(blocks, tail)")
        table[key] = _sparse_vec(e.get("value", {}), tdim, loc)
    return space, BlockMap(n, blocks, src, tgt, table)


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict:
    """A JSON object that names no key twice (json keeps the last silently)."""
    out = {}
    for k, v in pairs:
        if k in out:
            raise ProblemFileError(f"duplicate key {k!r} in a JSON object")
        out[k] = v
    return out


def parse_problem(text: str) -> Problem:
    try:
        raw = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as e:
        raise ProblemFileError(f"JSON parse error at line {e.lineno}, column {e.colno}: {e.msg}") from None
    if not isinstance(raw, dict):
        raise ProblemFileError("top level must be an object")
    version = raw.get("schema_version", SCHEMA_VERSION)
    if str(version) != SCHEMA_VERSION:
        raise ProblemFileError(f"unsupported schema_version {version!r}")
    n = raw.get("n")
    if not _is_int(n) or n < 2:
        raise ProblemFileError("n must be an integer >= 2")
    g = raw.get("g")
    if not isinstance(g, dict) or not _is_int(g.get("dim")) or g["dim"] < 1:
        raise ProblemFileError("g.dim must be a positive integer")
    dim_g = g["dim"]
    structure = {}
    seen: dict = {}
    for where, item in _objects(g.get("bracket", []), "g.bracket"):
        args = _indices(item.get("args"), n, dim_g, where)
        _claim(seen, args, where, "args")
        structure[args] = _sparse_vec(item.get("value", {}), dim_g, where)
    algebra = NLieAlgebra(n, SpaceSpec(dim_g, "g"), structure)
    v = raw.get("V")
    if not isinstance(v, dict) or not _is_int(v.get("dim")) or v["dim"] < 0:
        raise ProblemFileError("V.dim must be a nonnegative integer")
    dim_v = v["dim"]
    action = {}
    seen = {}
    for where, item in _objects(raw.get("rho", []), "rho"):
        block = _indices(item.get("block"), n - 1, dim_g, where)
        _claim(seen, block, where, "block")
        action[block] = _matrix(item.get("matrix"), dim_v, dim_v, where)
    rep = Representation(algebra, SpaceSpec(dim_v, "V"), action)
    prob = Problem(n, algebra, rep)
    if "T" in raw:
        prob.operator = _matrix(raw["T"], dim_g, dim_v, "T")
    if "f" in raw:
        fr = raw["f"]
        if not isinstance(fr, list) or len(fr) != dim_g:
            raise ProblemFileError("f must be a list of dim(g) rationals")
        prob.covector = vector([_rat(x, "f") for x in fr])
    if "omega" in raw:
        prob.omega = _matrix(raw["omega"], dim_g, dim_g, "omega")
    for name in ("deformation", "deformation_prime"):
        mats = raw.get(name, [])
        if not isinstance(mats, list):
            raise ProblemFileError(f"{name}: expected a list of matrices")
        for i, m in enumerate(mats):
            getattr(prob, name).append(_matrix(m, dim_g, dim_v, f"{name}[{i}]"))
    if "x0" in raw:
        x0 = raw["x0"]
        if not isinstance(x0, list) or len(x0) != dim_g + dim_v:
            raise ProblemFileError("x0 must be a list of dim(g)+dim(V) rationals")
        prob.x0 = vector([_rat(x, "x0") for x in x0])
    for where, c in _objects(raw.get("cochains", []), "cochains"):
        prob.cochains.append(_parse_cochain(c, n, dim_g, dim_v, where))
    return prob


def load_problem(path: str) -> Problem:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_problem(fh.read())


def _emit_matrix(m: Matrix) -> list[list]:
    return [[_rat_str(x) for x in row] for row in m.entries]


def _emit_value(val: Vec) -> dict[str, Union[int, str]]:
    """A vector as the sparse 1-based index -> rational map of the schema."""
    return {str(i + 1): _rat_str(x) for i, x in enumerate(val) if x != 0}


def emit_problem(prob: Problem) -> str:
    """Serialize back to the file schema, stable-ordered."""
    alg = prob.algebra
    out: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "n": prob.n,
        "g": {
            "dim": alg.dim,
            "bracket": [
                {"args": [i + 1 for i in key], "value": _emit_value(val)}
                for key, val in sorted(alg.structure.items())
            ],
        },
        "V": {"dim": prob.dim_v},
        "rho": [
            {"block": [i + 1 for i in key], "matrix": _emit_matrix(mat)}
            for key, mat in sorted(prob.rep.action.items())
        ],
    }
    if prob.operator is not None:
        out["T"] = _emit_matrix(prob.operator)
    if prob.covector is not None:
        out["f"] = [_rat_str(x) for x in prob.covector]
    if prob.omega is not None:
        out["omega"] = _emit_matrix(prob.omega)
    if prob.deformation:
        out["deformation"] = [_emit_matrix(m) for m in prob.deformation]
    if prob.deformation_prime:
        out["deformation_prime"] = [_emit_matrix(m) for m in prob.deformation_prime]
    if prob.x0 is not None:
        out["x0"] = [_rat_str(x) for x in prob.x0]
    if prob.cochains:
        out["cochains"] = [
            {"space": space, "degree": bm.blocks + 1,
             "entries": [
                 {"blocks": [[i + 1 for i in blk] for blk in key[:-1]],
                  "tail": key[-1] + 1, "value": _emit_value(val)}
                 for key, val in sorted(bm.table.items())
             ]}
            for space, bm in prob.cochains
        ]
    return json.dumps(out, indent=2, sort_keys=True) + "\n"
