"""Mutation sweep over the engine's kernels, with the standard library only.

    python tests/mutation_sweep.py

Each mutant rewrites one node inside one kernel of `src/nlie`, through `ast`:
a sign (`+` and `-` swapped, a unary minus dropped), an integer constant (k
becomes k + 1) or a comparison operator (`==` and `!=`, `<` and `<=`, `>` and
`>=`, `in` and `not in`, `is` and `is not` swapped).  A mutant's ID is
``kernel:node path:rewrite``, where the node path walks the AST fields from
the kernel's `def`, so IDs stay the same while a kernel's source does.

Every mutant runs against each of its kernel's test files in its own pytest
subprocess (`-x`, so a file stops at its first failure), from a temporary
copy of `src/` that holds the mutated module; `src/nlie` is never edited.  A
failure, an error or a timeout kills the mutant.  At most `os.cpu_count()`
subprocesses run at a time.  The report lists, per kernel, the mutants each
test file kills, then one ``KILLED`` or ``SURVIVED`` line per mutant.  The
sweep takes no option and reads no environment variable.
"""
from __future__ import annotations

import ast
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from functools import cache
from pathlib import Path
from typing import Iterator, NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "nlie"
TESTS = ROOT / "tests"

# kernel ("module.qualname" in src/nlie) -> the test files run against its mutants:
# the file of the kernel's oracle first, then the other files that exercise it
_RANK = ("test_linalg.py", "test_integer_kernel_oracle.py", "test_cochain.py",
         "test_rota_baxter.py")
_EVAL = ("test_sparse_eval_oracle.py", "test_int_eval_oracle.py", "test_evaluation_oracle.py",
         "test_multilinear.py", "test_core.py")
_DIFF = ("test_coboundary_oracle.py", "test_column_table_oracle.py", "test_cochain.py")
_BRACKET = ("test_graded_bracket_oracle.py", "test_integer_kernel_oracle.py", "test_cochain.py")
_OPERATOR = ("test_sparse_eval_oracle.py", "test_operator_oracle.py", "test_int_eval_oracle.py",
             "test_column_table_oracle.py", "test_rota_baxter.py")
_RAISE = ("test_skew_table_oracle.py", "test_semidirect_oracle.py", "test_int_eval_oracle.py",
          "test_column_table_oracle.py", "test_lift.py")
_CENTER = ("test_semidirect_oracle.py", "test_column_table_oracle.py", "test_int_eval_oracle.py",
           "test_lift.py")
_SKEW = ("test_skew_table_oracle.py", "test_multilinear.py", "test_core.py")
_PAIR = ("test_representation_oracle.py", "test_semidirect_oracle.py",
         "test_evaluation_oracle.py", "test_core.py")
_OBSTRUCTION = ("test_obstruction_oracle.py", "test_skew_table_oracle.py", "test_deformation.py")
_CHAIN = ("test_lift_chain_map_oracle.py", "test_lift.py")
_SYMPLECTIC = ("test_symplectic_oracle.py", "test_pre_lie_oracle.py", "test_core.py",
               "test_io_cli.py")
_CLI = ("test_io_cli.py", "test_cli_fuzz.py", "test_acceptance.py")
_PARSE = ("test_io_cli.py", "test_io_fuzz.py", "test_acceptance.py")
KERNELS: dict[str, tuple[str, ...]] = {
    "linalg.Matrix.mul_vec": _EVAL,
    "linalg.Matrix.matmul": ("test_linalg.py", "test_pre_lie_oracle.py", "test_core.py"),
    "linalg.accumulate": _EVAL,
    "linalg.from_coords": _EVAL,
    "linalg._integer_row": _RANK,
    "linalg._eliminate": _RANK,
    "linalg._rref": _RANK,
    "linalg.kernel_basis": _RANK,
    "linalg.solve_linear": _RANK,
    "multilinear.apply_coords": _EVAL,
    "multilinear.apply_map": _EVAL,
    "multilinear._sorted_blocks": _EVAL,
    "multilinear.wedge_leaves": _EVAL,
    "multilinear.basis_entries": _SKEW,
    "multilinear.split_wedges": _SKEW,
    "multilinear.wedge_sums": _SKEW,
    "multilinear.tail_antisymmetrize": _SKEW,
    "multilinear.restrict_map": _SKEW,
    "multilinear.bidegree_of": _SKEW,
    "core.Representation.operator": ("test_evaluation_oracle.py", "test_sparse_eval_oracle.py",
                                     "test_core.py", "test_lift.py"),
    "core.Representation.act": ("test_evaluation_oracle.py", "test_sparse_eval_oracle.py",
                                "test_int_eval_oracle.py"),
    "core.semidirect_product": _PAIR,
    "core.check_representation": _PAIR,
    "core.symplectic_to_pre_lie": ("test_pre_lie_oracle.py", "test_core.py"),
    "core.check_symplectic": _SYMPLECTIC,
    "core.symplectic_operator": _SYMPLECTIC,
    "cochain._differential": _DIFF,
    "cochain.coboundary": _DIFF,
    "cochain._compose": _BRACKET,
    "cochain.graded_bracket": _BRACKET,
    "rota_baxter._coefficient_residual": _OPERATOR,
    "rota_baxter.check_rb": _OPERATOR,
    "rota_baxter.operator_rep": _OPERATOR,
    "rota_baxter.pre_lie_of_operator": _OPERATOR,
    "rota_baxter.wedge_coboundary": _OPERATOR,
    "lift.raise_arity": _RAISE,
    "lift.raise_arity_rep": _RAISE,
    "lift.lift_cochain": ("test_sparse_eval_oracle.py", "test_int_eval_oracle.py", "test_lift.py"),
    "lift.is_central": _CENTER,
    "lift.pair_chain_map_holds": _CHAIN,
    "lift._wedge_with": _CHAIN,
    "lift.degree0_chain_map_holds": ("test_lift_chain_map_oracle.py", "test_io_cli.py"),
    "deformation.obstruction": _OBSTRUCTION,
    "cli._pair_entries": ("test_pair_verdict_oracle.py", "test_io_cli.py"),
    "cli.cmd_lift": _CLI,
    "cli.cmd_deform": _CLI,
    "cli.oversized_differential": _CLI,
    "cli.size_refusal": _CLI,
    "io._indices": _PARSE,
    "io._parse_cochain": _PARSE,
    "io.emit_problem": _PARSE,
}

_SWAPS = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Eq: ast.NotEq, ast.NotEq: ast.Eq,
          ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
          ast.In: ast.NotIn, ast.NotIn: ast.In, ast.Is: ast.IsNot, ast.IsNot: ast.Is}
TIMEOUT_FACTOR, TIMEOUT_FLOOR = 4, 60  # a mutant's run may take 4x the clean run, plus 60 s
MEMORY_LIMIT = 2 << 30  # address space of one test subprocess, bytes


class Mutant(NamedTuple):
    kernel: str
    path: str
    rewrite: str
    before: str  # the statement holding the rewritten node, unparsed
    after: str  # the same statement after the rewrite
    code: str  # the kernel's `def` as in its module, with `after` over that statement
    span: tuple[int, int]  # first and last line of the `def` in its module

    @property
    def id(self) -> str:
        return f"{self.kernel}:{self.path}:{self.rewrite}"

    @property
    def module(self) -> str:
        return self.kernel.split(".")[0]

    def module_source(self) -> str:
        """The kernel's module with the mutated `def` written over the original."""
        lines = _text(self.module).splitlines(keepends=True)
        first, last = self.span
        return "".join(lines[:first - 1]) + self.code + "".join(lines[last:])


@cache
def _text(module: str) -> str:
    return (SRC / f"{module}.py").read_text(encoding="utf-8")


def find_kernel(tree: ast.Module, qualname: str) -> ast.FunctionDef | None:
    """The `def` of a top-level function or a method (`Class.method`)."""
    scope: list[ast.stmt] = tree.body
    *classes, name = qualname.split(".")
    for cls in classes:
        scope = next((n.body for n in scope if isinstance(n, ast.ClassDef) and n.name == cls), [])
    return next((n for n in scope if isinstance(n, ast.FunctionDef) and n.name == name), None)


def _walk(node: ast.AST, path: str) -> Iterator[tuple[str, ast.AST]]:
    """(path, node) for node and every node below it, fields in order."""
    yield path, node
    for field, value in ast.iter_fields(node):
        if isinstance(value, ast.AST):
            yield from _walk(value, f"{path}.{field}")
        elif isinstance(value, list):
            for i, item in enumerate(value):
                if isinstance(item, ast.AST):
                    yield from _walk(item, f"{path}.{field}[{i}]")


def _rewrites(node: ast.AST) -> Iterator[tuple[str, str]]:
    """(sub-path, rewrite label) of each mutation the node admits."""
    if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in _SWAPS:
        yield ".op", f"{type(node.op).__name__}->{_SWAPS[type(node.op)].__name__}"
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        yield "", "USub->drop"
    elif (isinstance(node, ast.Constant) and isinstance(node.value, int)
          and not isinstance(node.value, bool)):
        yield "", f"{node.value}->{node.value + 1}"
    elif isinstance(node, ast.Compare):
        for i, op in enumerate(node.ops):
            if type(op) in _SWAPS:
                yield f".ops[{i}]", f"{type(op).__name__}->{_SWAPS[type(op)].__name__}"


def _resolve(root: ast.AST, path: str) -> tuple[ast.AST, str, int | None]:
    """(parent, field, index) of the node at a path below root."""
    parent, field, index = None, "", None
    node = root
    for part in path.split(".")[1:]:
        field, _, rest = part.partition("[")
        index = int(rest[:-1]) if rest else None
        parent = node
        node = getattr(node, field) if index is None else getattr(node, field)[index]
    return parent, field, index


def _get(parent: ast.AST, field: str, index: int | None) -> ast.AST:
    return getattr(parent, field) if index is None else getattr(parent, field)[index]


def _put(parent: ast.AST, field: str, index: int | None, node: ast.AST) -> None:
    if index is None:
        setattr(parent, field, node)
    else:
        getattr(parent, field)[index] = node


def _mutated(old: ast.AST, rewrite: str) -> ast.AST:
    if rewrite == "USub->drop":
        return old.operand
    if isinstance(old, ast.Constant):
        return ast.Constant(old.value + 1)
    return _SWAPS[type(old)]()


@cache
def _tree(module: str) -> ast.Module:
    return ast.parse(_text(module))


def kernel_def(kernel: str) -> ast.FunctionDef:
    """The kernel's `def` in its parsed module."""
    module, qualname = kernel.split(".", 1)
    target = find_kernel(_tree(module), qualname)
    if target is None:
        raise LookupError(f"kernel {kernel} not found in src/nlie/{module}.py")
    return target


def _first_line(node: ast.stmt) -> int:
    return min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])


def _owns_lines(node: ast.AST, lines: list[str]) -> bool:
    """Whether a statement spans whole source lines, so its unparsed text can
    replace them: nothing but indentation before it, nothing but a comment
    after it, and not an `elif` (which unparses as a nested `if`)."""
    if not isinstance(node, ast.stmt):
        return False
    head, tail = lines[node.lineno - 1], lines[node.end_lineno - 1]
    return (not head[:node.col_offset].strip() and not head.lstrip().startswith("elif")
            and tail[node.end_col_offset:].strip()[:1] in ("", "#"))


def mutants(kernel: str) -> list[Mutant]:
    """Every mutant of one kernel, in source order.  Each rewrite is made on
    the parsed `def` and undone; only the innermost statement holding the
    rewritten node is unparsed, and its text replaces that statement's lines
    in the kernel's source."""
    lines = _text(kernel.split(".")[0]).splitlines(keepends=True)
    target = kernel_def(kernel)
    span = (_first_line(target), target.end_lineno)
    out = []
    for path, node in list(_walk(target, "def")):
        for sub, rewrite in _rewrites(node):
            where = path + sub
            parts = where.split(".")
            stmt = target
            for depth in range(2, len(parts)):
                above = _get(*_resolve(target, ".".join(parts[:depth])))
                if _owns_lines(above, lines):
                    stmt = above
            parent, field, index = _resolve(target, where)
            old = _get(parent, field, index)
            before = ast.unparse(stmt)
            _put(parent, field, index, _mutated(old, rewrite))
            after = ast.unparse(stmt)
            _put(parent, field, index, old)
            indent = " " * stmt.col_offset
            text = "".join(indent + line + "\n" for line in after.split("\n"))
            code = ("".join(lines[span[0] - 1:_first_line(stmt) - 1]) + text
                    + "".join(lines[stmt.end_lineno:span[1]]))
            out.append(Mutant(kernel, where, rewrite, before, after, code, span))
    return out


def _limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def run_tests(test_file: str, mutant: Mutant | None, timeout: float) -> tuple[str, float]:
    """('pass' | 'fail' | 'timeout', seconds) of one test file, run on a
    temporary copy of src/ with the mutant's module written over."""
    with tempfile.TemporaryDirectory(prefix="nlie-mutant-") as tmp:
        shutil.copytree(SRC, Path(tmp) / "nlie", ignore=shutil.ignore_patterns("__pycache__"))
        if mutant is not None:
            (Path(tmp) / "nlie" / f"{mutant.module}.py").write_text(mutant.module_source(),
                                                                   encoding="utf-8")
        env = {"PATH": os.defpath, "PYTHONPATH": tmp, "PYTHONDONTWRITEBYTECODE": "1",
               "PYTHONHASHSEED": "0"}
        cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
               str(TESTS / test_file)]
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=tmp, env=env, stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL, start_new_session=True,
                                preexec_fn=_limit_memory)
        try:
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, 9)
            proc.wait()
            return "timeout", time.perf_counter() - start
        return ("pass" if code == 0 else "fail"), time.perf_counter() - start


def main() -> int:
    workers = os.cpu_count() or 1
    files = sorted({f for fs in KERNELS.values() for f in fs})
    with ThreadPoolExecutor(workers) as pool:
        clean = dict(zip(files, pool.map(lambda f: run_tests(f, None, 3600), files)))
    broken = [f for f, (status, _) in clean.items() if status != "pass"]
    if broken:
        print(f"clean run fails: {broken}")
        return 2
    jobs = [(m, f) for kernel, fs in KERNELS.items() for m in mutants(kernel) for f in fs]
    print(f"{len(jobs)} runs of {len({m.id for m, _ in jobs})} mutants in {len(KERNELS)} "
          f"kernels, {workers} at a time")

    def job(mf):
        m, f = mf
        return run_tests(f, m, TIMEOUT_FACTOR * clean[f][1] + TIMEOUT_FLOOR)[0]

    start = time.perf_counter()
    with ThreadPoolExecutor(workers) as pool:
        results = list(pool.map(job, jobs))
    killers: dict[str, list[str]] = {}
    for (m, f), status in zip(jobs, results):
        killers.setdefault(m.id, [])
        if status != "pass":
            killers[m.id].append(f if status == "fail" else f"{f} (timeout)")
    for kernel, fs in KERNELS.items():
        ids = [m.id for m in mutants(kernel)]
        print(f"\n{kernel}: {sum(bool(killers[i]) for i in ids)} of {len(ids)} killed")
        for f in fs:
            by_f = [i.split(":", 1)[1] for i in ids if any(k.startswith(f) for k in killers[i])]
            print(f"  {f} kills {len(by_f)}: {' '.join(by_f)}")
    print()
    for mid, ks in killers.items():
        print(f"{'KILLED' if ks else 'SURVIVED'} {mid}")
    total = sum(bool(ks) for ks in killers.values())
    print(f"\n{total} of {len(killers)} mutants killed in {time.perf_counter() - start:.0f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
