"""Static hygiene of the package source, by stdlib `ast` (no linter needed).

Every name a module of `src/nlie` or a file of `tests/` imports must be used
in that file.  `__init__` is exempt: its imports are the package's public
surface, and every one of them, like every name a module lists in `__all__`,
must exist.
Every name a module defines at its top level must be referred to from the
package, the tests or the benchmark.
"""
import ast
import importlib
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "nlie"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
TEST_FILES = sorted(Path(__file__).resolve().parent.glob("*.py"))


def _imported(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line, for every import statement in the module."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                out[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                if a.name != "*":
                    out[a.asname or a.name] = node.lineno
    return out


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used(tree: ast.Module) -> set[str]:
    """Names read anywhere, including inside string annotations."""
    trees = [tree]
    for ann in _annotations(tree):
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            trees.append(ast.parse(ann.value, mode="eval"))
    return {n.id for t in trees for n in ast.walk(t) if isinstance(n, ast.Name)}


def test_scan_sees_every_module():
    assert {p.stem for p in MODULES} >= {"core", "rota_baxter", "io", "cli"}
    assert {p.stem for p in TEST_FILES} >= {"oracles", "conftest", "test_acceptance"}


@pytest.mark.parametrize("path", MODULES + TEST_FILES,
                         ids=lambda p: p.stem if p.parent == SRC else f"tests.{p.stem}")
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = _used(tree)
    unused = {name: line for name, line in _imported(tree).items() if name not in used}
    assert not unused, f"{path.name} imports names it never uses: {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_all_names_resolve(path):
    module = importlib.import_module(f"nlie.{path.stem}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{path.name} lists undefined names in __all__: {missing}"


def test_package_imports_resolve():
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    missing = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            module = importlib.import_module(f"nlie.{node.module}")
            missing += [f"{node.module}.{a.name}" for a in node.names
                        if not hasattr(module, a.name)]
    assert not missing, f"nlie/__init__ imports undefined names: {missing}"


ROOT = SRC.parent.parent
_DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def _top_level_names(tree: ast.Module) -> dict[str, int]:
    """Name -> line of each top-level def, class or assignment target."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                if isinstance(t, ast.Name) and not t.id.startswith("__"):
                    out[t.id] = node.lineno
    return out


def _references(tree: ast.Module) -> set[str]:
    """Every name a module reads: loaded names, attributes, imported names,
    and the parts of string constants that spell a dotted name (the tracer
    and `monkeypatch` name their targets by string).  `__all__` lists do not
    count."""
    listed = {id(c) for node in tree.body if isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
              for c in ast.walk(node.value)}
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(a.name for a in node.names)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in listed and _DOTTED.fullmatch(node.value)):
            out.update(node.value.split("."))
    return out


def test_every_top_level_name_is_referenced():
    """A def, class or assignment at the top of a `src/nlie` module is named
    somewhere in `src/nlie`, `tests/` or `perfbench/` besides its definition
    and the `__init__` exports; otherwise it is dead and goes."""
    files = [p for d in ("src/nlie", "tests", "perfbench") for p in (ROOT / d).glob("*.py")
             if p != SRC / "__init__.py"]
    used = set().union(*(_references(ast.parse(p.read_text(encoding="utf-8"))) for p in files))
    dead = {f"{path.stem}.{name}": line for path in MODULES
            for name, line in _top_level_names(ast.parse(path.read_text(encoding="utf-8"))).items()
            if name not in used}
    assert not dead, f"top-level names nothing refers to: {dead}"
