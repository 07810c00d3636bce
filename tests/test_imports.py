"""Every name a qhc module, a script or the test oracles import is used in
that file: no dead imports."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "qhc"
MODULES = sorted(
    [p for p in SRC.glob("*.py") if p.name != "__init__.py"]
    + list((ROOT / "scripts").glob("*.py")) + [ROOT / "tests" / "oracles.py"])


def imported_names(tree: ast.Module) -> dict[str, int]:
    """{name bound by an import: its line}, __future__ imports aside."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
    return out


def used_names(tree: ast.Module) -> set[str]:
    """Every name the module loads, those in string annotations included."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            annotations = [a.annotation for a in args.posonlyargs + args.args + args.kwonlyargs
                           + [args.vararg, args.kwarg] if a is not None] + [node.returns]
        elif isinstance(node, ast.AnnAssign):
            annotations = [node.annotation]
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                out |= {n.id for n in ast.walk(ast.parse(ann.value, mode="eval")) if isinstance(n, ast.Name)}
    return out


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(module):
    tree = ast.parse(module.read_text(), module.name)
    used = used_names(tree)
    unused = {name: line for name, line in imported_names(tree).items() if name not in used}
    assert not unused, f"{module.name} imports names it never uses: {unused}"


def test_the_guard_sees_an_unused_import():
    tree = ast.parse("from .rewrite import EngineError, LocElem\nx: 'LocElem' = None\n")
    used = used_names(tree)
    assert [n for n in imported_names(tree) if n not in used] == ["EngineError"]
