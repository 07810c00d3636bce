"""Every name a qhc module, a script or the test oracles import is used in
that file: no dead imports.  Every module-level definition in qhc, and every
function or property in the body of a qhc class, is loaded somewhere in the
package, the scripts, the tests or perfbench: no dead definitions."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "qhc"
MODULES = sorted(
    [p for p in SRC.glob("*.py") if p.name != "__init__.py"]
    + list((ROOT / "scripts").glob("*.py")) + [ROOT / "tests" / "oracles.py"])
#: every file whose loads keep a qhc definition alive
READERS = sorted(p for d in ("src", "scripts", "tests", "perfbench") for p in (ROOT / d).rglob("*.py"))


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
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
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


def defined_names(tree: ast.Module) -> dict[str, int]:
    """{name: line} of the module-level defs, classes and constants and of
    the functions and properties defined in class bodies, dunder names such
    as __all__ and __init__ aside."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out[node.name] = node.lineno
        if isinstance(node, ast.ClassDef):
            out.update((f.name, f.lineno) for f in node.body
                       if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                out.update((n.id, node.lineno) for n in ast.walk(target) if isinstance(n, ast.Name))
    return {name: line for name, line in out.items() if not name.startswith("__")}


def loaded_names(tree: ast.Module) -> set[str]:
    """Every name the file loads, every attribute it reads, every name it
    imports and each part of every dotted identifier string, such as the
    targets perfbench's tracer names by string."""
    out = used_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.value.split(".")
            if all(part.isidentifier() for part in parts):
                out |= set(parts)
    return out


def test_every_definition_is_loaded():
    loaded = set().union(*(loaded_names(ast.parse(p.read_text(), p.name)) for p in READERS))
    dead = {f"{p.name}:{line}": name for p in sorted(SRC.glob("*.py"))
            for name, line in defined_names(ast.parse(p.read_text(), p.name)).items() if name not in loaded}
    assert not dead, f"definitions nothing loads: {dead}"


def test_the_guard_sees_a_dead_definition():
    tree = ast.parse("A, B = 1, 2\n__all__ = []\ndef f(): return A\ndef g(): pass\nclass C: pass\n"
                     "class D:\n    def __init__(self): self.used()\n    def used(self): pass\n"
                     "    def dead(self): pass\n    @property\n    def prop(self): return self.p\n"
                     "x = obj.g\ny = 'mod.C'\nz = D().prop\n")
    dead = sorted(n for n in defined_names(tree) if n not in loaded_names(tree))
    assert dead == ["B", "dead", "f", "x", "y", "z"]
