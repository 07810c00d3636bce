"""Every name a qhc module, a script or the test oracles import is used in
that file: no dead imports.  Every module-level definition in qhc, and every
function or property in the body of a qhc class, is loaded somewhere in the
package, the scripts, the tests or perfbench: no dead definitions.  Every
defaulted parameter of a qhc function is passed by some call there: no
settings that nothing sets."""

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



def defaulted_params(tree: ast.Module) -> list[tuple[str, str, int | None]]:
    """(function, parameter, position in a call or None) for each defaulted
    parameter of every def in the file; a class's __init__ goes by the
    class's name, and a method's positions skip self."""
    out = []
    for node in ast.walk(tree):
        for f in node.body if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)) else []:
            if isinstance(f, ast.FunctionDef):
                a, args = f.args, f.args.posonlyargs + f.args.args
                method = isinstance(node, ast.ClassDef) and "staticmethod" not in [
                    getattr(d, "id", None) for d in f.decorator_list]
                params = [(arg.arg, i - method) for i, arg in enumerate(args) if i >= len(args) - len(a.defaults)]
                params += [(arg.arg, None) for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
                name = node.name if method and f.name == "__init__" else f.name
                out += [(name, param, pos) for param, pos in params]
    return out


def calls(tree: ast.Module) -> tuple[dict[str, set], set[str]]:
    """({callee name: the positions and keywords its calls pass, "*" for a
    call through * or **}, every name the file loads other than as a
    callee)."""
    passed, callees = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
            callees.add(id(node.func))
            got = passed.setdefault(getattr(node.func, "id", None) or node.func.attr, set())
            got |= set(range(len(node.args))) | {k.arg or "*" for k in node.keywords}
            if any(isinstance(x, ast.Starred) for x in node.args):
                got.add("*")
    values = {getattr(n, "id", None) or n.attr for n in ast.walk(tree) if id(n) not in callees
              and (isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) or isinstance(n, ast.Attribute))}
    return passed, values


def unpassed_params(defining: list[ast.Module], readers: list[ast.Module]) -> list[str]:
    """"function(parameter)" for each defaulted parameter that no call in
    readers passes, functions that readers load other than as a callee
    (callbacks, tables of checks) aside."""
    passed, values = {}, set()
    for tree in readers:
        got, loaded = calls(tree)
        values |= loaded
        for name, params in got.items():
            passed.setdefault(name, set()).update(params)
    return sorted(f"{fn}({param})" for tree in defining for fn, param, pos in defaulted_params(tree)
                  if fn not in values and not passed.get(fn, set()) & {"*", param, pos})


def test_every_defaulted_parameter_is_passed():
    trees = {p: ast.parse(p.read_text(), p.name) for p in READERS}
    unpassed = unpassed_params([trees[p] for p in sorted(SRC.glob("*.py"))], list(trees.values()))
    assert not unpassed, f"defaulted parameters no call passes: {unpassed}"


def test_the_guard_sees_a_parameter_nobody_passes():
    tree = ast.parse("def f(a, b=1, *, c=2): pass\ndef g(a=1, b=2): pass\ndef h(x=0): pass\ndef j(y=0): pass\n"
                     "class K:\n    def __init__(self, n=0): pass\n    def m(self, u=0, v=1): pass\n"
                     "    @staticmethod\n    def s(u=0): pass\n"
                     "def outer():\n    def inner(z=0): pass\n    inner()\n"
                     "f(0, c=3)\ng(*args)\nj(**kw)\ncheck = h\nK(5).m(1)\nK.s()\n")
    assert unpassed_params([tree], [tree]) == ["f(b)", "inner(z)", "m(v)", "s(u)"]
