"""No dead code in the package: every local that is assigned is read, and every import is used.

A function's locals include those of the functions nested in it, so a value
handed to a closure counts as read.  Names starting with ``_`` are exempt.

No unused settings either: every default of a parameter or of a class field
is passed by some call in the package, the tests or the benchmark, and every
annotated class field is read somewhere.  Calls are matched by the name of
the function, method or class only, so a call of any function of the same
name counts.
"""

import ast
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nullinf

PACKAGE = Path(nullinf.__file__).parent
ROOT = Path(__file__).resolve().parents[1]


def _names(node, ctx):
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ctx)}


def dead_locals(tree):
    """(line, function, name) of each local that is assigned and never read."""
    found = {}
    # outer functions come first in the walk, so a name unread in a nested
    # function is reported once, at the innermost function
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            unread = _names(fn, ast.Store) - _names(fn, (ast.Load, ast.Del))
            for n in ast.walk(fn):
                if isinstance(n, ast.Name) and n.id in unread and not n.id.startswith("_"):
                    found[n.lineno, n.id] = (n.lineno, fn.name, n.id)
    return sorted(found.values())


def unused_imports(tree):
    """(line, name) of each imported name that the module never reads."""
    used = _names(tree, ast.Load)
    out = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in used and not name.startswith("_"):
                    out.append((node.lineno, name))
    return out


def _called_name(call):
    f = call.func
    return f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None


def _calls(trees):
    """Called name -> [(number of positional arguments, keyword names)]; a starred argument passes all."""
    out = {}
    for tree in trees:
        for n in ast.walk(tree):
            if isinstance(n, ast.Call) and (name := _called_name(n)):
                npos = math.inf if any(isinstance(a, ast.Starred) for a in n.args) else len(n.args)
                out.setdefault(name, []).append((npos, {k.arg for k in n.keywords}))
    return out


def _fields(cls):
    """The annotated fields of a class body, in order."""
    return [s for s in cls.body if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)]


def _parameters(fn, called, qualname, skip):
    a = fn.args
    positional = (a.posonlyargs + a.args)[skip:]
    first = len(positional) - len(a.defaults)
    for i, arg in enumerate(positional[first:], first):
        yield called, f"{qualname}({arg.arg})", i, arg.arg
    for arg, default in zip(a.kwonlyargs, a.kw_defaults):
        if default is not None:
            yield called, f"{qualname}({arg.arg})", math.inf, arg.arg


def _defaults(tree):
    """(called name, qualified name, position, parameter) of each default in one module.

    A class is called by its name, both for its ``__init__`` and for the fields of a
    dataclass or NamedTuple; a method's position does not count ``self``.
    """
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    methods = set()
    for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
        for i, s in enumerate(_fields(cls)):
            if s.value is not None:
                yield cls.name, f"{cls.name}.{s.target.id}", i, s.target.id
        for fn in (f for f in cls.body if isinstance(f, functions)):
            methods.add(fn)
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list)
            called = cls.name if fn.name == "__init__" else fn.name
            yield from _parameters(fn, called, f"{cls.name}.{fn.name}", 0 if static else 1)
    for fn in ast.walk(tree):
        if isinstance(fn, functions) and fn not in methods:
            yield from _parameters(fn, fn.name, fn.name, 0)


def unset_defaults(modules, callers):
    """``module.name`` of each default in ``modules`` (stem -> tree) that no call in ``callers`` passes."""
    calls = _calls(callers)
    return [f"{stem}.{qualname}"
            for stem, tree in modules.items()
            for called, qualname, position, name in _defaults(tree)
            if not any(None in kws or name in kws or npos > position for npos, kws in calls.get(called, ()))]


def unread_fields(modules, readers):
    """``module.Class.field`` of each annotated class field in ``modules`` that no attribute read in ``readers`` names."""
    read = {n.attr for tree in readers for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    return [f"{stem}.{cls.name}.{s.target.id}"
            for stem, tree in modules.items()
            for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for s in _fields(cls) if s.target.id not in read]


SOURCES = sorted(PACKAGE.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_dead_locals_or_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert dead_locals(tree) == []
    assert unused_imports(tree) == []


def _loaded_after(statement):
    """Names in ``sys.modules`` after ``statement`` in a fresh interpreter."""
    code = f"import sys\n{statement}\nprint(' '.join(sys.modules))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)})
    return set(out.stdout.split())


def test_package_root_and_model_pde_load_only_what_they_use():
    assert {m for m in _loaded_after("import nullinf") if m.startswith("nullinf.")} == set()
    assert "sympy" not in _loaded_after("import nullinf.modelpde")


def test_checker_flags_a_dead_local_and_an_unused_import():
    tree = ast.parse(
        "import os\nimport math\n\n"
        "def f(x):\n    y, _ = x, 1\n    z = math.pi\n    def g():\n        return z\n    return g\n"
    )
    assert dead_locals(tree) == [(5, "f", "y")]
    assert unused_imports(tree) == [(1, "os")]


def test_every_default_is_passed_and_every_field_is_read():
    modules = {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in SOURCES}
    callers = [*modules.values(), *(ast.parse(p.read_text(), filename=str(p))
                                    for d in ("tests", "perfbench") for p in sorted((ROOT / d).glob("*.py")))]
    assert unset_defaults(modules, callers) == []
    assert unread_fields(modules, callers) == []


def test_checker_flags_an_unset_default_and_an_unread_field():
    module = ast.parse(
        "from dataclasses import dataclass\n\n"
        "@dataclass\nclass P:\n    a: int\n    b: int = 0\n    c: int = 1\n\n"
        "class K:\n    def __init__(self, u, v=0):\n        self.u = u\n\n"
        "    def at(self, x, y=1, *, z=2):\n        return x\n\n"
        "def f(x, y=1, *, z=2):\n    return x\n"
    )
    callers = [module, ast.parse("P(1, 2)\nK(1).at(0, 1)\nf(0, z=3)\nprint(P(0).a + P(0).b)\n")]
    assert unset_defaults({"m": module}, callers) == ["m.P.c", "m.K.__init__(v)", "m.K.at(z)", "m.f(y)"]
    assert unread_fields({"m": module}, callers) == ["m.P.c"]
