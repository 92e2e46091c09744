"""No dead code in the package: every local that is assigned is read, and every import is used.

A function's locals include those of the functions nested in it, so a value
handed to a closure counts as read.  Names starting with ``_`` are exempt.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nullinf

PACKAGE = Path(nullinf.__file__).parent


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
