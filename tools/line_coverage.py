"""Record which statements of ``src/nullinf`` the test suite reaches.

Usage (from the repository root)::

    python tools/line_coverage.py

The whole suite runs in this process under ``sys.settrace``.  A test that
starts a child Python (``subprocess``) is followed too: every child gets a
``sitecustomize`` module on its ``PYTHONPATH`` that installs the same recorder
and writes its lines to a scratch directory at exit.

A statement is an ``ast`` statement other than a docstring; it is reached when
a line event falls on one of its own lines (a compound statement owns its
header lines, not its body; a decorated definition owns its decorators).  The
report lists every unreached statement and ends with the count.  The standard
library is all it needs: the run takes about twice as long as the plain suite.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "nullinf"

# what a child runs at start-up: the same recorder, and a dump of its lines at exit
SITECUSTOMIZE = """\
import atexit, json, os, sys
sys.path.insert(0, {tools!r})
import line_coverage
_hits = set()
line_coverage.install({root!r}, _hits)
def _dump():
    with open(os.path.join({scratch!r}, "child-%d.json" % os.getpid()), "w") as fh:
        json.dump(sorted(_hits), fh)
atexit.register(_dump)
"""


def statements(path: Path) -> dict[int, int]:
    """Map each line a statement owns to the line the statement starts on."""
    tree = ast.parse(path.read_text())
    docstrings = set()
    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and body
                and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            docstrings.add(id(body[0]))
    owner: dict[int, tuple[int, int]] = {}  # line -> (span, statement start)
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or id(node) in docstrings:
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        span = node.end_lineno - first
        for line in range(first, node.end_lineno + 1):
            if line not in owner or span < owner[line][0]:
                owner[line] = (span, node.lineno)
    return {line: start for line, (_, start) in owner.items()}


def install(root: str, hits: set) -> None:
    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def trace(frame, event, arg):
        if frame.f_code.co_filename.startswith(root):
            hits.add((frame.f_code.co_filename, frame.f_lineno))
            return local
        return None

    sys.settrace(trace)
    threading.settrace(trace)


def follow_children(site_dir: str) -> None:
    """Put the recorder's sitecustomize on the PYTHONPATH of every child process."""
    init = subprocess.Popen.__init__

    def patched(self, *args, env=None, **kwargs):
        env = dict(os.environ if env is None else env)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (site_dir, env.get("PYTHONPATH")) if p)
        init(self, *args, env=env, **kwargs)

    subprocess.Popen.__init__ = patched


def main() -> int:
    import pytest

    root = str(PACKAGE) + os.sep
    hits: set = set()
    with tempfile.TemporaryDirectory() as scratch:
        site = SITECUSTOMIZE.format(tools=str(Path(__file__).resolve().parent), root=root, scratch=scratch)
        (Path(scratch) / "sitecustomize.py").write_text(site)
        follow_children(scratch)
        install(root, hits)
        try:
            status = pytest.main(["-q", "-p", "no:cacheprovider"], plugins=[])
        finally:
            sys.settrace(None)
            threading.settrace(None)
        for dump in Path(scratch).glob("child-*.json"):
            hits.update(map(tuple, json.loads(dump.read_text())))

    total = missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        owner = statements(path)
        reached = {owner[line] for name, line in hits if name == str(path) and line in owner}
        starts = sorted(set(owner.values()))
        lines = path.read_text().splitlines()
        for start in starts:
            if start not in reached:
                print(f"{path.relative_to(ROOT)}:{start}: {lines[start - 1].strip()}")
        total += len(starts)
        missed += len(starts) - len(reached)
    print(f"unreached: {missed} of {total} statements (pytest exit status {int(status)})")
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
