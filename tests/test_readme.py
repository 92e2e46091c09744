"""The README runs and reads as the code does: the library sketch prints what its comments claim, and the CLI tables quote every window and relation."""

import contextlib
import io
import re
from pathlib import Path

from nullinf import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_sketch_prints_its_claims():
    section = README.read_text().split("## Library sketch", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    null_norm, hawking, ei = out.getvalue().splitlines()
    assert float(null_norm) == 0.0
    assert abs(float(hawking) - 0.1) < 1e-8
    assert ei == "IndexSet[(0,1), (1,4), (2,7), (3,10); p<4]"


def _table(text, column):
    """Row text of each subcommand in the README table whose second column is ``column``."""
    body = text.split(f"| subcommand | {column} |", 1)[1].split("\n\n", 1)[0]
    return dict(re.findall(r"^\| `([\w-]+)` \| (.*) \|$", body, re.M))


def test_every_window_and_relation_is_in_the_readme_tables():
    text = README.read_text()
    windows, relations = _table(text, "windows"), _table(text, "relations")
    for line in cli.list_checks().splitlines():
        name, kind, items = line.split(": ", 2)
        if kind == "config keys":
            for key, window in re.findall(r"(\w+) \((?:required, )?([<>]=? [^)]+)\)", items):
                assert f"`{key} {window}`" in windows[name]
        else:
            for rule in items.split("; "):
                assert f"`{rule}`" in relations[name]
