"""The README's library sketch runs as printed and prints what its comments claim."""

import contextlib
import io
import re
from pathlib import Path

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
