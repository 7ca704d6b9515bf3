"""The ```python blocks of README.md run as written.

Each block runs top to bottom in a fresh namespace, with ``src`` on the
path.  A top-level ``print(...)`` whose line ends in a comment must print
exactly that comment: ``print(x)  # 42`` expects ``42``.
"""

from __future__ import annotations

import ast
import contextlib
import io
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

BLOCKS = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)
EXPECTED = re.compile(r"^print\(.*\)\s*#\s*(.*?)\s*$")


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("source", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_block_runs(source):
    lines = source.splitlines()
    namespace: dict = {"__name__": "readme"}
    for stmt in ast.parse(source).body:
        code = compile(ast.Module([stmt], type_ignores=[]), "README.md", "exec")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(code, namespace)
        expected = EXPECTED.match(lines[stmt.lineno - 1])
        if expected and stmt.lineno == stmt.end_lineno:
            assert out.getvalue().rstrip("\n") == expected.group(1), lines[stmt.lineno - 1]
