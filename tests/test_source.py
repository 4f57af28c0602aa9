"""Rules that the library source keeps."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "deltamod"


def test_library_has_no_assert_statements():
    """``python -O`` strips asserts, so no library check may rest on one."""
    paths = sorted(SRC.rglob("*.py"))
    assert paths
    found = [f"{path.relative_to(SRC)}:{node.lineno}"
             for path in paths
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in the library: {found}"
