import ast
from pathlib import Path

import qharmonic

SOURCES = sorted(Path(qharmonic.__file__).parent.glob("*.py"))


def test_package_has_no_bare_asserts():
    # `python -O` strips assert statements, so no invariant may rest on one.
    assert SOURCES
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
