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


def test_unchecked_series_constructor_stays_in_series_module():
    # Series._trusted skips exponent validation; only the series kernels,
    # whose outputs are admissible by construction, may call it.
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES if path.name != "series.py"
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if (isinstance(node, ast.Attribute) and node.attr == "_trusted")
             or (isinstance(node, ast.Name) and node.id == "_trusted")]
    assert found == []
    series = next(path for path in SOURCES if path.name == "series.py")
    assert "_trusted" in series.read_text()


def test_every_exported_name_resolves():
    missing = [name for name in qharmonic.__all__ if not hasattr(qharmonic, name)]
    assert missing == []
