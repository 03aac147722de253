import importlib.util
from pathlib import Path

import qharmonic

ROOT = Path(__file__).resolve().parents[1]


def load_lines():
    spec = importlib.util.spec_from_file_location("lines", ROOT / "tools" / "lines.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_line_counts_add_up_to_each_module_length(capsys):
    lines = load_lines()
    package = Path(qharmonic.__file__).parent
    files = lines.modules([str(package)])
    assert files == sorted(package.glob("*.py"))
    for path in files:
        text = path.read_text(encoding="utf-8")
        counts = lines.count(text)
        assert set(counts) == {"code", "docstring", "comment", "blank"}
        assert sum(counts.values()) == len(text.splitlines()), path.name
        assert counts["code"] and counts["docstring"] and counts["blank"], path.name
    assert lines.main([str(package)]) == 0
    out = capsys.readouterr().out.splitlines()
    total = out[-2].split()
    assert total[0] == "total" and len(out) == len(files) + 3
    assert int(total[-1]) == sum(len(p.read_text(encoding="utf-8").splitlines()) for p in files)


def test_line_kinds():
    source = '''"""Module
docstring."""
# a comment

x = """a string

over three lines"""  # trailing comment is code


def f():
    """Docstring."""
    y = (1 +
         2)  # code
    # comment
    return y \\
        + x


class C:
    """Class

    docstring."""
'''
    assert load_lines().count(source) == {"docstring": 6, "comment": 2, "blank": 5, "code": 9}
