#!/usr/bin/env python3
"""Count the code, docstring, comment and blank lines of Python modules.

    python3 tools/lines.py [PATH ...]

Each PATH is a .py file or a directory searched for them (default: src).
A line is a docstring line when it lies in a module, class or function
docstring (found with ast); else a code line when some token other than a
comment touches it, a multi-line string's inner lines included (found with
tokenize); else a comment line when it holds a comment; else blank.  So
the four counts of a file add up to its number of lines.  One row per
module, then the total; prose is docstring plus comment lines.
"""
from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")
_LAYOUT = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER, tokenize.COMMENT}


def _docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers of every module, class and function docstring."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                found.update(range(first.lineno, first.end_lineno + 1))
    return found


def count(text: str) -> dict[str, int]:
    """{kind: lines} of one module's source."""
    docs = _docstring_lines(ast.parse(text))
    code, comments = set(), set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.COMMENT:
            comments.add(tok.start[0])
        elif tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    out = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(text.splitlines(), 1):
        if number in docs:
            out["docstring"] += 1
        elif number in code:
            out["code"] += 1
        elif number in comments:
            out["comment"] += 1
        elif line.strip():
            out["code"] += 1  # a lone line continuation
        else:
            out["blank"] += 1
    return out


def modules(paths: list[str]) -> list[Path]:
    """The .py files named by paths, each directory searched, in order."""
    found = []
    for name in paths:
        path = Path(name)
        found += sorted(path.rglob("*.py")) if path.is_dir() else [path]
    return found


def main(argv: list[str] | None = None) -> int:
    files = modules((sys.argv[1:] if argv is None else argv) or ["src"])
    rows = [(str(path), count(path.read_text(encoding="utf-8"))) for path in files]
    total = {kind: sum(counts[kind] for _, counts in rows) for kind in KINDS}
    width = max([len(name) for name, _ in rows] + [5])
    print(f"{'module':<{width}}" + "".join(f"{kind:>11}" for kind in KINDS + ("total",)))
    for name, counts in rows + [("total", total)]:
        cells = [counts[kind] for kind in KINDS] + [sum(counts.values())]
        print(f"{name:<{width}}" + "".join(f"{cell:>11}" for cell in cells))
    print(f"prose (docstring + comment): {total['docstring'] + total['comment']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
