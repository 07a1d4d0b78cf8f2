"""Print the code lines of every module of src/randpred, and their total.

A code line is a non-blank line that is neither a comment nor part of a
docstring (the string that opens a module, class or function body).
Standard library only; run from anywhere:

    python tools/code_lines.py [directory]

The directory defaults to the package's source, src/randpred.  The
script only reports, and exits 0 whatever the counts.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "randpred"


def docstring_lines(tree: ast.AST) -> set:
    """The line numbers that the docstrings of tree span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """How many lines of source are code lines."""
    skipped = docstring_lines(ast.parse(source))
    return sum(
        1
        for number, line in enumerate(source.splitlines(), start=1)
        if line.strip() and not line.lstrip().startswith("#") and number not in skipped
    )


def main(argv: list) -> int:
    directory = Path(argv[1]) if len(argv) > 1 else PACKAGE
    total = 0
    for path in sorted(directory.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
