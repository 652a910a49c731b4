"""Count the lines and the code lines of Python source files.

A code line holds at least one token that is not a comment, a docstring or
layout (newline, indent, dedent). A docstring is a string literal that is the
first statement of a module, class or function; every line it spans is left
out, as are the lines of comments and blank lines.

Usage: python3 tools/src_lines.py PATH [PATH ...]

Each PATH is a ``.py`` file or a directory, searched recursively. The script
prints each file's line and code-line counts, then their totals.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The lines spanned by the docstrings of the module, classes and functions."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(path: Path) -> tuple[int, int]:
    """The file's number of lines and of code lines."""
    text = path.read_text(encoding="utf-8")
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code - docstring_lines(ast.parse(text)))


def main(argv: list[str]) -> int:
    if not argv:
        print("usage: python3 tools/src_lines.py PATH [PATH ...]", file=sys.stderr)
        return 1
    files = []
    for arg in map(Path, argv):
        files.extend(sorted(arg.rglob("*.py")) if arg.is_dir() else [arg])
    total_lines = total_code = 0
    print(" lines   code  file")
    for path in files:
        lines, code = count(path)
        total_lines += lines
        total_code += code
        print(f"{lines:6d} {code:6d}  {path}")
    print(f"{total_lines:6d} {total_code:6d}  total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
