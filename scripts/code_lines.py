#!/usr/bin/env python3
"""Print the size of each module of src/qhc: its lines as `wc -l` counts
them, and its code lines, those that hold a token other than a comment, a
docstring or layout (blank lines, indentation, line ends).

A docstring is the string that opens a module, class or function body.  A
line counts as code if any token on it does, so a multi-line string or
bracket counts every line it spans.  One row per module, then a `total`
row:

    python3 scripts/code_lines.py
"""

import ast
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "qhc"

#: tokens that are never code
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def docstring_lines(source: str) -> set[int]:
    """The line numbers that the docstrings of source span."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                out.update(range(first.lineno, first.end_lineno + 1))
    return out


def code_lines(source: str) -> int:
    """The number of lines of source that hold code."""
    skip = docstring_lines(source)
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT and tok.start[0] not in skip:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main() -> None:
    total_lines = total_code = 0
    print(f"{'module':<16} {'lines':>6} {'code':>6}")
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text()
        lines, code = source.count("\n"), code_lines(source)
        total_lines += lines
        total_code += code
        print(f"{path.name:<16} {lines:>6} {code:>6}")
    print(f"{'total':<16} {total_lines:>6} {total_code:>6}")


if __name__ == "__main__":
    main()
