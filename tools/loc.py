"""Code lines per module of a Python package: no docstrings, comments or blank lines.

Usage::

    python3 tools/loc.py [PACKAGE_DIR]     # default: src/oamem of this checkout

Prints one ``<lines>  <module>`` line per ``*.py`` file of PACKAGE_DIR,
sorted by name, then ``<lines>  total``.  A code line is a physical line
that holds part of a token other than a comment (:func:`code_lines`), so
a statement spread over three lines counts three, while a docstring (the
string that opens a module, class or function body) counts none of its
lines.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "oamem"
# tokens that carry no code: layout, comments and the stream's ends
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers spanned by the docstrings of ``tree``'s module, classes and functions."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """How many lines of ``source`` hold code: part of a token that is no comment or docstring."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def count(package: Path) -> dict[str, int]:
    """:func:`code_lines` of every ``*.py`` file of ``package`` by file name, sorted."""
    return {path.name: code_lines(path.read_text()) for path in sorted(package.glob("*.py"))}


def main(argv: list[str]) -> int:
    counts = count(Path(argv[0]) if argv else PACKAGE)
    for name, lines in counts.items():
        print(f"{lines:6d}  {name}")
    print(f"{sum(counts.values()):6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
