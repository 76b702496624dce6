#!/usr/bin/env python3
"""Count the code lines of each module in src/fpboost, and their total.

A code line holds a token of code: comments, blank lines and docstrings (a
string that is the first statement of a module, class or function) do not
count, wherever they sit.  A statement spread over several lines counts
each of them.  Run from anywhere:

    python3 scripts/code_lines.py [DIR]
"""

import argparse
import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fpboost"
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def docstring_lines(source: str) -> set:
    """The line numbers of every docstring in the source."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and ast.get_docstring(node, clean=False) is not None):
            lines.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """How many lines of the source hold a token of code outside every docstring."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(source))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("dir", nargs="?", default=str(PACKAGE),
                        help="the package directory (default: src/fpboost)")
    args = parser.parse_args()
    counts = {path.name: code_lines(path.read_text())
              for path in sorted(Path(args.dir).glob("*.py"))}
    width = max(map(len, counts), default=0)
    for name, count in counts.items():
        print(f"{name:<{width}}  {count:5d}")
    print(f"{'total':<{width}}  {sum(counts.values()):5d}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
