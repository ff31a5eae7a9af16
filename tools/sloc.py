"""Code lines of the package, per module and in total.

    python tools/sloc.py [CHECKOUT]

counts, in each module of CHECKOUT's `src/orddraw` (by default the
checkout that holds this file), the lines that hold code: not blank, not
only a comment and not part of a docstring (the string that opens a
module, class or function body).  A line of a multi-line string that is
not a docstring counts.  It prints `module lines` per module, sorted by
name, then `total lines`.  Run it on the parent and on a change to size
the change's source delta without crediting deleted comments or
docstrings as a reduction.  A reader that closes the pipe early
(`| head -1`) ends it with status 1, without a traceback.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

from closed_pipe import exits_on_closed_pipe  # noqa: E402

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers of every docstring in tree."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The lines of source that hold a token of code outside a docstring."""
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


@exits_on_closed_pipe
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", nargs="?", type=Path, default=ROOT,
                        help="the checkout to count (default: this one)")
    ns = parser.parse_args(argv)
    total = 0
    for path in sorted((ns.checkout / "src" / "orddraw").glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{path.name} {count}")
    print(f"total {total}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
