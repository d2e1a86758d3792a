"""Count the code lines of Python sources: lines that hold a token.

Comments, blank lines and docstrings do not count.  A docstring is the
string that opens a module, class or function body.  A line counts when any
other token starts, ends or runs across it, so a statement spread over
three lines counts three.

    python .github/code_lines.py [PATH ...]

Each PATH is a file or a directory searched for `*.py`; the default is
`src/partgraph`.  Prints one line per file and the total.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

SKIPPED = {tokenize.ENCODING, tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
           tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers that docstrings span."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    source = path.read_text(encoding="utf-8")
    skipped = docstring_lines(ast.parse(source))
    lines: set[int] = set()
    with path.open("rb") as handle:
        for token in tokenize.tokenize(handle.readline):
            if token.type not in SKIPPED:
                lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - skipped)


def main(argv: list[str]) -> int:
    roots = [Path(arg) for arg in argv] or [Path("src/partgraph")]
    files = [file for root in roots
             for file in (sorted(root.rglob("*.py")) if root.is_dir() else [root])]
    total = 0
    for file in files:
        count = code_lines(file)
        total += count
        print(f"{count:6d}  {file}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
