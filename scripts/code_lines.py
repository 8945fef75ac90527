#!/usr/bin/env python3
"""Count each Python module's code lines and docstring lines.

A code line holds a code token outside docstrings.  A token is anything
`tokenize` yields except comments, line breaks, indentation and the
encoding and end markers.  A docstring is the string that opens a module,
class or function body (`ast.get_docstring`'s); its lines are the
docstring lines, and its tokens are no code.  A token that spans several
lines, such as a triple-quoted string that is not a docstring, makes each
of them a code line.  Prints one line per module, its code lines, its
docstring lines and its path, then a line of both totals.

    python scripts/code_lines.py src/quasibell
    python scripts/code_lines.py src/quasibell/oracle.py scripts
"""

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

#: The tokens that are no code.
_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def _docstring_starts(tree: ast.AST) -> set[tuple[int, int]]:
    """The (line, column) at which each docstring of `tree` starts."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                starts.add((body[0].value.lineno, body[0].value.col_offset))
    return starts


def code_lines(path: Path) -> tuple[int, int]:
    """How many lines of the Python file `path` hold a code token, and how many a docstring."""
    source = path.read_bytes()
    docstrings = _docstring_starts(ast.parse(source))
    code, docs = set(), set()
    for token in tokenize.tokenize(io.BytesIO(source).readline):
        if token.type in _NOT_CODE:
            continue
        lines = range(token.start[0], token.end[0] + 1)
        if token.type == tokenize.STRING and token.start in docstrings:
            docs.update(lines)
        else:
            code.update(lines)
    return len(code), len(docs)


def modules(paths: list[str]) -> list[Path]:
    """The .py files named, and those under each directory named, sorted within each."""
    found = []
    for name in paths:
        path = Path(name)
        found.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    return found


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="+", help="Python files and directories of them")
    args = parser.parse_args()
    total_code = total_docs = 0
    for path in modules(args.paths):
        code, docs = code_lines(path)
        total_code += code
        total_docs += docs
        print(f"{code:6d}  {docs:6d}  {path}")
    print(f"{total_code:6d}  {total_docs:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
