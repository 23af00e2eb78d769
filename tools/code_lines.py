"""Count the code lines of Python modules.

A code line holds at least one code token.  Blank lines, comment lines and
docstrings (the leading string of a module, class or function) are left
out; a statement or string literal spread over several lines counts each of
its lines.  Prints one `count path` line per module, then the total.

    python3 tools/code_lines.py              # every module under src/
    python3 tools/code_lines.py a.py dir/    # the named files and directories
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
         tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of lines of source that hold a code token, docstrings aside."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def _modules(paths: list[str]) -> list[str]:
    found = []
    for path in paths:
        if os.path.isdir(path):
            for root, dirs, files in os.walk(path):
                dirs.sort()
                found += [os.path.join(root, f) for f in sorted(files) if f.endswith(".py")]
        else:
            found.append(path)
    return found


def main(argv: list[str]) -> int:
    total = 0
    for path in _modules(argv or ["src"]):
        with open(path, encoding="utf-8") as fh:
            count = code_lines(fh.read())
        total += count
        print(f"{count:6d} {path}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
