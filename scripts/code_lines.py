#!/usr/bin/env python3
"""Print the code lines of each module of src/boltzmann_billiard, and their total.

A code line is a non-blank line outside docstrings and comments: the
docstrings are the string statements that open a module, class or
function body, found with ast, and a comment line is one whose first
non-blank character is '#'.  Each module prints as `lines path`, and the
last line as `total N`.
"""

import ast
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "boltzmann_billiard"


def docstring_lines(tree: ast.Module) -> set:
    """The line numbers of every docstring of the module tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: pathlib.Path) -> int:
    text = path.read_text()
    skip = docstring_lines(ast.parse(text))
    return sum(1 for n, line in enumerate(text.splitlines(), 1)
               if n not in skip and line.strip() and not line.strip().startswith("#"))


def main() -> int:
    total = 0
    for path in sorted(SRC.glob("*.py")):
        n = code_lines(path)
        total += n
        print(n, path.relative_to(SRC.parent.parent))
    print("total", total)
    return 0


if __name__ == "__main__":
    sys.exit(main())
