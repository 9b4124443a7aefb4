"""Count the lines of the library's modules: ``wc -l`` and code lines.

A code line is a line that is not blank, not a comment alone and not
inside a module, class or function docstring.  Run from anywhere:

    python tools/src_lines.py [directory]

The directory defaults to ``src/shuflat`` beside this script's parent.
Standard library only.
"""

import ast
import sys
from pathlib import Path

SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree):
    """The line numbers that the docstrings of ``tree``'s scopes span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, SCOPES) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path):
    """(all lines, code lines) of one Python file."""
    text = path.read_text()
    lines = text.splitlines()
    skip = docstring_lines(ast.parse(text))
    code = sum(
        1
        for number, line in enumerate(lines, start=1)
        if number not in skip and line.strip() and not line.strip().startswith("#")
    )
    return len(lines), code


def main(argv):
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent / "src" / "shuflat"
    total = code_total = 0
    print(f"{'module':<16} {'lines':>6} {'code':>6}")
    for path in sorted(root.glob("*.py")):
        lines, code = count(path)
        total += lines
        code_total += code
        print(f"{path.name:<16} {lines:>6} {code:>6}")
    print(f"{'total':<16} {total:>6} {code_total:>6}")


if __name__ == "__main__":
    main(sys.argv)
