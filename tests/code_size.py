"""Lines of each ``repisac`` module: total lines and code lines.

Code lines leave out docstrings (the first statement of a module, class or
function when it is a string, found with ``ast``), blank lines and lines that
hold only a comment. Run it from the repository root:

    python tests/code_size.py

It is a script, not a test module: pytest does not collect it.
"""

import ast
import io
import pathlib
import sys
import tokenize

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "repisac"


def docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers spanned by the docstrings of the module and its classes and functions."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Lines of ``source`` that hold a token other than a comment, outside docstrings."""
    skip = docstring_lines(ast.parse(source))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
                          tokenize.DEDENT, tokenize.ENDMARKER):
            continue
        lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - skip)


def main() -> int:
    total = code = 0
    print(f"{'module':<20}{'lines':>7}{'code':>7}")
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        n_lines, n_code = len(source.splitlines()), code_lines(source)
        total, code = total + n_lines, code + n_code
        print(f"{path.name:<20}{n_lines:>7}{n_code:>7}")
    print(f"{'total':<20}{total:>7}{code:>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
