"""The kernel's tagged-term format stays inside `groebner`, and the code
line counter that sizes `src/`.

No module of `src/idealkit` but `groebner` reads a tag or uses a helper
that knows the format. `matrix` and `poly` divide through the kernel, but
build their divisors and read their quotients with `groebner`'s own helpers.

    python tests/test_structure.py

prints the code lines of each module of `src/idealkit` and their total.
"""

import ast
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "idealkit"
KERNEL_ONLY = {"tag", "_divide", "_normalize", "_tail"}
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """Lines of source that hold code: no blanks, comments or docstrings.

    A line counts when a token other than a comment or a line break touches
    it, so a statement or string over several lines counts each of them.
    The docstrings of the module, its classes and its functions, found with
    `ast`, do not count.
    """
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        if ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def test_code_lines_skip_blanks_comments_and_docstrings():
    source = (
        '"""Module docstring,\n'
        'over two lines."""\n'
        "\n"
        "# a comment\n"
        "def f(a,\n"
        "      b):\n"
        '    """Docstring."""\n'
        "    return [a,  # a trailing comment\n"
        "            b]\n")
    assert code_lines(source) == 4


def test_tagged_terms_stay_inside_groebner():
    for path in sorted(SRC.glob("*.py")):
        if path.name == "groebner.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                used = {node.attr} & KERNEL_ONLY
            elif isinstance(node, ast.ImportFrom):
                used = {alias.name for alias in node.names} & KERNEL_ONLY
            else:
                continue
            assert not used, f"{path.name}:{node.lineno} uses {sorted(used)}"


if __name__ == "__main__":
    total = 0
    for path in sorted(SRC.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{path.stem:<10} {count:>5}")
    print(f"{'total':<10} {total:>5}")
