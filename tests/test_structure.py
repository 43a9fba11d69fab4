"""The kernel's tagged-term format stays inside `groebner`.

`matrix` and `poly` divide through the kernel, but build their divisors and
read their quotients with `groebner`'s own helpers: they read no tag and
use none of the helpers that know the format."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "idealkit"
KERNEL_ONLY = {"tag", "_divide", "_normalize", "_tail"}


def test_tagged_terms_stay_inside_groebner():
    for name in ("matrix.py", "poly.py"):
        tree = ast.parse((SRC / name).read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                used = {node.attr} & KERNEL_ONLY
            elif isinstance(node, ast.ImportFrom):
                used = {alias.name for alias in node.names} & KERNEL_ONLY
            else:
                continue
            assert not used, f"{name}:{node.lineno} uses {sorted(used)}"
