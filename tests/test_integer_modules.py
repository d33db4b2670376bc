"""The integer kernels stay integer: `polys`, `linalg` and `cubicsearch`
import nothing from `fractions`, so no rational arithmetic can creep back
into the polynomial, matrix and enumeration code."""

import ast
from pathlib import Path

import traceforms

PACKAGE = Path(traceforms.__file__).resolve().parent
INTEGER_MODULES = ("polys.py", "linalg.py", "cubicsearch.py")


def fractions_imports(tree):
    """(line, statement) for each import of the `fractions` module or of a
    name from it, at any depth of the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and (node.module or "").split(".")[0] == "fractions":
                yield node.lineno, ast.unparse(node)
        elif isinstance(node, ast.Import):
            if any(a.name.split(".")[0] == "fractions" for a in node.names):
                yield node.lineno, ast.unparse(node)


def test_fractions_imports_are_detected():
    source = (
        "from fractions import Fraction\n"
        "import fractions\n"
        "import os, fractions as fr\n"
        "from .fractions import x\n"
        "from math import gcd\n"
        "def f():\n    from fractions import Fraction as F\n"
    )
    found = [line for line, _ in sorted(fractions_imports(ast.parse(source)))]
    assert found == [1, 2, 3, 7]


def test_integer_modules_import_nothing_from_fractions():
    found = [
        f"{name}:{line}: {stmt}"
        for name in INTEGER_MODULES
        for line, stmt in fractions_imports(ast.parse((PACKAGE / name).read_text()))
    ]
    assert found == []
