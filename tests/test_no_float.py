"""The package promises exact arithmetic: no float anywhere in its source,
and no check written as an `assert`, which `python -O` strips."""

import ast
from pathlib import Path

import traceforms

PACKAGE = Path(traceforms.__file__).resolve().parent
FLOAT_MATH = {"sqrt", "pow"}


def float_uses(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            yield node.lineno, f"float literal {node.value!r}"
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            yield node.lineno, "float() call"
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            for alias in node.names:
                if alias.name in FLOAT_MATH:
                    yield node.lineno, f"import of math.{alias.name}"
        elif (isinstance(node, ast.Attribute) and node.attr in FLOAT_MATH
              and isinstance(node.value, ast.Name) and node.value.id == "math"):
            yield node.lineno, f"use of math.{node.attr}"


def test_float_uses_are_detected():
    source = "from math import sqrt\nimport math\nx = float(2) + 0.5 + math.pow(2, 3)\n"
    assert len(list(float_uses(ast.parse(source)))) == 4


def test_package_source_has_no_floats():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = [
        f"{path.name}:{line}: {what}"
        for path in modules
        for line, what in float_uses(ast.parse(path.read_text()))
    ]
    assert found == []


def assert_statements(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            yield node.lineno


def test_assert_statements_are_detected():
    source = "def f(x):\n    assert x, 'x'\n    return x\nassert f(1)\n"
    assert sorted(assert_statements(ast.parse(source))) == [2, 4]


def test_package_source_has_no_asserts():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = [
        f"{path.name}:{line}"
        for path in modules
        for line in assert_statements(ast.parse(path.read_text()))
    ]
    assert found == []
