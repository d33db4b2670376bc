"""Modules of the package use each other only through public names: an
underscore name is private to the module that defines it."""

import ast
from pathlib import Path

import traceforms

PACKAGE = Path(traceforms.__file__).resolve().parent


def private_imports(tree):
    """(line, module, name) for each underscore name imported from a sibling
    module, that is by a relative import or one from the package."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != PACKAGE.name:
            continue
        for alias in node.names:
            if alias.name.startswith("_"):
                yield node.lineno, "." * node.level + module, alias.name


def test_private_imports_are_detected():
    source = (
        "from .quadform import _search, genus_equal\n"
        "from traceforms.cli import _emit\n"
        "from . import _helpers\n"
        "from itertools import _private\n"
        "def f():\n    from .decide import _local\n"
    )
    found = sorted(private_imports(ast.parse(source)))
    assert found == [
        (1, ".quadform", "_search"),
        (2, "traceforms.cli", "_emit"),
        (3, ".", "_helpers"),
        (6, ".decide", "_local"),
    ]


def test_package_modules_import_no_private_names():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = [
        f"{path.name}:{line}: {name} from {module}"
        for path in modules
        for line, module, name in private_imports(ast.parse(path.read_text()))
    ]
    assert found == []
