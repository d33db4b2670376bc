"""Every module-level underscore name of the package is read somewhere in
its own module: a private helper that nothing calls is dead code.  So is
every name a module imports at module level, except in `__init__`, whose
imports are the package's exports."""

import ast
from pathlib import Path

import traceforms

PACKAGE = Path(traceforms.__file__).resolve().parent


def unread_private_names(tree):
    """(line, name) for each module-level underscore name (dunders aside)
    that no expression of the module reads."""
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [(a.asname or a.name).split(".")[0] for a in node.names]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.endswith("__"):
                defined.setdefault(name, node.lineno)
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted((line, name) for name, line in defined.items() if name not in read)


def unread_imports(tree):
    """(line, name) for each name bound by a module-level import (from
    __future__ aside) that no expression of the module reads."""
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    found = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in read:
                    found.append((node.lineno, name))
    return sorted(found)


def test_unread_private_names_are_detected():
    source = (
        "import os as _os\n"
        "_CACHE = {}\n"
        "_used = 1\n"
        "__all__ = []\n"
        "def _helper():\n    return _used\n"
        "class _Dead:\n    pass\n"
        "def public():\n    _local = 2\n    return _local\n"
    )
    assert unread_private_names(ast.parse(source)) == [
        (1, "_os"), (2, "_CACHE"), (5, "_helper"), (7, "_Dead"),
    ]


def test_package_private_names_are_read_in_their_module():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = [
        f"{path.name}:{line}: {name}"
        for path in modules
        for line, name in unread_private_names(ast.parse(path.read_text()))
    ]
    assert found == []


def test_unread_imports_are_detected():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path\n"
        "import json as js\n"
        "from math import gcd, isqrt\n"
        "from .polys import pdeg\n"
        "from . import linalg\n"
        "def f(x: pdeg) -> int:\n    import sys\n    return gcd(x, linalg.n)\n"
    )
    assert unread_imports(ast.parse(source)) == [
        (2, "os"), (3, "os"), (4, "js"), (5, "isqrt"),
    ]


def test_package_modules_read_their_imports():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    found = [
        f"{path.name}:{line}: {name}"
        for path in modules
        for line, name in unread_imports(ast.parse(path.read_text()))
    ]
    assert found == []
