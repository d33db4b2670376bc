"""Every module-level public function or class of the package is either
used inside the package or re-exported by `traceforms/__init__.py`: a
public name that nothing calls and nothing exports is dead code."""

import ast
from pathlib import Path

import traceforms

PACKAGE = Path(traceforms.__file__).resolve().parent


def sibling_imports(tree):
    """(module, name, local name) for each name imported from a sibling
    module by a relative import, at any depth of the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            for alias in node.names:
                yield node.module, alias.name, alias.asname or alias.name


def loaded_names(tree):
    return {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def unused_public_names(sources):
    """(module, line, name) for each module-level public function or class
    that its own module never reads, that no other module imports and
    reads, and that `__init__` does not re-export.  `sources` maps a module
    name to its source text and must include `__init__`."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    used = {(module, name) for module, name, _ in sibling_imports(trees["__init__"])}
    for reader, tree in trees.items():
        if reader == "__init__":
            continue
        loaded = loaded_names(tree)
        used |= {(reader, name) for name in loaded}
        used |= {(module, name) for module, name, local in sibling_imports(tree)
                 if local in loaded}
    return sorted(
        (module, node.lineno, node.name)
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and (module, node.name) not in used
    )


def test_unused_public_names_are_detected():
    sources = {
        "__init__": "from .numberfield import field_from_record\n",
        "linalg": (
            "def identity(n):\n    return n\n"
            "def hnf(m):\n    return m\n"
            "def transpose(m):\n    return m\n"
            "def mat_mul(a, b):\n    return transpose(a)\n"
        ),
        "numberfield": (
            "from .linalg import hnf, transpose as tr\n"
            "class NumberFieldData:\n    pass\n"
            "def field_from_record(rec):\n    return hnf(rec)\n"
            "def maximal_order(poly):\n"
            "    from .linalg import mat_mul\n    return poly\n"
        ),
    }
    assert unused_public_names(sources) == [
        ("linalg", 1, "identity"),
        ("linalg", 7, "mat_mul"),
        ("numberfield", 2, "NumberFieldData"),
        ("numberfield", 6, "maximal_order"),
    ]


def test_package_public_names_are_used_or_exported():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert "__init__" in sources
    found = [f"{module}.py:{line}: {name}"
             for module, line, name in unused_public_names(sources)]
    assert found == []
