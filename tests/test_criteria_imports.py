"""The criteria build their local models without the genus oracle:
`raminv` and `decide` import nothing from `quadform`, so the two sides
meet only where their local symbols are compared."""

import ast
from pathlib import Path

import traceforms

PACKAGE = Path(traceforms.__file__).resolve().parent
CRITERIA = ("raminv.py", "decide.py")
ORACLE = "quadform"


def oracle_imports(tree):
    """(line, statement) for each import of the oracle module, relative or
    through the package, at any depth of the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            parts = module.split(".")
            if node.level == 0 and parts[0] != PACKAGE.name:
                continue
            if ORACLE in parts or (module in ("", PACKAGE.name)
                                   and any(a.name == ORACLE for a in node.names)):
                yield node.lineno, ast.unparse(node)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == f"{PACKAGE.name}.{ORACLE}":
                    yield node.lineno, ast.unparse(node)


def test_oracle_imports_are_detected():
    source = (
        "from .quadform import DiagonalForm, model_form\n"
        "from traceforms.quadform import genus_equal\n"
        "from . import quadform\n"
        "import traceforms.quadform\n"
        "from traceforms import quadform as qf\n"
        "from .padic import square_class\n"
        "from quadform import x\n"
        "def f():\n    from .quadform import signature\n"
    )
    found = [line for line, _ in sorted(oracle_imports(ast.parse(source)))]
    assert found == [1, 2, 3, 4, 5, 9]


def test_criteria_modules_do_not_import_the_oracle():
    found = [
        f"{name}:{line}: {stmt}"
        for name in CRITERIA
        for line, stmt in oracle_imports(ast.parse((PACKAGE / name).read_text()))
    ]
    assert found == []
