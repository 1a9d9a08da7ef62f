"""Every name a package module or a test module imports is used there.

The repository runs no linter, so this scan is the guard: it parses each
module of ``src/idcalc`` and of ``tests``, collects the names bound by its
import statements and fails on any that the module never reads.  A name
listed in the module's ``__all__`` counts as used, since it is re-exported;
so is every import of the package's ``__init__``, whose imports are the
public API.
"""

import ast
import pathlib

import pytest

TESTS = pathlib.Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "idcalc"


def _unused_imports(tree):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name == "*" or (isinstance(node, ast.ImportFrom)
                                         and node.module == "__future__"):
                    continue
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        # re-exports: string entries of a module-level __all__
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {elt.value for elt in ast.walk(node.value)
                     if isinstance(elt, ast.Constant) and isinstance(elt.value, str)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py") \
    + sorted(TESTS.glob("*.py"))


@pytest.mark.parametrize("path", MODULES,
                         ids=lambda p: p.name if p.parent == SRC else f"tests/{p.name}")
def test_no_unused_imports(path):
    unused = _unused_imports(ast.parse(path.read_text(), filename=str(path)))
    assert not unused, f"{path.name}: unused imports " + ", ".join(
        f"{name} (line {line})" for line, name in unused)
