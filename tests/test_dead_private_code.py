"""Every private module-level name of the package is used somewhere in it.

A private function, class or constant (a module-level ``_name``) has no
callers outside ``src/idcalc`` by convention, so one that nothing in the
package reads is dead code.  The scan parses every module, collects the
private names each defines at module level and fails on any that no module
loads, imports or reads as an attribute.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "idcalc"


def _private_definitions(tree):
    """(line, name) of each module-level private def, class or assignment."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        out += [(node.lineno, name) for name in names
                if name.startswith("_") and not name.startswith("__")]
    return out


def _references(tree):
    """Names the module reads, as a bare name, an attribute or an import."""
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            refs |= {alias.name for alias in node.names}
    return refs


def test_no_dead_private_names():
    trees = {p.name: ast.parse(p.read_text(), filename=str(p))
             for p in sorted(SRC.glob("*.py"))}
    used = set().union(*(_references(t) for t in trees.values()))
    dead = [f"{module}:{line} {name}" for module, tree in trees.items()
            for line, name in _private_definitions(tree) if name not in used]
    assert not dead, "private names nothing in the package uses: " + ", ".join(dead)
