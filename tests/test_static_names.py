"""Every global name a module reads is bound in that module or is a builtin,
and every name a module imports at its top level is used or exported.

Walks the symbol tables and syntax trees of the package and test sources,
so a missing import fails here instead of on the first call that reaches
it, and a stale one does not outlive the code that used it.
"""

import ast
import builtins
import symtable
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted([*(ROOT / "src" / "finray").glob("*.py"), *(ROOT / "tests").glob("*.py")])
MODULE_NAMES = {"__name__", "__file__", "__doc__", "__spec__", "__loader__",
                "__package__", "__builtins__", "__path__", "__annotations__"}


def _scopes(table):
    yield table
    for child in table.get_children():
        yield from _scopes(child)


def undefined_globals(path: Path) -> set[str]:
    top = symtable.symtable(path.read_text(), str(path), "exec")
    bound = {s.get_name() for s in top.get_symbols()
             if s.is_assigned() or s.is_imported() or s.is_namespace()}
    known = bound | MODULE_NAMES | set(dir(builtins))
    return {s.get_name()
            for scope in _scopes(top)
            for s in scope.get_symbols()
            if s.is_referenced() and s.is_global() and s.get_name() not in known}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_undefined_globals(path):
    assert undefined_globals(path) == set()


def unused_imports(path: Path) -> set[str]:
    tree = ast.parse(path.read_text(), str(path))
    imported = set()
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported |= set(ast.literal_eval(node.value))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return imported - used - exported


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path) == set()
