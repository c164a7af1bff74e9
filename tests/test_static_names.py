"""Every global name a module reads is bound in that module or is a builtin.

Walks the symbol tables of the package and test sources, so a missing
import fails here instead of on the first call that reaches it.
"""

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
