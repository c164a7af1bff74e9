"""Every global name a module reads is bound in that module or is a builtin,
every name a module imports at its top level is used or exported, every
name in the package's ``__all__`` resolves on it, no package module calls
the builtin ``id()`` (caches are keyed by content), and no package module
but the command line's calls the builtin ``print``: diagnostics go
through ``logging``. Every function the benchmark's tracer
wraps is defined where it looks it up, and the pipeline reads each name
the tracer wraps in it from its globals when it calls it.

Walks the symbol tables and syntax trees of the package and test sources,
so a missing import fails here instead of on the first call that reaches
it, and a stale one does not outlive the code that used it.
"""

import ast
import builtins
import importlib.util
import symtable
from pathlib import Path

import pytest

import finray

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "finray").glob("*.py"))
SOURCES = sorted([*PACKAGE, *(ROOT / "tests").glob("*.py")])
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


def test_package_exports_resolve():
    # a stale name in ``__all__`` breaks only ``from finray import *``
    assert [name for name in finray.__all__ if not hasattr(finray, name)] == []


def builtin_calls(path: Path, name: str) -> list[int]:
    """Lines that call the builtin ``name``."""
    tree = ast.parse(path.read_text(), str(path))
    return [n.lineno for n in ast.walk(tree)
            if isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == name]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_id_calls(path):
    assert builtin_calls(path, "id") == []


# the command line's output is the one place that prints
@pytest.mark.parametrize("path", [p for p in PACKAGE if p.name != "harness_cli.py"],
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_print_calls(path):
    assert builtin_calls(path, "print") == []


def traced_targets():
    """perfbench/spans.py's TARGETS: (owner, attribute, span name, count)."""
    path = ROOT / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TARGETS


def test_traced_functions_resolve():
    # the tracer replaces each (owner, attribute) of perfbench/spans.py's
    # TARGETS by name; a renamed or moved function fails here, not in
    # the first traced benchmark run
    targets = traced_targets()
    assert len(targets) > 20
    assert [(owner.__name__, attr) for owner, attr, *_ in targets
            if attr not in vars(owner)] == []


def test_pipeline_reads_its_traced_names_at_call_time():
    # a function the tracer replaces in ``finray.pipeline`` records a span
    # only if the pipeline's code looks the name up in its own globals
    # when it calls it; a call moved into another module, or a name bound
    # to a local, would bypass the wrapper and its span would read 0
    path = ROOT / "src" / "finray" / "pipeline.py"
    top = symtable.symtable(path.read_text(), str(path), "exec")
    read = {s.get_name() for scope in _scopes(top) if scope is not top
            for s in scope.get_symbols() if s.is_referenced() and s.is_global()}
    wrapped = {attr for owner, attr, *_ in traced_targets() if owner.__name__ == "finray.pipeline"}
    assert {"select_candidate", "intersect_approx", "solve", "remount"} <= wrapped
    assert wrapped - read == set()
