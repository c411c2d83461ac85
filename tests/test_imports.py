"""The package's own import graph, read from the source with ``ast``: it has
no cycle, and every import of a package module sits at module level, where a
reader of the file's header sees it."""

import ast
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import pytest

import t2tbio

PACKAGE = Path(t2tbio.__file__).resolve().parent
MODULES = {path.stem for path in PACKAGE.glob("*.py")}


def _imports(node, in_function=False):
    """(import node, whether a function encloses it) for every import under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.Import, ast.ImportFrom)):
            yield child, in_function
        is_function = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        yield from _imports(child, in_function or is_function)


def _targets(node) -> list[str]:
    """The package modules an import names ("__init__" for the package itself)."""
    if isinstance(node, ast.Import):
        names = [alias.name.split(".") for alias in node.names]
        return [parts[1] if len(parts) > 1 else "__init__" for parts in names if parts[0] == "t2tbio"]
    parts = (node.module or "").split(".")
    if node.level == 0:
        if parts[0] != "t2tbio":
            return []
        parts = parts[1:]
    if parts and parts[0]:
        return [parts[0]]
    return [alias.name if alias.name in MODULES else "__init__" for alias in node.names]


def intra_package_imports() -> list[tuple[str, str, bool]]:
    """(importing module, imported module, inside a function) for every
    intra-package import in the package's files, at any depth."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node, in_function in _imports(ast.parse(path.read_text(encoding="utf-8"))):
            out.extend((path.stem, target, in_function) for target in _targets(node))
    return out


def import_graph() -> dict[str, set[str]]:
    graph = {module: set() for module in MODULES}
    for module, target, _ in intra_package_imports():
        graph[module].add(target)
    return graph


def test_the_import_graph_is_acyclic():
    try:
        TopologicalSorter(import_graph()).prepare()
    except CycleError as e:
        pytest.fail(f"import cycle: {' -> '.join(e.args[1])}")


def test_no_intra_package_import_sits_in_a_function():
    nested = [f"{module} -> {target}" for module, target, in_function in intra_package_imports() if in_function]
    assert nested == []


def test_data_io_is_the_bottom_file_layer():
    assert import_graph()["data_io"] == {"errors", "task_codec"}
