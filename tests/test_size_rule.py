"""The size rule for what runs on the worker thread lives in ``worker``
alone, read from the source with ``ast``: no other package module names
``MIN_SIZE``, so each caller asks ``worker.joined`` instead of comparing a
size with it."""

import ast

from test_imports import PACKAGE


def reads_of_min_size(tree) -> list[int]:
    """Lines, in order, of every name, attribute, import or string that is ``MIN_SIZE``."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            lines += [node.lineno for alias in node.names if alias.name == "MIN_SIZE"]
        elif (
            isinstance(node, ast.Name) and node.id == "MIN_SIZE"
            or isinstance(node, ast.Attribute) and node.attr == "MIN_SIZE"
            or isinstance(node, ast.Constant) and node.value == "MIN_SIZE"
        ):
            lines.append(node.lineno)
    return sorted(lines)


def test_only_worker_reads_min_size():
    reads = {
        path.stem: lines
        for path in sorted(PACKAGE.glob("*.py"))
        if path.stem != "worker" and (lines := reads_of_min_size(ast.parse(path.read_text(encoding="utf-8"))))
    }
    assert reads == {}


def test_the_guard_sees_every_form_of_read():
    source = "\n".join([
        "from .worker import MIN_SIZE",
        "from . import worker",
        "a = worker.MIN_SIZE",
        "b = getattr(worker, 'MIN_SIZE')",
        "c = MIN_SIZE",
        "d = 'MIN_SIZE is named in a longer string'",
    ])
    assert reads_of_min_size(ast.parse(source)) == [1, 3, 4, 5]
