"""The size rule for what runs on the worker thread lives in ``worker``
alone, read from the source with ``ast``: no other package module names
``MIN_SIZE``, so each caller asks ``worker.joined`` instead of comparing a
size with it, and none tests whether the ``Jobs`` it got is None, since
``joined`` always yields one."""

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


def checks_of_jobs_against_none(tree) -> list[int]:
    """Lines, in order, of every comparison of a name ``jobs`` with None, or
    of ``jobs`` as a truth value (``if jobs``, ``not jobs``, ``jobs and x``)."""
    def is_jobs(node):
        return isinstance(node, ast.Name) and node.id == "jobs"

    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(map(is_jobs, operands)) and any(isinstance(x, ast.Constant) and x.value is None for x in operands):
                lines.append(node.lineno)
        elif isinstance(node, (ast.If, ast.While, ast.IfExp, ast.Assert)) and is_jobs(node.test):
            lines.append(node.lineno)
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not) and is_jobs(node.operand):
            lines.append(node.lineno)
        elif isinstance(node, ast.BoolOp):
            lines += [node.lineno for x in node.values if is_jobs(x)]
    return sorted(lines)


def test_only_worker_tests_a_jobs_against_none():
    tests = {
        path.stem: lines
        for path in sorted(PACKAGE.glob("*.py"))
        if path.stem != "worker" and (lines := checks_of_jobs_against_none(ast.parse(path.read_text(encoding="utf-8"))))
    }
    assert tests == {}


def test_the_jobs_guard_sees_every_form_of_test():
    source = "\n".join([
        "if jobs is None: pass",
        "x = jobs is not None",
        "y = None == jobs",
        "if jobs: pass",
        "z = a if not jobs else b",
        "w = jobs and jobs.threaded",
        "if jobs.threaded: pass",
        "v = other is None",
    ])
    assert checks_of_jobs_against_none(ast.parse(source)) == [1, 2, 3, 4, 5, 6]
