"""Every module-level name in ``src/t2tbio/`` is used by the program: some
module in ``src/``, ``perfbench/`` (its tests aside) or ``scripts/`` reads
it, beyond the statement that defines it. A name only a test reads belongs
in ``tests/``. Names in ``t2tbio.__all__`` are the package's interface and
need no reader; ``ALLOWED`` lists the others kept on purpose, each with why.
The sources are read with ``ast``, so a name in a string or a comment is not
a read."""

import ast
from pathlib import Path

import t2tbio

from test_imports import PACKAGE

ROOT = PACKAGE.parent.parent

# module.name: why it stays without a reader
ALLOWED = {
    "cli.EXIT_USAGE": "names the exit code argparse gives a usage error, which the module docstring lists",
}


def definitions(tree: ast.Module) -> list[str]:
    """The names a module's top-level statements define: functions,
    classes and assigned names (imports are not definitions)."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return names


def reads(tree: ast.Module) -> set[str]:
    """Every name a module loads, every attribute it names and every name it
    imports from another module."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
    return found


def program_files() -> list[Path]:
    tests = ROOT / "perfbench" / "tests"
    files = [*PACKAGE.glob("*.py"), *(ROOT / "scripts").glob("*.py")]
    return files + [p for p in (ROOT / "perfbench").rglob("*.py") if tests not in p.parents]


def unread_names() -> list[str]:
    used = set().union(*(reads(ast.parse(p.read_text(encoding="utf-8"))) for p in program_files()))
    return sorted(
        f"{path.stem}.{name}"
        for path in PACKAGE.glob("*.py")
        for name in definitions(ast.parse(path.read_text(encoding="utf-8")))
        if not name.startswith("__") and name not in used and name not in t2tbio.__all__
    )


def test_every_module_level_name_has_a_reader():
    assert [name for name in unread_names() if name not in ALLOWED] == []


def test_every_allowed_name_is_still_unread():
    """An allowlisted name that gained a reader, or left ``src/``, leaves the
    list too."""
    assert sorted(ALLOWED) == [name for name in unread_names() if name in ALLOWED]


def test_the_scan_sees_definitions_and_reads():
    tree = ast.parse("\n".join([
        "import os",
        "from .x import imported",
        "A = 1",
        "B: int = 2",
        "def f(): return A",
        "class C: pass",
        "os.path.join(C.attr)",
    ]))
    assert definitions(tree) == ["A", "B", "f", "C"]
    assert {"A", "C", "attr", "imported", "os", "path", "join"} <= reads(tree)
    assert not {"B", "f"} & reads(tree)
