"""The package's one file layer, read from the source with ``ast``: only
``data_io`` (every text artifact) and ``checkpoint`` (the weight and
optimizer blobs, read and written as bytes) open a file. Every other module
hands its reads and writes to ``data_io``."""

import ast

from test_imports import PACKAGE

FILE_MODULES = {"data_io", "checkpoint"}
# methods that open a file: ``os.open``, ``io.open``, ``Path.open`` and the
# ``Path`` methods that read or write a whole file
OPENING_METHODS = {"open", "read_text", "write_text", "read_bytes", "write_bytes"}


def file_calls(tree: ast.Module) -> list[str]:
    """``name:line`` for every call in ``tree`` that opens a file: the
    builtin ``open`` or a method in ``OPENING_METHODS``. ``data_io``'s own
    functions, such as ``data_io.read_text``, hand the file to ``data_io``
    and are not counted."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open":
            found.append(f"open:{node.lineno}")
        elif (isinstance(func, ast.Attribute) and func.attr in OPENING_METHODS
              and not (isinstance(func.value, ast.Name) and func.value.id == "data_io")):
            found.append(f"{ast.unparse(func)}:{node.lineno}")
    return found


def test_only_the_file_layer_opens_files():
    outside = {}
    for path in sorted(PACKAGE.glob("*.py")):
        calls = file_calls(ast.parse(path.read_text(encoding="utf-8")))
        if calls and path.stem not in FILE_MODULES:
            outside[path.stem] = calls
    assert outside == {}


def test_the_scan_finds_each_way_to_open_a_file():
    source = ("open(p)\nos.open(p, 0)\nio.open(p)\nPath(p).open()\np.read_text()\np.write_text(t)\n"
              "p.read_bytes()\ndata_io.read_text(p)\n")
    assert [call.split(":")[0] for call in file_calls(ast.parse(source))] == [
        "open", "os.open", "io.open", "Path(p).open", "p.read_text", "p.write_text", "p.read_bytes"]


def test_the_file_modules_open_files():
    """Both exemptions are in use: a module that no longer opens a file
    leaves ``FILE_MODULES``."""
    for stem in FILE_MODULES:
        assert file_calls(ast.parse((PACKAGE / f"{stem}.py").read_text(encoding="utf-8"))), stem
