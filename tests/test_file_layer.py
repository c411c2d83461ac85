"""The package's one file layer, read from the source with ``ast``: only
``data_io`` (every text artifact) and ``checkpoint`` (the weight and
optimizer blobs, read and written as bytes) open a file. Every other module
hands its reads and writes to ``data_io``, which alone reads a versioned
document's ``format``, before any other key."""

import ast
import json

import pytest

from t2tbio.checkpoint import load_checkpoint, save_checkpoint
from t2tbio.errors import CheckpointError, VocabError
from t2tbio.model import ModelConfig, init_params
from t2tbio.vocab import load_vocab, save_vocab

from helpers import word_vocab
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


def format_reads(tree: ast.Module) -> list[str]:
    """``kind:line`` for every read of a ``"format"`` key in ``tree``: a
    subscript that loads it, a ``.get`` or ``.pop`` of it and a comparison
    with it, such as ``"format" in doc``. A dict display's key is a write."""
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load)
                and isinstance(node.slice, ast.Constant) and node.slice.value == "format"):
            found.append(f"subscript:{node.lineno}")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr in ("get", "pop") and node.args
              and isinstance(node.args[0], ast.Constant) and node.args[0].value == "format"):
            found.append(f"{node.func.attr}:{node.lineno}")
        elif isinstance(node, ast.Compare) and any(
                isinstance(x, ast.Constant) and x.value == "format" for x in (node.left, *node.comparators)):
            found.append(f"compare:{node.lineno}")
    return found


def test_only_data_io_reads_a_document_format():
    outside = {}
    for path in sorted(PACKAGE.glob("*.py")):
        reads = format_reads(ast.parse(path.read_text(encoding="utf-8")))
        if reads and path.stem != "data_io":
            outside[path.stem] = reads
    assert outside == {}
    assert format_reads(ast.parse((PACKAGE / "data_io.py").read_text(encoding="utf-8")))


def test_the_format_scan_finds_each_way_to_read_it():
    source = ('doc["format"]\ndoc.get("format")\ndoc.pop("format", None)\n"format" in doc\nkey == "format"\n'
              'summary = {"format": fmt}\ndoc["format"] = fmt\n"{}".format(x)\n')
    assert [read.split(":")[0] for read in format_reads(ast.parse(source))] == [
        "subscript", "get", "pop", "compare", "compare"]


def saved_vocabulary(tmp_path):
    save_vocab(word_vocab(["alpha", "beta"]), tmp_path / "vocab.json")
    return tmp_path / "vocab.json", lambda: load_vocab(tmp_path / "vocab.json"), VocabError


def saved_checkpoint(tmp_path):
    cfg = ModelConfig(vocab_size=32, d_model=16, n_heads=2, d_ff=32, n_encoder_layers=1, n_decoder_layers=1,
                      rel_pos_buckets=8, max_seq_len=32)
    save_checkpoint(tmp_path / "ck", init_params(cfg, 0), cfg, None, rng_state=0, step=0)
    return tmp_path / "ck" / "manifest.json", lambda: load_checkpoint(tmp_path / "ck"), CheckpointError


@pytest.mark.parametrize("saved", [saved_vocabulary, saved_checkpoint], ids=["vocabulary", "checkpoint"])
def test_a_document_of_another_format_is_rejected_by_its_format(tmp_path, saved):
    """A later format that adds a key is named as that format, not as an
    unknown key, whatever else the document holds."""
    path, load, error = saved(tmp_path)
    doc = json.loads(path.read_bytes())
    name = doc["format"].rsplit(" ", 1)[0]
    path.write_text(json.dumps({**doc, "format": f"{name} v3", "merges": []}), encoding="utf-8")
    with pytest.raises(error) as info:
        load()
    assert str(info.value) == f"{path}: format: unknown format '{name} v3', expected {doc['format']!r}"
