"""Checkpoint directory layout: manifest.json, weights.bin, optimizer.bin.

The manifest, a ``Manifest`` read by ``data_io.read_record``, records the
format, the model config, the step, the SplitMix64 rng state, the entries of
each blob and, under ``runtime``, the process that wrote it. A blob entry is
a tensor's name, shape, little-endian dtype code, byte offset and byte count;
the binary blobs are the raw tensor bytes concatenated in manifest order.
``views`` owns that layout: it lays tensors out in one flat array by
``tensor_entries``, which maps names, shapes and dtypes to manifest entries
in sorted-name order. ``layout`` gives the one list of entries of each blob
for a model config: its parameters in its dtype, and Adam's ``m.*`` then
``v.*`` moments of them. ``save_checkpoint`` writes those entries, the
loaders accept exactly them (no moments at step 0), and the trainer names
a tensor by them. The loaders read each blob once into one buffer.
``load_checkpoint`` returns the weights as ``views`` of their buffer, the
layout of the trainer's weight arena. Adam's state is one ``[2, n]`` array
from ``load_optimizer`` to ``save_checkpoint``, which writes its bytes as
``optimizer.bin``: row 0 is ``m`` and row 1 is ``v``, each laid out by
``views`` as the weights are, and every ``m.*`` name sorts before every
``v.*`` name, so the two rows are the halves of the blob.
Another entry list, a blob of another size or a non-finite value raises
``CheckpointError`` naming the blob, and a manifest that ``read_record`` or
``Manifest`` rejects raises it naming ``manifest.json`` and the key. The
format is checked first: a manifest of any format but ``CHECKPOINT_FORMAT``
raises it naming ``manifest.json``, the key ``format`` and the value found.
``save_checkpoint`` builds its ``Manifest`` and compares its tensors with
the same entries before it writes or creates anything, so it cannot write a
checkpoint that its loader rejects. Save/load round trips are bit-exact.

A checkpoint always holds the whole training state (weights, Adam state, rng
state, step), since resuming needs each part: ``save_checkpoint`` takes them
all, and a manifest that lacks one does not load.

Each manifest's ``runtime`` records the numpy version, the BLAS build and
the BLAS thread variables of the process that wrote it, since a model's bits
depend on them (see the package docstring). The loaders do not read it, but
a manifest without it does not load.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
from dataclasses import asdict, dataclass

import numpy as np

from .data_io import read_json, read_record, write_json
from .errors import CheckpointError, ConfigError, DataFormatError
from .model import ModelConfig, expected_shapes

MANIFEST_NAME = "manifest.json"
WEIGHTS_NAME = "weights.bin"
OPTIMIZER_NAME = "optimizer.bin"
CHECKPOINT_FORMAT = "t2tbio-checkpoint v2"


@dataclass(frozen=True)
class Manifest:
    """A checkpoint's ``manifest.json``: the model, the step the state is at,
    the rng state after it, the entries of ``weights.bin`` and of
    ``optimizer.bin`` and the writer's ``runtime``."""

    format: str
    model: ModelConfig
    step: int
    rng_state: int
    weights: list[dict]
    moments: list[dict]
    runtime: dict

    def __post_init__(self):
        if self.step < 0:
            raise ConfigError(f"step: {self.step} is negative")
        if not 0 <= self.rng_state < 2**64:
            raise ConfigError(f"rng_state: {self.rng_state} is outside SplitMix64's 64 bits")


@functools.cache
def runtime() -> dict:
    """The manifest's ``runtime`` record, computed once per process: the numpy
    version, the BLAS build (``"unknown"`` where numpy cannot report it as
    data, before 1.26) and each BLAS thread variable's value, or None where
    it is unset."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        build = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        build = "unknown"
    return {"numpy": np.__version__, "blas": build,
            "threads": {name: os.environ.get(name) for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                                                "MKL_NUM_THREADS")}}


def tensor_entries(tensors: dict[str, tuple[tuple[int, ...], np.dtype]]) -> list[dict]:
    """The manifest entries of a blob holding tensors of these ``{name: (shape,
    dtype)}``: back to back in sorted-name order, each little-endian."""
    entries = []
    offset = 0
    for name in sorted(tensors):
        shape, dtype = tensors[name]
        nbytes = math.prod(shape) * np.dtype(dtype).itemsize
        code = np.dtype(dtype).newbyteorder("<").str
        entries.append({"name": name, "shape": list(shape), "dtype": code, "offset": offset, "nbytes": nbytes})
        offset += nbytes
    return entries


def tensor_at(entries: list[dict], at: int) -> str:
    """The name of the entry of ``tensor_entries`` that holds byte ``at``."""
    return next(e["name"] for e in entries if at < e["offset"] + e["nbytes"])


def views(flat: np.ndarray, shapes: dict[str, tuple[int, ...]]) -> dict[str, np.ndarray]:
    """Views of the 1-D array ``flat`` with these ``{name: shape}``, laid out as
    ``tensor_entries`` lays out a blob."""
    out = {}
    for e in tensor_entries({name: (shape, flat.dtype) for name, shape in shapes.items()}):
        start = e["offset"] // flat.itemsize
        out[e["name"]] = flat[start : start + e["nbytes"] // flat.itemsize].reshape(e["shape"])
    return out


def layout(cfg: ModelConfig) -> tuple[list[dict], list[dict]]:
    """The manifest entries of ``cfg``'s weights and of Adam's moments of
    them, ``m.*`` then ``v.*``: the layouts of ``weights.bin`` and of
    ``optimizer.bin`` after the first step."""
    tensors = {name: (shape, cfg.np_dtype) for name, shape in expected_shapes(cfg).items()}
    return tensor_entries(tensors), tensor_entries({f"{k}.{name}": x for k in "mv" for name, x in tensors.items()})


def save_checkpoint(
    out_dir, params: dict[str, np.ndarray], cfg: ModelConfig, moments: np.ndarray | None, rng_state: int, step: int
) -> None:
    """Write the checkpoint of a run at ``step`` into ``out_dir``. ``moments``
    is Adam's ``[2, n]`` array, laid out by ``views`` for the shapes of
    ``params``, or None before the first step, when there are no moments.
    Tensors that ``load_checkpoint`` would reject for ``cfg`` (other names,
    shapes or dtype), or moments not of shape ``[2, n]`` in ``cfg``'s dtype,
    raise ``CheckpointError`` naming them, and a step or rng state that
    ``Manifest`` rejects raises ``ConfigError``, before anything is written."""
    weights, moment_entries = layout(cfg)
    _check_entries(os.path.join(out_dir, WEIGHTS_NAME), "tensor entry",
                   tensor_entries({name: (x.shape, x.dtype) for name, x in params.items()}), weights)
    n = sum(math.prod(e["shape"]) for e in weights)
    if moments is not None and (moments.shape != (2, n) or moments.dtype != cfg.np_dtype):
        raise CheckpointError(
            f"{os.path.join(out_dir, OPTIMIZER_NAME)}: Adam moments of shape {moments.shape} and dtype "
            f"{moments.dtype}, expected {(2, n)} and {cfg.dtype}"
        )
    opt = [] if moments is None else moment_entries
    manifest = Manifest(CHECKPOINT_FORMAT, cfg, step, rng_state, weights, opt, runtime())
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, WEIGHTS_NAME), "wb") as f:
        for e in weights:
            f.write(memoryview(np.ascontiguousarray(params[e["name"]], e["dtype"])).cast("B"))
    with open(os.path.join(out_dir, OPTIMIZER_NAME), "wb") as f:
        if opt:
            # the array's bytes, one tensor per write: a single write of the
            # whole array (38 MB for the medium model) made a save take 55-60
            # ms in place of 30 on a 2-core host
            blob = memoryview(np.ascontiguousarray(moments, opt[0]["dtype"])).cast("B")
            for e in opt:
                f.write(blob[e["offset"] : e["offset"] + e["nbytes"]])
    write_json(os.path.join(out_dir, MANIFEST_NAME), asdict(manifest), indent=2)


def _check_entries(path: str, what: str, listed: list, expected: list[dict]) -> None:
    """Raise ``CheckpointError`` at the first of the entries ``listed`` for
    the blob at ``path`` that is not the one ``expected`` (compared as JSON)."""
    dump = functools.partial(json.dumps, sort_keys=True)
    if dump(listed) != dump(expected):
        i, got, want = next(
            (i, dump(got), dump(want))
            for i, (got, want) in enumerate(itertools.zip_longest(listed, expected))
            if dump(got) != dump(want)
        )
        raise CheckpointError(f"{path}: {what} {i} is {got}, expected {want}")


def _read_blob(path: str, listed: list[dict], expected: list[dict]) -> memoryview:
    """The bytes of the blob at ``path``, read once into one new buffer, after
    checking that its manifest entries ``listed`` are ``expected`` (compared
    as JSON), that the file holds exactly their bytes and that every value is
    finite. The file's size is compared before the buffer is allocated, so a
    manifest cannot ask for more memory than its blob holds. Arrays made from
    the buffer by ``np.frombuffer`` are the base of their views (a memoryview
    stops numpy's walk to the array under it)."""
    _check_entries(path, "manifest entry", listed, expected)
    nbytes = sum(e["nbytes"] for e in expected)
    try:
        with open(path, "rb") as f:
            size = os.fstat(f.fileno()).st_size
            if size == nbytes:
                buf = memoryview(np.empty(nbytes, np.uint8))  # not bytearray, which zero-fills
                size = f.readinto(buf)
            if size != nbytes:
                raise CheckpointError(f"{path}: {size} bytes, but its manifest entries list {nbytes}")
    except FileNotFoundError as e:
        raise CheckpointError(f"no blob at {path}") from e
    if expected:
        flat = np.frombuffer(buf, expected[0]["dtype"])
        finite = np.isfinite(flat)
        if not finite.all():
            name = tensor_at(expected, int(finite.argmin()) * flat.itemsize)
            raise CheckpointError(f"{path}: non-finite values in tensor {name}")
    return buf


def load_checkpoint(ckpt_dir) -> tuple[dict[str, np.ndarray], ModelConfig, Manifest]:
    """Returns (params, model config, manifest). The params are views of one
    array over ``weights.bin``, laid out as the manifest's model config lays
    them out."""
    path = os.path.join(ckpt_dir, MANIFEST_NAME)
    try:
        doc = read_json(path)
        if isinstance(doc, dict) and doc.get("format", CHECKPOINT_FORMAT) != CHECKPOINT_FORMAT:
            raise ConfigError(f"format: unknown format {doc['format']!r}, expected {CHECKPOINT_FORMAT!r}")
        manifest = read_record(Manifest, doc, "")
    except DataFormatError as e:
        raise CheckpointError(str(e)) from e
    except ConfigError as e:
        raise CheckpointError(f"{path}: {e}") from e
    cfg = manifest.model
    buf = _read_blob(os.path.join(ckpt_dir, WEIGHTS_NAME), manifest.weights, layout(cfg)[0])
    return views(np.frombuffer(buf, cfg.np_dtype), expected_shapes(cfg)), cfg, manifest


def check_model(ckpt_dir, found: ModelConfig, configured: ModelConfig, what: str) -> None:
    """Raise ``ConfigError`` starting with the manifest of the checkpoint at
    ``ckpt_dir`` and then ``what``, naming the first field in which its model
    ``found`` differs from the ``configured`` one, if any does."""
    a, b = found.to_dict(), configured.to_dict()
    key = next((k for k in a if a[k] != b[k]), None)
    if key is not None:
        raise ConfigError(f"{os.path.join(ckpt_dir, MANIFEST_NAME)}: {what}: model.{key} is {a[key]!r}, "
                          f"the configured model's is {b[key]!r}")


def load_optimizer(ckpt_dir, manifest: Manifest) -> np.ndarray | None:
    """Adam's state for a manifest from ``load_checkpoint``, whose moments'
    entries must list ``m.*`` then ``v.*`` of every parameter, or none at step
    0. Returns None at step 0, else the one writable ``[2, n]`` array over
    ``optimizer.bin``'s buffer: row 0 is ``m`` and row 1 is ``v``, each laid
    out by ``views``."""
    cfg = manifest.model
    buf = _read_blob(os.path.join(ckpt_dir, OPTIMIZER_NAME), manifest.moments, layout(cfg)[1] if manifest.step else [])
    return np.frombuffer(buf, cfg.np_dtype).reshape(2, -1) if manifest.step else None
