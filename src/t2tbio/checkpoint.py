"""Checkpoint directory layout: manifest.json, weights.bin, optimizer.bin.

The manifest, a ``Manifest`` read by ``data_io.read_document`` under the
format ``CHECKPOINT_FORMAT``, records the model config, the step, the
SplitMix64 rng state, the entries of each blob and, under ``runtime``, the
process that wrote it. A blob entry is
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
``CheckpointError`` naming the blob, and a manifest that ``read_document``
or ``Manifest`` rejects raises it naming ``manifest.json`` and the key; a
manifest of any other format is rejected by its ``format`` before any other
key is read.
``save_checkpoint`` builds its ``Manifest`` and compares its tensors with
the same entries before it writes or creates anything, so it cannot write a
checkpoint that its loader rejects. Save/load round trips are bit-exact.

``save_checkpoint`` writes each blob from one buffer and the manifest last:
``weights.bin`` from the parameters' ``packed`` array, which is the flat
array whose views they are when they are such views (``arena_of``), as the
trainer's are, and ``optimizer.bin`` from the moments array. A buffer that
starts on a page boundary is written with ``O_DIRECT`` (``_write_blob``),
so the kernel copies none of it into the page cache, and ``page_aligned``
hands out such buffers: the trainer's weight arena and zero moments, and the buffers the
loaders read blobs into, so a resumed run's saves are direct too. The last
partial page of a blob, and the whole of it on a platform without
``O_DIRECT``, on a filesystem that rejects it or from a buffer off a page
boundary, is written through the page cache. The bytes are the same.

A checkpoint always holds the whole training state (weights, Adam state, rng
state, step), since resuming needs each part: ``save_checkpoint`` takes them
all, and a manifest that lacks one does not load.

Each manifest's ``runtime`` records the numpy version, the BLAS build and
the BLAS thread variables of the process that wrote it, since a model's bits
depend on them (see the package docstring). The loaders do not read it, but
a manifest without it does not load.
"""

from __future__ import annotations

import errno
import functools
import itertools
import json
import math
import mmap
import os
from dataclasses import dataclass

import numpy as np

try:
    import fcntl
except ImportError:  # not POSIX, so no O_DIRECT either
    fcntl = None

from .data_io import read_document, write_document
from .errors import CheckpointError, ConfigError, DataFormatError
from .model import ModelConfig, expected_shapes

MANIFEST_NAME = "manifest.json"
WEIGHTS_NAME = "weights.bin"
OPTIMIZER_NAME = "optimizer.bin"
CHECKPOINT_FORMAT = "t2tbio-checkpoint v2"
PAGE = mmap.PAGESIZE
O_DIRECT = getattr(os, "O_DIRECT", 0) if fcntl else 0  # 0 where the platform has none
# Bytes per write of a blob. A medium save (19 + 38 MB) wrote in 20-25 ms at
# 16 MiB, 21-27 ms at 1 MiB, with O_DIRECT; through the page cache 1 and 16
# MiB took the same 17 ms.
WRITE_CHUNK = 16 << 20


@dataclass(frozen=True)
class Manifest:
    """A checkpoint's ``manifest.json`` but for its ``format``: the model, the
    step the state is at, the rng state after it, the entries of
    ``weights.bin`` and of ``optimizer.bin`` and the writer's ``runtime``."""

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


def arena_of(tensors: dict[str, np.ndarray]) -> np.ndarray | None:
    """The flat array that the values of ``tensors`` cover as the views that
    ``views`` places at their names, if they are such views; else None."""
    flat = next(iter(tensors.values())).base
    if not (isinstance(flat, np.ndarray) and flat.ndim == 1 and flat.size == sum(t.size for t in tensors.values())):
        return None
    placed = views(flat, {name: t.shape for name, t in tensors.items()})
    # each value has its view's address, shape, strides, dtype and writability
    if all(t.__array_interface__ == placed[name].__array_interface__ for name, t in tensors.items()):
        return flat
    return None


def packed(tensors: dict[str, np.ndarray], dtype=None) -> np.ndarray:
    """One flat array of ``dtype`` (by default the tensors' own) whose views,
    placed by ``views``, hold the values of ``tensors``: the one that they
    already are views of (``arena_of``), if it is of ``dtype``, or else a new
    one from ``page_aligned`` that they are copied into."""
    flat = arena_of(tensors)
    dtype = next(iter(tensors.values())).dtype if dtype is None else np.dtype(dtype)
    if flat is not None and flat.dtype == dtype:
        return flat
    flat = np.frombuffer(page_aligned(sum(t.size for t in tensors.values()) * dtype.itemsize), dtype)
    for name, t in views(flat, {name: t.shape for name, t in tensors.items()}).items():
        t[...] = tensors[name]
    return flat


def page_aligned(nbytes: int) -> memoryview:
    """A new buffer of ``nbytes`` uninitialised bytes that starts on a page
    boundary, as ``O_DIRECT`` needs: a slice of one array a page longer,
    which it keeps alive. An array that ``np.frombuffer`` makes of it is the
    base of its own views, since a memoryview stops numpy's walk to the
    array under it."""
    raw = np.empty(nbytes + PAGE, np.uint8)  # not bytearray, which zero-fills
    start = -raw.ctypes.data % PAGE
    return memoryview(raw[start : start + nbytes])


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
    manifest = Manifest(cfg, step, rng_state, weights, opt, runtime())
    os.makedirs(out_dir, exist_ok=True)
    _write_blob(os.path.join(out_dir, WEIGHTS_NAME), packed(params, weights[0]["dtype"]))
    _write_blob(os.path.join(out_dir, OPTIMIZER_NAME),
                np.ascontiguousarray(moments, opt[0]["dtype"]) if opt else np.empty(0, np.uint8))
    # the fields as they are, not asdict's deep copy of every entry, which
    # took 2.8 ms of a medium save's 7.7 ms of CPU time
    write_document(os.path.join(out_dir, MANIFEST_NAME), CHECKPOINT_FORMAT,
                   vars(manifest) | {"model": cfg.to_dict()}, indent=2)


def _write_blob(path: str, a: np.ndarray) -> None:
    """Write the bytes of the C-contiguous array ``a`` into a new file at
    ``path``, ``WRITE_CHUNK`` bytes per write.

    If ``a`` starts on a page boundary, the file is opened with ``O_DIRECT``
    and the whole pages of ``a`` go from it to the disk: the kernel copies
    none of them into the page cache, a copy that cost a medium save 14-18
    ms of system time on ext4, against 1-2 ms direct. ``O_DIRECT`` is then
    cleared for the last partial page. On a platform without ``O_DIRECT``, a filesystem that
    rejects it (``EINVAL``) or an array off a page boundary, the same bytes
    are written through the page cache."""
    data = memoryview(a).cast("B")
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    direct = len(data) - len(data) % PAGE if O_DIRECT and a.ctypes.data % PAGE == 0 else 0
    if direct:
        try:
            fd = os.open(path, flags | O_DIRECT, 0o666)
        except OSError as e:
            if e.errno != errno.EINVAL:
                raise
            direct = 0
    if not direct:
        fd = os.open(path, flags, 0o666)
    try:
        done = 0
        while done < len(data):
            if direct and done == direct:  # the last partial page
                fcntl.fcntl(fd, fcntl.F_SETFL, fcntl.fcntl(fd, fcntl.F_GETFL) & ~O_DIRECT)
                direct = 0
            done += os.write(fd, data[done : min(done + WRITE_CHUNK, direct or len(data))])
    finally:
        os.close(fd)


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
    """The bytes of the blob at ``path``, read once into one new buffer from
    ``page_aligned``, after checking that its manifest entries ``listed`` are
    ``expected`` (compared as JSON), that the file holds exactly their bytes
    and that every value is finite. The file's size is compared before the
    buffer is allocated, so a manifest cannot ask for more memory than its
    blob holds. Arrays made from the buffer by ``np.frombuffer`` are the base
    of their views."""
    _check_entries(path, "manifest entry", listed, expected)
    nbytes = sum(e["nbytes"] for e in expected)
    try:
        with open(path, "rb") as f:
            size = os.fstat(f.fileno()).st_size
            if size == nbytes:
                buf = page_aligned(nbytes)
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
    try:
        manifest = read_document(os.path.join(ckpt_dir, MANIFEST_NAME), Manifest, CHECKPOINT_FORMAT)
    except (DataFormatError, ConfigError) as e:  # the message names the manifest
        raise CheckpointError(str(e)) from e
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
