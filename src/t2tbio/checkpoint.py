"""Checkpoint directory layout: manifest.json, weights.bin, optimizer.bin, rng_state.

The manifest records the model config, the step, the Adam record and, for
each tensor, its name, shape, little-endian dtype code, byte offset, and byte
count; the binary blobs are the raw tensor bytes concatenated in manifest
order. Save/load round trips are bit-exact. NaN/Inf values are rejected on load.

A checkpoint always holds the whole training state (weights, Adam state, rng
state, step), since resuming needs each part: ``save_checkpoint`` takes them
all, and each loader returns its part or raises ``CheckpointError`` naming it
and its file, for a missing step, optimizer record or rng state too.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .data_io import read_json, read_record, write_json
from .errors import CheckpointError, ConfigError, DataFormatError
from .model import ModelConfig, validate_params

MANIFEST_NAME = "manifest.json"
WEIGHTS_NAME = "weights.bin"
OPTIMIZER_NAME = "optimizer.bin"
RNG_STATE_NAME = "rng_state"
CHECKPOINT_FORMAT = "t2tbio-checkpoint v1"

_LE_DTYPES = {"<f4": np.dtype("<f4"), "<f8": np.dtype("<f8")}


@dataclass
class AdamState:
    """First/second moment estimates plus the shared step counter."""

    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def _le_code(arr: np.ndarray) -> str:
    code = "<" + arr.dtype.kind + str(arr.dtype.itemsize)
    if code not in _LE_DTYPES:
        raise CheckpointError(f"unsupported tensor dtype {arr.dtype}")
    return code


def _pack(tensors: dict[str, np.ndarray]) -> tuple[list[dict], list[np.ndarray]]:
    """Manifest entries plus the contiguous little-endian arrays whose raw
    bytes, written in this order, make up the blob."""
    entries = []
    arrays = []
    offset = 0
    for name in sorted(tensors):
        code = _le_code(tensors[name])
        arr = np.ascontiguousarray(tensors[name], dtype=_LE_DTYPES[code])
        entries.append(
            {
                "name": name,
                "shape": list(arr.shape),
                "dtype": code,
                "offset": offset,
                "nbytes": arr.nbytes,
            }
        )
        arrays.append(arr)
        offset += arr.nbytes
    return entries, arrays


def _write_blob(path: str, arrays: list[np.ndarray]) -> None:
    with open(path, "wb") as f:
        for arr in arrays:
            f.write(memoryview(arr).cast("B"))


def _is_count(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool) and x >= 0


def _check_entry(e, path: str) -> None:
    """Raise CheckpointError unless ``e`` is a well-formed manifest entry for
    a tensor in the blob at ``path``."""
    if not isinstance(e, dict) or not isinstance(e.get("name"), str):
        raise CheckpointError(f"{path}: malformed manifest entry {e!r}")
    where = f"{path}: manifest entry for tensor {e['name']}"
    if e.get("dtype") not in _LE_DTYPES:
        raise CheckpointError(f"{where} has unsupported dtype {e.get('dtype')!r}")
    shape = e.get("shape")
    if not isinstance(shape, list) or not all(_is_count(n) for n in shape):
        raise CheckpointError(f"{where} has bad shape {shape!r}")
    for key in ("offset", "nbytes"):
        if not _is_count(e.get(key)):
            raise CheckpointError(f"{where} has bad {key} {e.get(key)!r}")
    if math.prod(shape) * _LE_DTYPES[e["dtype"]].itemsize != e["nbytes"]:
        raise CheckpointError(f"{where} has shape {shape} but nbytes {e['nbytes']}")


def _unpack(entries, blob: bytes, path: str) -> dict[str, np.ndarray]:
    if not isinstance(entries, list):
        raise CheckpointError(f"{path}: manifest tensor list is {type(entries).__name__}, not a list")
    tensors: dict[str, np.ndarray] = {}
    for e in entries:
        _check_entry(e, path)
        name = e["name"]
        if name in tensors:
            raise CheckpointError(f"{path}: duplicate tensor {name}")
        raw = blob[e["offset"] : e["offset"] + e["nbytes"]]
        if len(raw) != e["nbytes"]:
            raise CheckpointError(f"{path}: truncated blob at tensor {name}")
        arr = np.frombuffer(raw, dtype=_LE_DTYPES[e["dtype"]]).reshape(e["shape"]).copy()
        if not np.all(np.isfinite(arr)):
            raise CheckpointError(f"{path}: non-finite values in tensor {name}")
        tensors[name] = arr
    return tensors


def save_checkpoint(
    out_dir, params: dict[str, np.ndarray], cfg: ModelConfig, opt_state: AdamState, rng_state: int, step: int
) -> None:
    os.makedirs(out_dir, exist_ok=True)
    weight_entries, weight_arrays = _pack(params)
    opt_tensors = {f"m.{k}": v for k, v in opt_state.m.items()}
    opt_tensors.update({f"v.{k}": v for k, v in opt_state.v.items()})
    opt_entries, opt_arrays = _pack(opt_tensors)
    manifest = {
        "format": CHECKPOINT_FORMAT,
        "model": cfg.to_dict(),
        "tensors": weight_entries,
        "step": step,
        "optimizer": {"name": "adam", "step": opt_state.step, "tensors": opt_entries},
    }
    _write_blob(os.path.join(out_dir, WEIGHTS_NAME), weight_arrays)
    _write_blob(os.path.join(out_dir, OPTIMIZER_NAME), opt_arrays)
    write_json(os.path.join(out_dir, RNG_STATE_NAME), {"algo": "splitmix64", "state": rng_state})
    write_json(os.path.join(out_dir, MANIFEST_NAME), manifest, indent=2)


def _read_json(path: str):
    try:
        return read_json(path)
    except DataFormatError as e:
        raise CheckpointError(str(e)) from e


def load_manifest(ckpt_dir) -> dict:
    path = os.path.join(ckpt_dir, MANIFEST_NAME)
    manifest = _read_json(path)
    if not isinstance(manifest, dict):
        raise CheckpointError(f"{path}: manifest is {type(manifest).__name__}, not an object")
    if manifest.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(f"{path}: unknown format {manifest.get('format')!r}")
    return manifest


def _model_config(manifest: dict, path: str) -> ModelConfig:
    try:
        return read_record(ModelConfig, manifest.get("model"), "model")
    except ConfigError as e:
        raise CheckpointError(f"{path}: bad model config: {e}") from e


def load_checkpoint(ckpt_dir) -> tuple[dict[str, np.ndarray], ModelConfig, dict]:
    """Returns (params, model config, manifest). Validates names, shapes,
    dtypes and finiteness against the manifest's model config."""
    manifest = load_manifest(ckpt_dir)
    manifest_path = os.path.join(ckpt_dir, MANIFEST_NAME)
    cfg = _model_config(manifest, manifest_path)
    if "step" not in manifest:
        raise CheckpointError(f"{manifest_path}: no step")
    if not _is_count(manifest["step"]):
        raise CheckpointError(f"{manifest_path}: bad step {manifest['step']!r}")
    weights_path = os.path.join(ckpt_dir, WEIGHTS_NAME)
    try:
        with open(weights_path, "rb") as f:
            blob = f.read()
    except FileNotFoundError as e:
        raise CheckpointError(f"no weights blob at {weights_path}") from e
    params = _unpack(manifest.get("tensors"), blob, weights_path)
    try:
        validate_params(params, cfg)
    except ConfigError as e:
        raise CheckpointError(f"{weights_path}: {e}") from e
    return params, cfg, manifest


def load_optimizer(ckpt_dir, manifest: dict) -> AdamState:
    """Adam state for a manifest from ``load_checkpoint``, whose optimizer record
    must name Adam at the manifest's step. Each moment must match a parameter's
    shape and dtype, and ``m`` and ``v`` cover the same ones: every parameter
    once the optimizer has taken a step."""
    manifest_path = os.path.join(ckpt_dir, MANIFEST_NAME)
    opt_path = os.path.join(ckpt_dir, OPTIMIZER_NAME)
    if "optimizer" not in manifest:
        raise CheckpointError(f"{manifest_path}: no optimizer record")
    record = manifest["optimizer"]
    if not isinstance(record, dict) or not _is_count(record.get("step")):
        raise CheckpointError(f"{manifest_path}: malformed optimizer record for {opt_path}")
    if record.get("name") != "adam":
        raise CheckpointError(f"{manifest_path}: optimizer record names {record.get('name')!r}, not 'adam'")
    if record["step"] != manifest["step"]:
        raise CheckpointError(f"{manifest_path}: optimizer record at step {record['step']}, not {manifest['step']}")
    try:
        with open(opt_path, "rb") as f:
            blob = f.read()
    except FileNotFoundError as e:
        raise CheckpointError(f"manifest lists an optimizer but {opt_path} is missing") from e
    params = {e["name"]: e for e in manifest["tensors"]}
    state = AdamState(step=record["step"])
    for name, arr in _unpack(record.get("tensors"), blob, opt_path).items():
        moments, param = {"m.": state.m, "v.": state.v}.get(name[:2]), params.get(name[2:])
        if moments is None or param is None:
            raise CheckpointError(f"{opt_path}: optimizer tensor {name} names no parameter")
        if (list(arr.shape), arr.dtype) != (param["shape"], _LE_DTYPES[param["dtype"]]):
            raise CheckpointError(f"{opt_path}: {name} is {arr.dtype} {list(arr.shape)}, unlike its parameter")
        moments[name[2:]] = arr
    if state.m.keys() != state.v.keys():
        raise CheckpointError(f"{opt_path}: m and v hold different tensors: {sorted(state.m.keys() ^ state.v.keys())}")
    if state.step and state.m.keys() != params.keys():
        raise CheckpointError(f"{opt_path}: no moments at step {state.step} for {sorted(params.keys() - state.m.keys())}")
    return state


def load_rng_state(ckpt_dir) -> int:
    path = os.path.join(ckpt_dir, RNG_STATE_NAME)
    payload = _read_json(path)
    if not isinstance(payload, dict) or payload.get("algo") != "splitmix64":
        raise CheckpointError(f"{path}: not a splitmix64 rng state")
    if not _is_count(payload.get("state")):
        raise CheckpointError(f"{path}: bad rng state {payload.get('state')!r}")
    return payload["state"]
