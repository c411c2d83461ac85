"""Checkpoint directory layout: manifest.json, weights.bin, optimizer.bin, rng_state.

The manifest records the model config plus, for each tensor, its name, shape,
little-endian dtype code, byte offset, and byte count; the binary blobs are the
raw tensor bytes concatenated in manifest order. Save/load round trips are
bit-exact. NaN/Inf values are rejected on load.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import CheckpointError, ConfigError
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
    code = "<" + arr.dtype.char + str(arr.dtype.itemsize)
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
    out_dir,
    params: dict[str, np.ndarray],
    cfg: ModelConfig,
    opt_state: AdamState | None = None,
    rng_state: int | None = None,
    step: int | None = None,
) -> None:
    os.makedirs(out_dir, exist_ok=True)
    weight_entries, weight_arrays = _pack(params)
    manifest = {
        "format": CHECKPOINT_FORMAT,
        "model": cfg.to_dict(),
        "tensors": weight_entries,
    }
    if step is not None:
        manifest["step"] = step
    _write_blob(os.path.join(out_dir, WEIGHTS_NAME), weight_arrays)
    if opt_state is not None:
        opt_tensors = {f"m.{k}": v for k, v in opt_state.m.items()}
        opt_tensors.update({f"v.{k}": v for k, v in opt_state.v.items()})
        opt_entries, opt_arrays = _pack(opt_tensors)
        manifest["optimizer"] = {"name": "adam", "step": opt_state.step, "tensors": opt_entries}
        _write_blob(os.path.join(out_dir, OPTIMIZER_NAME), opt_arrays)
    if rng_state is not None:
        with open(os.path.join(out_dir, RNG_STATE_NAME), "w", encoding="utf-8") as f:
            json.dump({"algo": "splitmix64", "state": rng_state}, f, sort_keys=True)
            f.write("\n")
    with open(os.path.join(out_dir, MANIFEST_NAME), "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")


def load_manifest(ckpt_dir) -> dict:
    path = os.path.join(ckpt_dir, MANIFEST_NAME)
    try:
        with open(path, encoding="utf-8") as f:
            manifest = json.load(f)
    except FileNotFoundError as e:
        raise CheckpointError(f"no manifest at {path}") from e
    except json.JSONDecodeError as e:
        raise CheckpointError(f"{path}: bad manifest JSON: {e}") from e
    if not isinstance(manifest, dict):
        raise CheckpointError(f"{path}: manifest is {type(manifest).__name__}, not an object")
    if manifest.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(f"{path}: unknown format {manifest.get('format')!r}")
    return manifest


def _model_config(manifest: dict, path: str) -> ModelConfig:
    model = manifest.get("model")
    if not isinstance(model, dict):
        raise CheckpointError(f"{path}: manifest has no model config object")
    try:
        return ModelConfig(**model)
    except (TypeError, ConfigError) as e:
        raise CheckpointError(f"{path}: bad model config: {e}") from e


def load_checkpoint(ckpt_dir) -> tuple[dict[str, np.ndarray], ModelConfig, dict]:
    """Returns (params, model config, manifest). Validates shapes and finiteness."""
    manifest = load_manifest(ckpt_dir)
    manifest_path = os.path.join(ckpt_dir, MANIFEST_NAME)
    cfg = _model_config(manifest, manifest_path)
    if not _is_count(manifest.get("step", 0)):
        raise CheckpointError(f"{manifest_path}: bad step {manifest['step']!r}")
    weights_path = os.path.join(ckpt_dir, WEIGHTS_NAME)
    try:
        with open(weights_path, "rb") as f:
            blob = f.read()
    except FileNotFoundError as e:
        raise CheckpointError(f"no weights blob at {weights_path}") from e
    params = _unpack(manifest.get("tensors"), blob, weights_path)
    validate_params(params, cfg)
    return params, cfg, manifest


def load_optimizer(ckpt_dir, manifest: dict) -> AdamState | None:
    if "optimizer" not in manifest:
        return None
    opt_path = os.path.join(ckpt_dir, OPTIMIZER_NAME)
    try:
        with open(opt_path, "rb") as f:
            blob = f.read()
    except FileNotFoundError as e:
        raise CheckpointError(f"manifest lists an optimizer but {opt_path} is missing") from e
    record = manifest["optimizer"]
    if not isinstance(record, dict) or not _is_count(record.get("step")):
        raise CheckpointError(f"{opt_path}: malformed optimizer record in the manifest")
    tensors = _unpack(record.get("tensors"), blob, opt_path)
    state = AdamState(step=record["step"])
    for name, arr in tensors.items():
        if name.startswith("m."):
            state.m[name[2:]] = arr
        elif name.startswith("v."):
            state.v[name[2:]] = arr
        else:
            raise CheckpointError(f"{opt_path}: unexpected optimizer tensor {name}")
    return state


def load_rng_state(ckpt_dir) -> int | None:
    path = os.path.join(ckpt_dir, RNG_STATE_NAME)
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as f:
        try:
            payload = json.load(f)
        except json.JSONDecodeError as e:
            raise CheckpointError(f"{path}: bad rng_state JSON: {e}") from e
    if not isinstance(payload, dict) or payload.get("algo") != "splitmix64":
        raise CheckpointError(f"{path}: not a splitmix64 rng state")
    if not _is_count(payload.get("state")):
        raise CheckpointError(f"{path}: bad rng state {payload.get('state')!r}")
    return payload["state"]
