"""Shared test utilities: hand-built vocabularies, random example builders,
the closed-form parameter count, the greedy exact-match rate, the shard
reader, the scripts loaded as modules, Adam's moments array built from
per-tensor moments, and a checkpoint with one part removed or its optimizer
blob rewritten."""

from __future__ import annotations

import importlib.util
import json
import os
from pathlib import Path

import numpy as np

from t2tbio.checkpoint import views
from t2tbio.corruption import CorruptionExample
from t2tbio.data_io import read_json, read_lines
from t2tbio.errors import ConfigError, DataFormatError
from t2tbio.model import ModelConfig, greedy_decode
from t2tbio.rng import SplitMix64
from t2tbio.task_codec import EntitySpan
from t2tbio.vocab import BOUNDARY, EOS_ID, EOS_PIECE, PAD_PIECE, UNK_PIECE, Vocabulary, sentinel_piece


def word_vocab(words: list[str], num_sentinels: int = 8) -> Vocabulary:
    """Vocabulary whose learned pieces are exactly the given whole words, so
    every word encodes to a single token."""
    seen = []
    for w in words:
        piece = BOUNDARY + w
        if piece not in seen:
            seen.append(piece)
    pieces = [PAD_PIECE, EOS_PIECE, UNK_PIECE] + seen
    pieces += [sentinel_piece(k) for k in range(num_sentinels - 1, -1, -1)]
    return Vocabulary(pieces=tuple(pieces), num_sentinels=num_sentinels)


def random_token_sequence(rng: SplitMix64, length: int, v: Vocabulary) -> list[int]:
    """Random non-reserved token ids valid for v."""
    lo = 3
    hi = v.size - v.num_sentinels
    return [lo + rng.next_below(hi - lo) for _ in range(length)]


def random_sentence(rng: SplitMix64, n_words: int, alphabet: list[str]) -> list[str]:
    return [alphabet[rng.next_below(len(alphabet))] for _ in range(n_words)]


def random_spans(rng: SplitMix64, n_words: int, max_spans: int, entity_type: str) -> list[EntitySpan]:
    """Up to max_spans sorted, non-overlapping spans over n_words words."""
    spans = []
    pos = 0
    for _ in range(max_spans):
        if pos >= n_words:
            break
        start = pos + rng.next_below(n_words - pos)
        end = start + rng.next_below(min(3, n_words - start))
        spans.append(EntitySpan(start_word=start, end_word=end, entity_type=entity_type))
        pos = end + 2  # leave a gap so spans stay non-adjacent-safe and non-overlapping
    k = rng.next_below(len(spans) + 1) if spans else 0
    return spans[:k]


def param_count_formula(cfg: ModelConfig) -> int:
    """Closed-form parameter count implied by the config."""
    d, f, h = cfg.d_model, cfg.d_ff, cfg.n_heads
    enc_layer = 4 * d * d + d + 2 * d * f + d
    dec_layer = 2 * (4 * d * d + d) + 2 * d * f + d
    return (
        cfg.vocab_size * d
        + 2 * cfg.rel_pos_buckets * h
        + 2 * d
        + cfg.n_encoder_layers * enc_layer
        + cfg.n_decoder_layers * dec_layer
    )


def exact_match_rate(
    params: dict[str, np.ndarray],
    model_cfg: ModelConfig,
    pairs: list[tuple[list[int], list[int]]],
    max_len: int,
) -> float:
    """Fraction of pairs whose greedy decode reproduces the target exactly."""
    if not pairs:
        raise ConfigError("no pairs to evaluate")
    hits = 0
    for enc, tgt in pairs:
        expect = list(tgt)
        if expect and expect[-1] == EOS_ID:
            expect = expect[:-1]
        if greedy_decode(params, model_cfg, list(enc), max_len) == expect:
            hits += 1
    return hits / len(pairs)


def read_shard(path) -> list[CorruptionExample]:
    """Read a ``corrupt`` shard; validates the sidecar manifest count when present."""
    examples: list[CorruptionExample] = []
    for lineno, line in enumerate(read_lines(path), start=1):
        if line == "":
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise DataFormatError(
                f"expected INPUT<TAB>TARGET, got {len(parts)} fields", path=str(path), line=lineno
            )
        try:
            inp = tuple(int(x) for x in parts[0].split())
            tgt = tuple(int(x) for x in parts[1].split())
        except ValueError as e:
            raise DataFormatError(f"non-integer token id: {e}", path=str(path), line=lineno) from e
        examples.append(CorruptionExample(input_ids=inp, target_ids=tgt))
    manifest_path = str(path) + ".manifest.json"
    if os.path.exists(manifest_path):
        manifest = read_json(manifest_path)
        records = manifest.get("records") if isinstance(manifest, dict) else None
        if records != len(examples):
            raise DataFormatError(
                f"manifest says {records} records, shard has {len(examples)}",
                path=str(path),
            )
    return examples


def script(name: str):
    """``scripts/<name>.py`` loaded as a module."""
    path = Path(__file__).resolve().parent.parent / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def smoke_script():
    """``scripts/run_smoke.py`` loaded as a module."""
    return script("run_smoke")


# the parts of the training state that a manifest holds besides the weights
CHECKPOINT_PARTS = ["rng_state", "moments", "step"]

def remove_checkpoint_part(ckpt: Path, part: str) -> Path:
    """Delete the key ``part`` from the manifest of the checkpoint at
    ``ckpt``. Returns the manifest's path."""
    path = ckpt / "manifest.json"
    manifest = json.loads(path.read_text(encoding="utf-8"))
    del manifest[part]
    path.write_text(json.dumps(manifest), encoding="utf-8")
    return path


def adam_moments(params: dict[str, np.ndarray], m: dict[str, np.ndarray], v: dict[str, np.ndarray]) -> np.ndarray:
    """Adam's ``[2, n]`` moments array for ``params``, in their dtype: row 0
    holds the tensors of ``m`` and row 1 those of ``v``, each row laid out by
    ``checkpoint.views``."""
    shapes = {name: x.shape for name, x in params.items()}
    out = np.empty((2, sum(x.size for x in params.values())), next(iter(params.values())).dtype)
    for row, tensors in zip(out, (m, v)):
        for name, view in views(row, shapes).items():
            view[...] = tensors[name]
    return out


def optimizer_tensors(ckpt: Path) -> dict[str, np.ndarray]:
    """The tensors of the checkpoint at ``ckpt``'s ``optimizer.bin``, read by
    its manifest's entries."""
    entries = json.loads((ckpt / "manifest.json").read_text(encoding="utf-8"))["moments"]
    blob = (ckpt / "optimizer.bin").read_bytes()
    return {e["name"]: np.frombuffer(blob[e["offset"] : e["offset"] + e["nbytes"]], e["dtype"]).reshape(e["shape"])
            for e in entries}


def write_optimizer(ckpt: Path, tensors: dict[str, np.ndarray]) -> None:
    """Replace the optimizer entries and blob of the checkpoint at ``ckpt``
    with ``tensors``, laid out as the writer lays tensors out: back to back in
    sorted-name order, each little-endian in its own dtype."""
    path = ckpt / "manifest.json"
    manifest = json.loads(path.read_text(encoding="utf-8"))
    entries, parts, offset = [], [], 0
    for name in sorted(tensors):
        x = tensors[name]
        code = x.dtype.newbyteorder("<").str
        parts.append(x.astype(code).tobytes())
        entries.append({"name": name, "shape": list(x.shape), "dtype": code, "offset": offset,
                        "nbytes": len(parts[-1])})
        offset += len(parts[-1])
    manifest["moments"] = entries
    path.write_text(json.dumps(manifest, indent=2), encoding="utf-8")
    (ckpt / "optimizer.bin").write_bytes(b"".join(parts))
