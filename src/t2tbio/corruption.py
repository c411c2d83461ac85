"""Span-based masked language modeling pairs.

``corrupt`` removes contiguous token spans from a clean sequence, replacing
each span in the input with one sentinel id and emitting a target of the form

    sentinel_0, span_0 tokens, sentinel_1, span_1 tokens, ..., final sentinel, eos

Adjacent selections merge into one span, sentinels are assigned left to right,
and the number of masked tokens is exactly ``round(len * corruption_rate)``
(round half up, at least 1 when the rate is positive). The config holds only
the objective. The vocabulary bounds the spans: at most ``num_sentinels - 1``,
since the final sentinel closes every target. The caller passes each sample's
seed. ``max_spans`` and ``max_target_len`` give the worst case for a window
length, which ``trainer.pretrain`` checks before its first step.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .data_io import write_json
from .errors import ConfigError, CorruptionError
from .rng import SplitMix64
from .vocab import EOS_ID, PAD_ID, Vocabulary

SHARD_FORMAT = "t2tbio-shard v1"


@dataclass(frozen=True)
class SpanCorruptionConfig:
    corruption_rate: float = 0.15
    mean_span_length: float = 3.0

    def __post_init__(self):
        if not 0.0 <= self.corruption_rate < 1.0:
            raise ConfigError("corruption_rate must be in [0, 1)")
        if not (self.mean_span_length >= 1.0 and math.isfinite(self.mean_span_length)):
            raise ConfigError("mean_span_length must be finite and >= 1")


@dataclass(frozen=True)
class CorruptionExample:
    input_ids: tuple[int, ...]
    target_ids: tuple[int, ...]


def _mask_budget(n: int, rate: float) -> int:
    if rate <= 0.0:
        return 0
    # round half up, floor 1
    return max(1, int(n * rate + 0.5))


def max_target_len(n: int, cfg: SpanCorruptionConfig) -> int:
    """The longest target ``corrupt`` makes of at most ``n`` tokens: a
    sentinel per span and the span's tokens, with as many spans as masked
    tokens at most, then the final sentinel and eos."""
    return 2 * _mask_budget(n, cfg.corruption_rate) + 2


def max_spans(n: int, cfg: SpanCorruptionConfig) -> int:
    """The most spans ``corrupt`` makes of at most ``n`` tokens: each masked
    token can start one, and two spans need an unmasked token between them.
    Both terms grow with ``n``."""
    budget = _mask_budget(n, cfg.corruption_rate)
    return min(budget, n - budget + 1)


def corrupt(tokens: list[int], cfg: SpanCorruptionConfig, v: Vocabulary, seed: int) -> CorruptionExample:
    """Mask random spans of ``tokens``; deterministic given (tokens, cfg, seed)."""
    if not tokens:
        raise CorruptionError("cannot corrupt an empty sequence")
    for t in tokens:
        if t in (PAD_ID, EOS_ID) or v.is_sentinel(t):
            raise CorruptionError(f"reserved token in input: id {t}")

    n = len(tokens)
    budget = _mask_budget(n, cfg.corruption_rate)
    rng = SplitMix64(seed)
    masked = np.zeros(n, dtype=bool)
    remaining = budget
    while remaining > 0:
        length = min(rng.next_geometric(cfg.mean_span_length), remaining)
        # longest placeable length <= drawn length; length 1 always fits while
        # any position is still unmasked
        starts = _free_starts(masked, length)
        while starts.size == 0:
            length -= 1
            starts = _free_starts(masked, length)
        s = int(starts[rng.next_below(starts.size)])
        masked[s : s + length] = True
        remaining -= length

    spans = _runs(masked)
    return apply_span_mask(tokens, spans, v)


def apply_span_mask(tokens: list[int], spans: list[tuple[int, int]], v: Vocabulary) -> CorruptionExample:
    """Apply an explicit span selection (list of [start, end) pairs).

    Spans are sorted and adjacent/overlapping selections merge into one span,
    mirroring how consecutive masked tokens count as a single span. More
    spans than ``v.num_sentinels - 1`` raise CorruptionError.
    """
    n = len(tokens)
    for start, end in spans:
        if not 0 <= start < end <= n:
            raise CorruptionError(f"span ({start}, {end}) out of bounds for length {n}")
    merged: list[list[int]] = []
    for start, end in sorted(spans):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])

    limit = v.num_sentinels - 1
    if len(merged) > limit:
        raise CorruptionError(f"too many spans: {len(merged)} (limit {limit})")

    input_ids: list[int] = []
    target_ids: list[int] = []
    pos = 0
    for k, (start, end) in enumerate(merged):
        input_ids.extend(tokens[pos:start])
        input_ids.append(v.sentinel_id(k))
        target_ids.append(v.sentinel_id(k))
        target_ids.extend(tokens[start:end])
        pos = end
    input_ids.extend(tokens[pos:])
    target_ids.append(v.sentinel_id(len(merged)))
    target_ids.append(EOS_ID)
    return CorruptionExample(input_ids=tuple(input_ids), target_ids=tuple(target_ids))


def _free_starts(masked: np.ndarray, length: int) -> np.ndarray:
    """Start positions where a span of ``length`` overlaps nothing masked."""
    n = masked.size
    if length <= 0 or length > n:
        return np.empty(0, dtype=np.int64)
    cs = np.concatenate(([0], np.cumsum(masked)))
    occupied = cs[length:] - cs[:-length]
    return np.flatnonzero(occupied == 0)


def _runs(masked: np.ndarray) -> list[tuple[int, int]]:
    edges = np.flatnonzero(np.diff(np.concatenate(([0], masked.view(np.int8), [0]))))
    return [(int(edges[i]), int(edges[i + 1])) for i in range(0, edges.size, 2)]


def write_shard(path, examples: list[CorruptionExample], cfg: SpanCorruptionConfig, seed: int) -> None:
    """Line-delimited "INPUT<TAB>TARGET" records of space-joined decimal ids,
    plus a ``<path>.manifest.json`` sidecar recording the config, the base
    seed and the count."""
    with open(path, "w", encoding="utf-8") as f:
        for ex in examples:
            f.write(
                " ".join(str(i) for i in ex.input_ids)
                + "\t"
                + " ".join(str(i) for i in ex.target_ids)
                + "\n"
            )
    manifest = {
        "format": SHARD_FORMAT,
        "config": {**asdict(cfg), "seed": seed},
        "records": len(examples),
    }
    write_json(str(path) + ".manifest.json", manifest, indent=2)


def derive_seed(seed: int, index: int) -> int:
    """Per-record seed for shard writing: mixes the record index into ``seed``."""
    return SplitMix64(seed ^ (index * 0x9E3779B97F4A7C15)).next_u64()
