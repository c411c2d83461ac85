"""Straight-line references used as oracles for the model module.

The forward pass is written with explicit per-head, per-position loops and
scalar bucket arithmetic; the initializer draws one scalar normal at a time;
the weight gradient is the einsum contraction. None of them shares code with
t2tbio.model beyond the config and the parameter dictionary contents.

``rerun_greedy_decode`` is the exception: it is the greedy decoder that
re-runs the full teacher-forced decoder stack over the whole prefix for every
new token, built from the model's own encoder and decoder, and is the oracle
for the incremental ``greedy_decode``.

``recount_train_vocab`` is the vocabulary trainer that recounts every adjacent
pair of every word unit before each merge; it is the oracle for the
incremental ``t2tbio.vocab.train_vocab``. It splits each line into word
units with its own scanning loop, ``scan_split_units``, and counts every
unit of every line, so it also checks how ``train_vocab`` counts words.
"""

from __future__ import annotations

import math

import numpy as np

from t2tbio.model import _decode, _encode
from t2tbio.errors import VocabError
from t2tbio.rng import SplitMix64
from t2tbio.vocab import (
    BOUNDARY,
    EOS_ID,
    EOS_PIECE,
    PAD_ID,
    PAD_PIECE,
    UNK_PIECE,
    Vocabulary,
    _is_reserved_piece,
    sentinel_piece,
)

from oracles import next_normal

EPS = 1e-6
NEG = -1e9


def bucket_scalar(rel: int, n_buckets: int, max_distance: int, bidirectional: bool) -> int:
    base = 0
    if bidirectional:
        n = n_buckets // 2
        if rel > 0:
            base = n
        rel = abs(rel)
    else:
        n = n_buckets
        rel = -min(rel, 0)
    max_exact = n // 2
    if rel < max_exact:
        return base + rel
    value = max_exact + int(
        math.log(rel / max_exact) / math.log(max_distance / max_exact) * (n - max_exact)
    )
    return base + min(value, n - 1)


def _rms(x, g):
    out = np.zeros_like(x)
    d = x.shape[-1]
    for idx in np.ndindex(*x.shape[:-1]):
        row = x[idx]
        scale = 1.0 / math.sqrt(sum(float(t) * float(t) for t in row) / d + EPS)
        out[idx] = row * scale * g
    return out


def _attention(xq, xkv, wq, wk, wv, wo, n_heads, allowed, bias_table, bucket_fn):
    b, q_len, d = xq.shape
    k_len = xkv.shape[1]
    dh = d // n_heads
    out = np.zeros((b, q_len, d))
    for bi in range(b):
        ctx_heads = []
        for h in range(n_heads):
            qh = xq[bi] @ wq[:, h * dh : (h + 1) * dh]
            kh = xkv[bi] @ wk[:, h * dh : (h + 1) * dh]
            vh = xkv[bi] @ wv[:, h * dh : (h + 1) * dh]
            ctx = np.zeros((q_len, dh))
            for i in range(q_len):
                scores = np.zeros(k_len)
                for j in range(k_len):
                    s = float(qh[i] @ kh[j]) / math.sqrt(dh)
                    if bias_table is not None:
                        s += float(bias_table[bucket_fn(j - i), h])
                    if not allowed[bi, i, j]:
                        s += NEG
                    scores[j] = s
                scores -= scores.max()
                w = np.exp(scores)
                w /= w.sum()
                for j in range(k_len):
                    ctx[i] += w[j] * vh[j]
            ctx_heads.append(ctx)
        merged = np.concatenate(ctx_heads, axis=1)
        out[bi] = merged @ wo
    return out


def reference_forward(params, cfg, batch) -> np.ndarray:
    p = {k: np.asarray(v, dtype=np.float64) for k, v in params.items()}
    enc_ids = batch.encoder_ids
    dec_ids = batch.decoder_ids
    b, s = enc_ids.shape
    t = dec_ids.shape[1]
    enc_valid = batch.encoder_valid
    dec_len = batch.loss_mask.sum(axis=1)

    def enc_bucket(rel):
        return bucket_scalar(rel, cfg.rel_pos_buckets, cfg.rel_pos_max_distance, True)

    def dec_bucket(rel):
        return bucket_scalar(rel, cfg.rel_pos_buckets, cfg.rel_pos_max_distance, False)

    # encoder
    x = p["embedding"][enc_ids]
    enc_allowed = np.zeros((b, s, s), dtype=bool)
    for bi in range(b):
        for i in range(s):
            for j in range(s):
                enc_allowed[bi, i, j] = enc_valid[bi, j]
    for layer in range(cfg.n_encoder_layers):
        pre = f"enc.{layer}"
        n1 = _rms(x, p[pre + ".attn.norm"])
        x = x + _attention(
            n1, n1, p[pre + ".attn.wq"], p[pre + ".attn.wk"], p[pre + ".attn.wv"],
            p[pre + ".attn.wo"], cfg.n_heads, enc_allowed, p["enc.rel_bias"], enc_bucket,
        )
        n2 = _rms(x, p[pre + ".ff.norm"])
        hidden = np.maximum(n2 @ p[pre + ".ff.w1"], 0.0)
        x = x + hidden @ p[pre + ".ff.w2"]
    enc_out = _rms(x, p["enc.norm"])

    # decoder
    y = p["embedding"][dec_ids]
    self_allowed = np.zeros((b, t, t), dtype=bool)
    cross_allowed = np.zeros((b, t, s), dtype=bool)
    for bi in range(b):
        for i in range(t):
            for j in range(t):
                self_allowed[bi, i, j] = j <= i and j < dec_len[bi]
            for j in range(s):
                cross_allowed[bi, i, j] = enc_valid[bi, j]
    for layer in range(cfg.n_decoder_layers):
        pre = f"dec.{layer}"
        n1 = _rms(y, p[pre + ".self.norm"])
        y = y + _attention(
            n1, n1, p[pre + ".self.wq"], p[pre + ".self.wk"], p[pre + ".self.wv"],
            p[pre + ".self.wo"], cfg.n_heads, self_allowed, p["dec.rel_bias"], dec_bucket,
        )
        n2 = _rms(y, p[pre + ".cross.norm"])
        y = y + _attention(
            n2, enc_out, p[pre + ".cross.wq"], p[pre + ".cross.wk"], p[pre + ".cross.wv"],
            p[pre + ".cross.wo"], cfg.n_heads, cross_allowed, None, dec_bucket,
        )
        n3 = _rms(y, p[pre + ".ff.norm"])
        hidden = np.maximum(n3 @ p[pre + ".ff.w1"], 0.0)
        y = y + hidden @ p[pre + ".ff.w2"]
    h = _rms(y, p["dec.norm"])
    return h @ p["embedding"].T


def scalar_init_params(shapes: dict, cfg, seed: int, draw=None) -> dict:
    """Initial parameters drawn one ``oracles.next_normal`` at a time, or by
    ``draw(rng, shape, std, dtype)`` if given, over the tensors in sorted name
    order: norms at one, relative-position biases at zero, the embedding at
    std 0.05, ``w2`` at 1/sqrt(d_ff), the rest at 1/sqrt(d_model)."""
    rng = SplitMix64(seed)
    params = {}
    for name, shape in sorted(shapes.items()):
        if name.endswith("norm"):
            params[name] = np.ones(shape, dtype=cfg.np_dtype)
        elif name.endswith("rel_bias"):
            params[name] = np.zeros(shape, dtype=cfg.np_dtype)
        else:
            if name == "embedding":
                std = 0.05
            elif name.endswith(".w2"):
                std = 1.0 / math.sqrt(cfg.d_ff)
            else:
                std = 1.0 / math.sqrt(cfg.d_model)
            if draw is not None:
                params[name] = draw(rng, shape, std, cfg.np_dtype)
                continue
            flat = np.array([next_normal(rng) for _ in range(math.prod(shape))], dtype=np.float64)
            params[name] = (flat.reshape(shape) * std).astype(cfg.np_dtype)
    return params


def einsum_weight_grad(x: np.ndarray, dy: np.ndarray, out: np.ndarray) -> None:
    """Gradient of ``x @ w`` with respect to ``w`` for [N, *] token-row
    activations, contracted by einsum over the rows into ``out``."""
    np.einsum("nd,ne->de", x, dy, out=out)


def rerun_greedy_decode(params, cfg, encoder_ids: list[int], max_len: int) -> tuple[list[int], list[float]]:
    """Greedy decoding by one full decoder pass over ``[pad] + prefix`` per
    step, reading the last row of the T x V logits.

    Returns the generated ids without the terminating eos, as ``greedy_decode``
    does, and for each step the margin between the best and the second-best
    logit of that row."""
    enc = np.asarray([encoder_ids], dtype=np.int64)
    enc_out, _, key_mask = _encode(params, cfg, enc, enc != PAD_ID)
    out: list[int] = []
    margins: list[float] = []
    for _ in range(max_len):
        dec = np.asarray([[PAD_ID] + out], dtype=np.int64)
        dec_valid = np.ones_like(dec, dtype=bool)
        logits, _ = _decode(params, cfg, dec, enc_out, key_mask, dec_valid)
        row = logits[0, -1]
        second, best = np.partition(row, -2)[-2:]
        margins.append(float(best - second))
        nxt = int(np.argmax(row))
        if nxt == EOS_ID:
            break
        out.append(nxt)
    return out, margins


def scan_split_units(normalized: str) -> list[tuple[str, ...]]:
    """Split boundary-normalized text into per-word symbol tuples by scanning
    for each marker after the first character."""
    out: list[tuple[str, ...]] = []
    start = 0
    for i in range(1, len(normalized)):
        if normalized[i] == BOUNDARY:
            out.append(tuple(normalized[start:i]))
            start = i
    out.append(tuple(normalized[start:]))
    return out


def apply_merge(unit: tuple[str, ...], pair: tuple[str, str], merged: str) -> tuple[str, ...]:
    """``unit`` with each occurrence of ``pair``, found left to right without
    overlap, replaced by ``merged``."""
    out: list[str] = []
    i = 0
    while i < len(unit):
        if unit[i : i + 2] == pair:
            out.append(merged)
            i += 2
        else:
            out.append(unit[i])
            i += 1
    return tuple(out)


def recount_train_vocab(corpus, target_size: int, num_sentinels: int = 100) -> Vocabulary:
    """Train a greedy pair-merge subword vocabulary.

    Starts from the single-character alphabet of the (boundary-normalized)
    corpus and repeatedly merges the most frequent adjacent pair, breaking
    frequency ties by lexicographically smallest pair. Merges never cross word
    boundaries and never produce a reserved piece string. Stops at
    ``target_size`` total pieces or when no merge candidates remain, so the
    returned size is at most ``target_size``.
    """
    lines = list(corpus)
    if not lines or all(line == "" for line in lines):
        raise VocabError("empty corpus")
    if num_sentinels < 0:
        raise VocabError("num_sentinels must be non-negative")

    # word unit -> frequency; each unit starts with the boundary marker
    units: dict[tuple[str, ...], int] = {}
    alphabet: set[str] = set()
    for line in lines:
        if line == "":
            continue
        normalized = BOUNDARY + line.replace(" ", BOUNDARY)
        alphabet.update(normalized)
        for unit in scan_split_units(normalized):
            units[unit] = units.get(unit, 0) + 1

    floor = 3 + num_sentinels + len(alphabet)
    if target_size < floor:
        raise VocabError(
            f"vocab size below floor: target_size={target_size} but the minimum is "
            f"{floor} (3 specials + {num_sentinels} sentinels + {len(alphabet)} characters)"
        )

    learned: list[str] = sorted(alphabet)
    budget = target_size - 3 - num_sentinels - len(learned)
    banned: set[tuple[str, str]] = set()
    working = {tuple(unit): freq for unit, freq in units.items()}

    while budget > 0:
        pair_counts: dict[tuple[str, str], int] = {}
        for unit, freq in working.items():
            for a, b in zip(unit, unit[1:]):
                pair_counts[(a, b)] = pair_counts.get((a, b), 0) + freq
        candidates = {p: c for p, c in pair_counts.items() if p not in banned}
        if not candidates:
            break
        # highest count first, then lexicographically smallest pair
        best = min(candidates.items(), key=lambda kv: (-kv[1], kv[0]))[0]
        merged = best[0] + best[1]
        if _is_reserved_piece(merged):
            banned.add(best)
            continue
        working = {apply_merge(unit, best, merged): freq for unit, freq in working.items()}
        learned.append(merged)
        budget -= 1

    pieces = [PAD_PIECE, EOS_PIECE, UNK_PIECE] + learned
    pieces += [sentinel_piece(k) for k in range(num_sentinels - 1, -1, -1)]
    return Vocabulary(pieces=tuple(pieces), num_sentinels=num_sentinels)
