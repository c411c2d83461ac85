"""Straight-line references used as oracles for the model module.

The forward pass is written with explicit per-head, per-position loops and
scalar bucket arithmetic; the initializer draws one scalar normal at a time;
the weight gradient is the einsum contraction. None of them shares code with
t2tbio.model beyond the config and the parameter dictionary contents.
"""

from __future__ import annotations

import math

import numpy as np

from t2tbio.rng import SplitMix64

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


def scalar_init_params(shapes: dict, cfg, seed: int) -> dict:
    """Initial parameters drawn one ``SplitMix64.next_normal`` at a time, over
    the tensors in sorted name order: norms at one, relative-position biases at
    zero, the embedding at std 0.05, ``w2`` at 1/sqrt(d_ff), the rest at
    1/sqrt(d_model)."""
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
            flat = np.array([rng.next_normal() for _ in range(math.prod(shape))], dtype=np.float64)
            params[name] = (flat.reshape(shape) * std).astype(cfg.np_dtype)
    return params


def einsum_weight_grad(x: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """Gradient of ``x @ w`` with respect to ``w`` for [B, L, *] activations,
    contracted by einsum over batch and position."""
    return np.einsum("bld,ble->de", x, dy)
