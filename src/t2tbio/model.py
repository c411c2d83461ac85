"""Miniature encoder-decoder transformer in plain numpy.

Pre-norm blocks with scale-only RMS normalization, bucketed relative-position
bias on the self-attention scores (bidirectional table for the encoder, causal
table for the decoder), a shared embedding matrix used as the output
projection, and ReLU feed-forward layers. Gradients are computed analytically
by reverse-mode accumulation through every forward operation; the finite
difference check in the test suite is the contract for that code.

Parameters live in a plain ``dict[str, np.ndarray]``. Shapes are fully
determined by ``ModelConfig``; use ``expected_shapes`` / ``validate_params``
to check a loaded store.

Shape conventions: B batch, S source length, T target length, D d_model,
H heads, Dh = D // H, F d_ff, V vocab size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ModelError
from .rng import SplitMix64
from .vocab import EOS_ID, PAD_ID

NORM_EPS = 1e-6
NEG_INF = -1e9  # additive mask value; underflows to exactly 0 after softmax


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    d_model: int = 64
    n_heads: int = 4
    d_ff: int = 128
    n_encoder_layers: int = 2
    n_decoder_layers: int = 2
    rel_pos_buckets: int = 32
    rel_pos_max_distance: int = 128
    max_seq_len: int = 512
    dropout_rate: float = 0.0
    dtype: str = "float32"

    def __post_init__(self):
        positive = (
            self.vocab_size,
            self.d_model,
            self.n_heads,
            self.d_ff,
            self.n_encoder_layers,
            self.n_decoder_layers,
            self.rel_pos_buckets,
            self.rel_pos_max_distance,
            self.max_seq_len,
        )
        if any(x <= 0 for x in positive):
            raise ConfigError("all model dimensions must be positive")
        if self.d_model % self.n_heads != 0:
            raise ConfigError("d_model must be divisible by n_heads")
        if self.rel_pos_buckets < 4 or self.rel_pos_buckets % 2 != 0:
            raise ConfigError("rel_pos_buckets must be an even number >= 4")
        if self.rel_pos_max_distance <= self.rel_pos_buckets:
            raise ConfigError("rel_pos_max_distance must exceed rel_pos_buckets")
        if self.dropout_rate != 0.0:
            raise ConfigError("this build is deterministic; dropout_rate must be 0")
        if self.dtype not in ("float32", "float64"):
            raise ConfigError("dtype must be 'float32' or 'float64'")

    @property
    def np_dtype(self):
        return np.float64 if self.dtype == "float64" else np.float32

    @property
    def d_head(self) -> int:
        return self.d_model // self.n_heads

    def to_dict(self) -> dict:
        return {
            "vocab_size": self.vocab_size,
            "d_model": self.d_model,
            "n_heads": self.n_heads,
            "d_ff": self.d_ff,
            "n_encoder_layers": self.n_encoder_layers,
            "n_decoder_layers": self.n_decoder_layers,
            "rel_pos_buckets": self.rel_pos_buckets,
            "rel_pos_max_distance": self.rel_pos_max_distance,
            "max_seq_len": self.max_seq_len,
            "dropout_rate": self.dropout_rate,
            "dtype": self.dtype,
        }


@dataclass
class Batch:
    """Padded teacher-forcing batch; pad positions are masked out of both
    attention and loss."""

    encoder_ids: np.ndarray  # [B, S] int64
    decoder_ids: np.ndarray  # [B, T] int64, target shifted right, pad as start
    target_ids: np.ndarray  # [B, T] int64
    encoder_valid: np.ndarray = field(default=None)  # [B, S] bool
    loss_mask: np.ndarray = field(default=None)  # [B, T] bool

    def __post_init__(self):
        if self.encoder_valid is None:
            self.encoder_valid = self.encoder_ids != PAD_ID
        if self.loss_mask is None:
            self.loss_mask = self.target_ids != PAD_ID


def make_batch(
    pairs: list[tuple[list[int], list[int]]], ensure_eos: bool = True
) -> Batch:
    """Assemble (encoder ids, target ids) pairs into a padded Batch.

    With ``ensure_eos`` both sides get a trailing eos if they lack one, so the
    decoder always has a stop signal to learn.
    """
    if not pairs:
        raise ModelError("cannot build an empty batch")
    enc_seqs = []
    tgt_seqs = []
    for enc, tgt in pairs:
        enc = list(enc)
        tgt = list(tgt)
        if ensure_eos:
            if not enc or enc[-1] != EOS_ID:
                enc.append(EOS_ID)
            if not tgt or tgt[-1] != EOS_ID:
                tgt.append(EOS_ID)
        enc_seqs.append(enc)
        tgt_seqs.append(tgt)
    s = max(len(x) for x in enc_seqs)
    t = max(len(x) for x in tgt_seqs)
    b = len(pairs)
    encoder_ids = np.full((b, s), PAD_ID, dtype=np.int64)
    target_ids = np.full((b, t), PAD_ID, dtype=np.int64)
    for i, (enc, tgt) in enumerate(zip(enc_seqs, tgt_seqs)):
        encoder_ids[i, : len(enc)] = enc
        target_ids[i, : len(tgt)] = tgt
    decoder_ids = np.roll(target_ids, 1, axis=1)
    decoder_ids[:, 0] = PAD_ID
    return Batch(encoder_ids=encoder_ids, decoder_ids=decoder_ids, target_ids=target_ids)


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------


def expected_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    d, f, h = cfg.d_model, cfg.d_ff, cfg.n_heads
    shapes: dict[str, tuple[int, ...]] = {
        "embedding": (cfg.vocab_size, d),
        "enc.rel_bias": (cfg.rel_pos_buckets, h),
        "dec.rel_bias": (cfg.rel_pos_buckets, h),
        "enc.norm": (d,),
        "dec.norm": (d,),
    }
    for i in range(cfg.n_encoder_layers):
        for w in ("wq", "wk", "wv", "wo"):
            shapes[f"enc.{i}.attn.{w}"] = (d, d)
        shapes[f"enc.{i}.attn.norm"] = (d,)
        shapes[f"enc.{i}.ff.w1"] = (d, f)
        shapes[f"enc.{i}.ff.w2"] = (f, d)
        shapes[f"enc.{i}.ff.norm"] = (d,)
    for i in range(cfg.n_decoder_layers):
        for blk in ("self", "cross"):
            for w in ("wq", "wk", "wv", "wo"):
                shapes[f"dec.{i}.{blk}.{w}"] = (d, d)
            shapes[f"dec.{i}.{blk}.norm"] = (d,)
        shapes[f"dec.{i}.ff.w1"] = (d, f)
        shapes[f"dec.{i}.ff.w2"] = (f, d)
        shapes[f"dec.{i}.ff.norm"] = (d,)
    return shapes


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


def param_count(params: dict[str, np.ndarray]) -> int:
    return sum(t.size for t in params.values())


def _normal(rng: SplitMix64, shape: tuple[int, ...], std: float, dtype) -> np.ndarray:
    return (rng.next_normal_array(math.prod(shape)).reshape(shape) * std).astype(dtype)


def init_params(cfg: ModelConfig, seed: int = 0) -> dict[str, np.ndarray]:
    rng = SplitMix64(seed)
    dt = cfg.np_dtype
    d, f = cfg.d_model, cfg.d_ff
    params: dict[str, np.ndarray] = {}
    for name, shape in sorted(expected_shapes(cfg).items()):
        if name.endswith(".norm") or name in ("enc.norm", "dec.norm"):
            params[name] = np.ones(shape, dtype=dt)
        elif name.endswith("rel_bias"):
            params[name] = np.zeros(shape, dtype=dt)
        elif name == "embedding":
            params[name] = _normal(rng, shape, 0.05, dt)
        elif name.endswith(".w2"):
            params[name] = _normal(rng, shape, 1.0 / math.sqrt(f), dt)
        else:
            params[name] = _normal(rng, shape, 1.0 / math.sqrt(d), dt)
    return params


def validate_params(params: dict[str, np.ndarray], cfg: ModelConfig) -> None:
    shapes = expected_shapes(cfg)
    missing = sorted(set(shapes) - set(params))
    extra = sorted(set(params) - set(shapes))
    if missing or extra:
        raise ConfigError(f"parameter names do not match config (missing={missing}, extra={extra})")
    for name, shape in shapes.items():
        if tuple(params[name].shape) != shape:
            raise ConfigError(
                f"shape mismatch for {name}: got {tuple(params[name].shape)}, expected {shape}"
            )
        if not np.all(np.isfinite(params[name])):
            raise ConfigError(f"non-finite values in parameter {name}")


def zero_grads(params: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    return {name: np.zeros_like(t) for name, t in params.items()}


# ---------------------------------------------------------------------------
# primitive ops with explicit backward passes
# ---------------------------------------------------------------------------


def relative_position_bucket(
    relative_position, n_buckets: int, max_distance: int, bidirectional: bool
) -> np.ndarray:
    """Bucket index for a (key - query) distance: exact buckets near zero,
    logarithmic out to max_distance, clamped beyond. The bidirectional variant
    spends half the buckets on each sign."""
    rp = np.asarray(relative_position, dtype=np.int64)
    offset = np.zeros_like(rp)
    if bidirectional:
        n = n_buckets // 2
        offset = (rp > 0).astype(np.int64) * n
        rp = np.abs(rp)
    else:
        n = n_buckets
        rp = -np.minimum(rp, 0)
    max_exact = n // 2
    is_small = rp < max_exact
    safe = np.maximum(rp, 1)
    large = max_exact + (
        np.log(safe / max_exact) / math.log(max_distance / max_exact) * (n - max_exact)
    ).astype(np.int64)
    large = np.minimum(large, n - 1)
    return np.where(is_small, rp, large) + offset


def _bias_matrix(table: np.ndarray, q_len: int, k_len: int, cfg: ModelConfig, bidirectional: bool):
    rel = np.arange(k_len)[None, :] - np.arange(q_len)[:, None]
    bucket = relative_position_bucket(
        rel, cfg.rel_pos_buckets, cfg.rel_pos_max_distance, bidirectional
    )
    bias = table[bucket]  # [Q, K, H]
    return bias.transpose(2, 0, 1), bucket  # [H, Q, K]


def _rms_norm_fwd(x: np.ndarray, g: np.ndarray):
    ms = np.mean(x * x, axis=-1, keepdims=True)
    r = 1.0 / np.sqrt(ms + NORM_EPS)
    return x * r * g, (x, r)


def _rms_norm_bwd(dy: np.ndarray, g: np.ndarray, cache):
    x, r = cache
    d = x.shape[-1]
    dg = np.sum(dy * x * r, axis=tuple(range(x.ndim - 1)))
    dot = np.sum(dy * g * x, axis=-1, keepdims=True)
    dx = dy * g * r - x * (r**3) * dot / d
    return dx, dg


def _softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _split_heads(x: np.ndarray, n_heads: int) -> np.ndarray:
    b, l, d = x.shape
    return x.reshape(b, l, n_heads, d // n_heads).transpose(0, 2, 1, 3)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    b, h, l, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, l, h * dh)


def _weight_grad(x: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """Gradient of ``x @ w`` with respect to ``w``: the sum over every leading
    axis of the outer products x ⊗ dy, as one matrix product so BLAS runs it."""
    return x.reshape(-1, x.shape[-1]).T @ dy.reshape(-1, dy.shape[-1])


def _attn_fwd(xq, xkv, params, prefix, cfg, add_mask, bias):
    """add_mask: additive [B, 1, Q, K]; bias: additive [H, Q, K] or None."""
    h = cfg.n_heads
    scale = 1.0 / math.sqrt(cfg.d_head)
    q = _split_heads(xq @ params[prefix + ".wq"], h)
    k = _split_heads(xkv @ params[prefix + ".wk"], h)
    v = _split_heads(xkv @ params[prefix + ".wv"], h)
    scores = q @ k.transpose(0, 1, 3, 2) * scale
    if bias is not None:
        scores = scores + bias[None]
    scores = scores + add_mask
    a = _softmax(scores)
    ctx = _merge_heads(a @ v)
    out = ctx @ params[prefix + ".wo"]
    return out, (xq, xkv, q, k, v, a, ctx)


def _attn_bwd(dout, params, prefix, cfg, cache, grads):
    """Returns (dxq, dxkv, dscores); bias gradients are the caller's job."""
    xq, xkv, q, k, v, a, ctx = cache
    h = cfg.n_heads
    scale = 1.0 / math.sqrt(cfg.d_head)
    grads[prefix + ".wo"] += _weight_grad(ctx, dout)
    dctx = _split_heads(dout @ params[prefix + ".wo"].T, h)
    da = dctx @ v.transpose(0, 1, 3, 2)
    dv = a.transpose(0, 1, 3, 2) @ dctx
    ds = a * (da - np.sum(da * a, axis=-1, keepdims=True))
    dq = ds @ k * scale
    dk = ds.transpose(0, 1, 3, 2) @ q * scale
    dq_flat, dk_flat, dv_flat = _merge_heads(dq), _merge_heads(dk), _merge_heads(dv)
    grads[prefix + ".wq"] += _weight_grad(xq, dq_flat)
    grads[prefix + ".wk"] += _weight_grad(xkv, dk_flat)
    grads[prefix + ".wv"] += _weight_grad(xkv, dv_flat)
    dxq = dq_flat @ params[prefix + ".wq"].T
    dxkv = dk_flat @ params[prefix + ".wk"].T + dv_flat @ params[prefix + ".wv"].T
    return dxq, dxkv, ds


def _accumulate_bias_grad(grads, name, bucket, dscores):
    h = dscores.shape[1]
    ds = dscores.sum(axis=0).transpose(1, 2, 0).reshape(-1, h)  # [(Q*K), H]
    np.add.at(grads[name], bucket.ravel(), ds)


def _ff_fwd(x, params, prefix):
    h1 = x @ params[prefix + ".w1"]
    hr = np.maximum(h1, 0.0)
    return hr @ params[prefix + ".w2"], (x, h1, hr)


def _ff_bwd(dy, params, prefix, cache, grads):
    x, h1, hr = cache
    grads[prefix + ".w2"] += _weight_grad(hr, dy)
    dhr = dy @ params[prefix + ".w2"].T
    dh1 = dhr * (h1 > 0)
    grads[prefix + ".w1"] += _weight_grad(x, dh1)
    return dh1 @ params[prefix + ".w1"].T


# ---------------------------------------------------------------------------
# encoder / decoder stacks
# ---------------------------------------------------------------------------


def _encode(params, cfg, encoder_ids, encoder_valid):
    dt = cfg.np_dtype
    b, s = encoder_ids.shape
    x = params["embedding"][encoder_ids].astype(dt, copy=True)
    key_mask = np.where(encoder_valid[:, None, None, :], 0.0, NEG_INF).astype(dt)
    bias, bucket = _bias_matrix(params["enc.rel_bias"], s, s, cfg, bidirectional=True)
    layer_caches = []
    for i in range(cfg.n_encoder_layers):
        pre = f"enc.{i}"
        n1, c_n1 = _rms_norm_fwd(x, params[pre + ".attn.norm"])
        a_out, c_attn = _attn_fwd(n1, n1, params, pre + ".attn", cfg, key_mask, bias)
        x1 = x + a_out
        n2, c_n2 = _rms_norm_fwd(x1, params[pre + ".ff.norm"])
        f_out, c_ff = _ff_fwd(n2, params, pre + ".ff")
        x = x1 + f_out
        layer_caches.append((c_n1, c_attn, c_n2, c_ff))
    out, c_final = _rms_norm_fwd(x, params["enc.norm"])
    cache = {
        "ids": encoder_ids,
        "layers": layer_caches,
        "final": c_final,
        "bucket": bucket,
        "key_mask": key_mask,
    }
    return out, cache


def _encode_bwd(dout, params, cfg, cache, grads):
    dx, dg = _rms_norm_bwd(dout, params["enc.norm"], cache["final"])
    grads["enc.norm"] += dg
    for i in range(cfg.n_encoder_layers - 1, -1, -1):
        pre = f"enc.{i}"
        c_n1, c_attn, c_n2, c_ff = cache["layers"][i]
        dn2 = _ff_bwd(dx, params, pre + ".ff", c_ff, grads)
        dx1, dg2 = _rms_norm_bwd(dn2, params[pre + ".ff.norm"], c_n2)
        grads[pre + ".ff.norm"] += dg2
        dx1 = dx1 + dx
        dxq, dxkv, ds = _attn_bwd(dx1, params, pre + ".attn", cfg, c_attn, grads)
        _accumulate_bias_grad(grads, "enc.rel_bias", cache["bucket"], ds)
        dn1, dg1 = _rms_norm_bwd(dxq + dxkv, params[pre + ".attn.norm"], c_n1)
        grads[pre + ".attn.norm"] += dg1
        dx = dn1 + dx1
    np.add.at(
        grads["embedding"], cache["ids"].ravel(), dx.reshape(-1, cfg.d_model).astype(grads["embedding"].dtype)
    )


def _decode(params, cfg, decoder_ids, enc_out, encoder_valid, dec_valid):
    dt = cfg.np_dtype
    b, t = decoder_ids.shape
    x = params["embedding"][decoder_ids].astype(dt, copy=True)
    causal = np.tril(np.ones((t, t), dtype=bool))
    self_allowed = causal[None, :, :] & dec_valid[:, None, :]  # [B, T(q), T(k)]
    self_mask = np.where(self_allowed[:, None, :, :], 0.0, NEG_INF).astype(dt)
    cross_mask = np.where(encoder_valid[:, None, None, :], 0.0, NEG_INF).astype(dt)
    bias, bucket = _bias_matrix(params["dec.rel_bias"], t, t, cfg, bidirectional=False)
    layer_caches = []
    for i in range(cfg.n_decoder_layers):
        pre = f"dec.{i}"
        n1, c_n1 = _rms_norm_fwd(x, params[pre + ".self.norm"])
        a_out, c_self = _attn_fwd(n1, n1, params, pre + ".self", cfg, self_mask, bias)
        x1 = x + a_out
        n2, c_n2 = _rms_norm_fwd(x1, params[pre + ".cross.norm"])
        c_out, c_cross = _attn_fwd(n2, enc_out, params, pre + ".cross", cfg, cross_mask, None)
        x2 = x1 + c_out
        n3, c_n3 = _rms_norm_fwd(x2, params[pre + ".ff.norm"])
        f_out, c_ff = _ff_fwd(n3, params, pre + ".ff")
        x = x2 + f_out
        layer_caches.append((c_n1, c_self, c_n2, c_cross, c_n3, c_ff))
    h, c_final = _rms_norm_fwd(x, params["dec.norm"])
    logits = h @ params["embedding"].T.astype(dt, copy=False)
    cache = {"ids": decoder_ids, "layers": layer_caches, "final": c_final, "h": h, "bucket": bucket}
    return logits, cache


def _decode_bwd(dlogits, params, cfg, cache, grads):
    """Returns the gradient flowing into the encoder output."""
    h = cache["h"]
    grads["embedding"] += _weight_grad(dlogits, h)
    dh = dlogits @ params["embedding"].astype(dlogits.dtype, copy=False)
    dx, dg = _rms_norm_bwd(dh, params["dec.norm"], cache["final"])
    grads["dec.norm"] += dg
    d_enc_out = None
    for i in range(cfg.n_decoder_layers - 1, -1, -1):
        pre = f"dec.{i}"
        c_n1, c_self, c_n2, c_cross, c_n3, c_ff = cache["layers"][i]
        dn3 = _ff_bwd(dx, params, pre + ".ff", c_ff, grads)
        dx2, dg3 = _rms_norm_bwd(dn3, params[pre + ".ff.norm"], c_n3)
        grads[pre + ".ff.norm"] += dg3
        dx2 = dx2 + dx
        dxq, dxkv, _ = _attn_bwd(dx2, params, pre + ".cross", cfg, c_cross, grads)
        d_enc_out = dxkv if d_enc_out is None else d_enc_out + dxkv
        dn2, dg2 = _rms_norm_bwd(dxq, params[pre + ".cross.norm"], c_n2)
        grads[pre + ".cross.norm"] += dg2
        dx1 = dn2 + dx2
        dxq, dxkv, ds = _attn_bwd(dx1, params, pre + ".self", cfg, c_self, grads)
        _accumulate_bias_grad(grads, "dec.rel_bias", cache["bucket"], ds)
        dn1, dg1 = _rms_norm_bwd(dxq + dxkv, params[pre + ".self.norm"], c_n1)
        grads[pre + ".self.norm"] += dg1
        dx = dn1 + dx1
    np.add.at(
        grads["embedding"], cache["ids"].ravel(), dx.reshape(-1, cfg.d_model).astype(grads["embedding"].dtype)
    )
    return d_enc_out


def _check_batch(cfg: ModelConfig, batch: Batch) -> None:
    for name, ids in (("encoder", batch.encoder_ids), ("decoder", batch.decoder_ids), ("target", batch.target_ids)):
        if ids.ndim != 2:
            raise ConfigError(f"{name} ids must be 2-D")
        if ids.shape[1] > cfg.max_seq_len:
            raise ConfigError(f"{name} length {ids.shape[1]} exceeds max_seq_len {cfg.max_seq_len}")
        if ids.min() < 0 or ids.max() >= cfg.vocab_size:
            raise ConfigError(f"{name} ids out of range for vocab_size {cfg.vocab_size}")
    if batch.decoder_ids.shape != batch.target_ids.shape:
        raise ConfigError("decoder and target shapes differ")
    if batch.encoder_ids.shape[0] != batch.target_ids.shape[0]:
        raise ConfigError("encoder and target batch sizes differ")


def _dec_key_valid(batch: Batch) -> np.ndarray:
    lengths = batch.loss_mask.sum(axis=1)  # real target length per row
    t = batch.target_ids.shape[1]
    return np.arange(t)[None, :] < lengths[:, None]


def forward(params: dict[str, np.ndarray], cfg: ModelConfig, batch: Batch) -> np.ndarray:
    """Teacher-forcing forward pass; returns logits [B, T, vocab_size]."""
    logits, _ = _forward_with_cache(params, cfg, batch)
    return logits


def _forward_with_cache(params, cfg, batch):
    _check_batch(cfg, batch)
    enc_out, enc_cache = _encode(params, cfg, batch.encoder_ids, batch.encoder_valid)
    logits, dec_cache = _decode(
        params, cfg, batch.decoder_ids, enc_out, batch.encoder_valid, _dec_key_valid(batch)
    )
    if not np.all(np.isfinite(logits)):
        raise ModelError("numeric overflow: non-finite logits")
    return logits, (enc_cache, dec_cache)


def cross_entropy(logits: np.ndarray, target_ids: np.ndarray, loss_mask: np.ndarray):
    """Mean -log softmax(logits)[target] over unmasked positions.

    Returns (loss, dlogits). Raises on an all-masked batch.
    """
    n = int(loss_mask.sum())
    if n == 0:
        raise ModelError("empty loss: no unmasked target positions")
    m = logits.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(logits - m).sum(axis=-1, keepdims=True)) + m
    log_p = np.take_along_axis(logits, target_ids[..., None], axis=-1) - lse
    loss = float(-(log_p[..., 0] * loss_mask).sum() / n)
    dlogits = np.exp(logits - lse)
    np.put_along_axis(
        dlogits,
        target_ids[..., None],
        np.take_along_axis(dlogits, target_ids[..., None], axis=-1) - 1.0,
        axis=-1,
    )
    dlogits *= loss_mask[..., None] / n
    return loss, dlogits


def loss_and_grads(params: dict[str, np.ndarray], cfg: ModelConfig, batch: Batch):
    """Cross-entropy over non-pad targets plus analytic gradients for every
    parameter tensor."""
    logits, (enc_cache, dec_cache) = _forward_with_cache(params, cfg, batch)
    loss, dlogits = cross_entropy(logits, batch.target_ids, batch.loss_mask)
    grads = zero_grads(params)
    d_enc_out = _decode_bwd(dlogits.astype(cfg.np_dtype), params, cfg, dec_cache, grads)
    _encode_bwd(d_enc_out, params, cfg, enc_cache, grads)
    return loss, grads


def greedy_decode(
    params: dict[str, np.ndarray],
    cfg: ModelConfig,
    encoder_ids: list[int],
    max_len: int,
) -> list[int]:
    """Argmax decoding (ties break to the lowest id); stops at eos or max_len.

    Returns the generated ids without the start token or the terminating eos.
    """
    if not encoder_ids:
        raise ModelError("cannot decode from an empty input")
    enc = np.asarray([encoder_ids], dtype=np.int64)
    enc_valid = enc != PAD_ID
    if not enc_valid.any():
        raise ModelError("cannot decode from an all-pad input")
    enc_out, _ = _encode(params, cfg, enc, enc_valid)
    out: list[int] = []
    for _ in range(max_len):
        dec = np.asarray([[PAD_ID] + out], dtype=np.int64)
        dec_valid = np.ones_like(dec, dtype=bool)
        logits, _ = _decode(params, cfg, dec, enc_out, enc_valid, dec_valid)
        nxt = int(np.argmax(logits[0, -1]))
        if nxt == EOS_ID:
            break
        out.append(nxt)
    return out
