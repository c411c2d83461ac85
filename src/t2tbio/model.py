"""Miniature encoder-decoder transformer in plain numpy.

Pre-norm blocks with scale-only RMS normalization, bucketed relative-position
bias on the self-attention scores (bidirectional table for the encoder, causal
table for the decoder), a shared embedding matrix used as the output
projection, and ReLU feed-forward layers. Gradients are computed analytically
by reverse-mode accumulation through every forward operation; the finite
difference check in the test suite is the contract for that code.

Both stacks run from one table, ``SUBLAYERS``: each stack is a sequence of
pre-norm residual sublayers (an RMS norm, then self-attention, cross-attention
or a feed-forward, then an add to the residual stream). One forward loop,
``_stack_fwd``, and one backward loop, ``_stack_bwd``, serve the encoder and
the decoder, and ``expected_shapes`` derives the parameter names from the same
table. With a key/value cache the forward loop also runs ``greedy_decode``'s
passes over the newest token and any draft tokens copied from the input
behind it; training is its cache-less case.

Every self-attention adds one term to its scaled scores: the key mask of
pad positions (0 or NEG_INF) plus the rel-bias rows that ``_bias_matrix``
builds, which in the decoder already hold NEG_INF at each query's later keys.
Training asks for the rows from query 0, a decode pass for the rows of the
tokens it feeds; both read slices of the same cached bucket grids and causal
mask, which depend only on the lengths.

Parameters live in a plain ``dict[str, np.ndarray]``. Shapes are fully
determined by ``ModelConfig``; ``validate_params`` checks a store's names,
shapes and dtype against them (the trainer runs it before the first step).
``loss_and_grads`` writes the gradients into the arrays of a caller's ``out``
dict (the trainer passes views of one flat array), or into fresh ones.

In-place rule: a helper overwrites only arrays it allocated itself and the
output and gradient buffers it is handed, never its inputs, the parameters
or a cached activation; the one input overwritten is the logits, which
``cross_entropy`` consumes: it writes dlogits over them.
The backward pass reuses its temporaries this way (attention's ``ds`` and
scaled ``dq``/``dk``, the RMS-norm backward's, ReLU backward's mask
product, the residual sums), as do attention's scores, the norm's output
and ``cross_entropy``, and attention writes each head's products straight
into token rows; each element sees the same float operations in the same
order as the out-of-place form, so the results are bit-equal to it. The
forward helpers write into the
arrays they are handed, the rows of a split forward's full-size arrays (see
Threads), or allocate afresh when handed none, as on a decode step, where
fresh arrays cost less than ``np.empty`` and ``out=`` would.

Threads: ``forward``, ``loss_and_grads`` and ``init_params`` ask
``worker.joined`` once per call for the ``Jobs`` the call runs on; the size
rule, and which models meet it, are in ``worker``'s docstring. Every split
is ``Jobs.halves``, which gives the worker the smaller half. With the
worker, the forward pass runs each residual sublayer, the output layer and
the cross-entropy as halves of the batch's sequences at once: the calling
thread does sequences [:B - B//2] and the worker the rest, and both write
their rows of the same full-size arrays, the ones the backward reads
(``_sublayer_halves``). Every forward op is local to its sequence, so each
row gets the BLAS and ufunc calls of one pass over the batch and the bits do
not change. There is one hand-off per sublayer: the calling thread waits for
the worker's half before the next. The batch splits, all of it or none, when
each half has at least ``MIN_HALF_ROWS`` token rows (``_split_batch``);
``greedy_decode``, one sequence, never splits. On a d=256 model (2 vCPUs,
one BLAS thread, 8 sequences of 65 input and 22 target tokens, freed memory
kept as in ``trainer``) the forward took 57 ms on one thread and 36 ms
split. Splitting each GEMM's rows instead is bit-equal too, but its 33
hand-offs per forward held the forward to 60 -> 52 ms: do not retry it.

``loss_and_grads`` also hands part of the backward pass to ``jobs.submit``,
which runs it on the worker, or at once on one thread, and the calling
thread goes on with the chain of input gradients (``dx``,
``dq``/``dk``/``dv``, ``ds``, the norms). The worker owns the gradient
buffer of each weight matrix and of the embedding: it makes every write
into it, the weight-gradient products ``_weight_grad`` and, for the
embedding, the output layer's product and both stacks' scatters, with
the rebuilt operands those products read (see Memory). The
calling thread owns the rest: the norm scales and the relative-position
tables. The worker runs its calls in the order the calling thread hands
them over, which is the order of the single-thread pass, so each buffer sees
the same writes in the same order and every BLAS call is the same one call:
the bits do not change. A call holds the arrays it reads, so the calling
thread writes no array in place once it has handed it over (its residual
sums are fresh arrays). ``loss_and_grads`` waits for the worker before it
returns or raises; an error in a call handed over is raised then, in the
calling thread.

Memory: a step keeps what its backward cannot cheaply remake. Each
sublayer caches its norm's input and reciprocal RMS, and its op's q, k, v
and probabilities (cross-attention also the encoder output), or its one
[N, F] feed-forward activation (``_ff_fwd``). The norm's output and
attention's context are read only by weight-gradient products, so no cache
keeps them: the calls handed over for those products rebuild them with the
forward's own operations (``_norm_out``, ``_context``), which gives the
forward's bits. ``cross_entropy`` writes dlogits over the logits, so one
[B, T, V] array serves both. The backward frees each sublayer's cache as it
leaves it (``_stack_bwd``), once the calls handed over that read it have
run. One step on one thread (``scripts/step_memory.py``, tracemalloc)
peaked at 16.9 MiB on a NER-shaped smoke batch (16 sequences of 64/56
tokens) and 21.2 MiB on a medium one (8 of 65/22), against 21.9 and 28.4
MiB with both cached and dlogits a second array. The rebuilds are two
elementwise products on [N, D] per sublayer and one batched product per
attention sublayer. In alternating in-process rounds (2 vCPUs, one BLAS
thread), a one-thread smoke step (16 sequences of up to 64/64 tokens)
took a median 1.014 times as long (95% interval 1.009-1.019, 200 rounds)
as with both cached and the norm output made as here. Making the norm
output in place on its first product, not through a temporary, saves
about as much: against both cached and that temporary, the ratio was
1.003 (0.999-1.007), and a medium step with the worker 0.975 (0.956-1.000).

Shape conventions: B batch, S source length, T target length, D d_model,
H heads, Dh = D // H, F d_ff, V vocab size, N = B*S or B*T token rows.
Activations are token-major: the residual stream is [N, D] from the
embedding lookup to each stack's final norm, so every activation x weight
product (the attention projections, the feed-forward, the output layer and
their backward products) is one 2-D GEMM with the batch in its rows; a 3-D
operand would make numpy run one BLAS call per batch row. Heads are split to
[B, H, L, Dh] only inside attention, and merged back to [N, D] rows. Logits
leave ``forward`` as a [B, T, V] view.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError, ModelError
from .rng import SplitMix64, draw_normals, jump
from .vocab import EOS_ID, PAD_ID
from .worker import SERIAL, joined

NORM_EPS = 1e-6
NEG_INF = -1e9  # additive mask value; underflows to exactly 0 after softmax
_NORMAL_BLOCK = 32768  # draws per block of an initial weight tensor
# Token rows each half of a split forward needs in every product. OpenBLAS
# runs a one-row product as a matrix-vector call, and a product of at most
# 100**3 multiply-adds on small-matrix kernels, which sum a long inner
# dimension in another order than its large kernels. 16 rows by a matrix of
# worker.MIN_SIZE elements stay above both, so a half's rows get the bits of
# the whole batch's product.
MIN_HALF_ROWS = 16
_CE_SCRATCH = 1 << 16  # elements of cross_entropy's scratch for its row sums


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
        if self.dtype not in ("float32", "float64"):
            raise ConfigError("dtype must be 'float32' or 'float64'")

    @property
    def np_dtype(self):
        return np.float64 if self.dtype == "float64" else np.float32

    @property
    def d_head(self) -> int:
        return self.d_model // self.n_heads

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class Batch:
    """Padded teacher-forcing batch; pad positions are masked out of both
    attention and loss."""

    encoder_ids: np.ndarray  # [B, S] int64
    target_ids: np.ndarray  # [B, T] int64

    @property
    def decoder_ids(self) -> np.ndarray:  # [B, T] int64, target shifted right, pad as start
        decoder_ids = np.roll(self.target_ids, 1, axis=1)
        decoder_ids[:, 0] = PAD_ID
        return decoder_ids

    @property
    def encoder_valid(self) -> np.ndarray:  # [B, S] bool
        return self.encoder_ids != PAD_ID

    @property
    def loss_mask(self) -> np.ndarray:  # [B, T] bool
        return self.target_ids != PAD_ID


def make_batch(
    pairs: list[tuple[list[int], list[int]]], ensure_eos: bool = True
) -> Batch:
    """Assemble (encoder ids, target ids) pairs into a padded Batch.

    With ``ensure_eos`` both sides get a trailing eos if they lack one, so the
    decoder always has a stop signal to learn. Without it, a pair with an
    empty side raises ``ModelError``.
    """
    if not pairs:
        raise ModelError("cannot build an empty batch")
    enc_seqs = []
    tgt_seqs = []
    for i, (enc, tgt) in enumerate(pairs):
        enc = list(enc)
        tgt = list(tgt)
        if ensure_eos:
            if not enc or enc[-1] != EOS_ID:
                enc.append(EOS_ID)
            if not tgt or tgt[-1] != EOS_ID:
                tgt.append(EOS_ID)
        elif not enc or not tgt:
            raise ModelError(f"pair {i} has an empty {'input' if not enc else 'target'} side")
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
    return Batch(encoder_ids=encoder_ids, target_ids=target_ids)


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------


# Each stack's residual sublayers, in the order they run: (name, kind). Layer
# i of a stack runs them under the prefix "{stack}.{i}.{name}"; kind "self" is
# self-attention with the stack's rel-bias, "cross" attention over the encoder
# output, "ff" the feed-forward.
SUBLAYERS = {
    "enc": (("attn", "self"), ("ff", "ff")),
    "dec": (("self", "self"), ("cross", "cross"), ("ff", "ff")),
}


def _sublayers(cfg: ModelConfig, stack: str) -> tuple[tuple[str, str], ...]:
    """(prefix, kind) of every residual sublayer of a stack, in run order."""
    n = cfg.n_encoder_layers if stack == "enc" else cfg.n_decoder_layers
    return _named_sublayers(stack, n, SUBLAYERS[stack])


@lru_cache(maxsize=64)  # built once per layout, not on every decode step
def _named_sublayers(stack: str, n: int, table: tuple) -> tuple[tuple[str, str], ...]:
    return tuple((f"{stack}.{i}.{name}", kind) for i in range(n) for name, kind in table)


def expected_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    d, f, h = cfg.d_model, cfg.d_ff, cfg.n_heads
    shapes: dict[str, tuple[int, ...]] = {
        "embedding": (cfg.vocab_size, d),
        "enc.rel_bias": (cfg.rel_pos_buckets, h),
        "dec.rel_bias": (cfg.rel_pos_buckets, h),
        "enc.norm": (d,),
        "dec.norm": (d,),
    }
    for stack in SUBLAYERS:
        for prefix, kind in _sublayers(cfg, stack):
            if kind == "ff":
                shapes[prefix + ".w1"] = (d, f)
                shapes[prefix + ".w2"] = (f, d)
            else:
                for w in ("wq", "wk", "wv", "wo"):
                    shapes[f"{prefix}.{w}"] = (d, d)
            shapes[prefix + ".norm"] = (d,)
    return shapes


def param_count(params: dict[str, np.ndarray]) -> int:
    return sum(t.size for t in params.values())


def _fill_normal(tensors, seed: int, size: int) -> None:
    """Fill each ``(tensor, std)`` of ``tensors``, a contiguous tensor, in
    turn with ``std`` times the next normal draws of ``SplitMix64(seed)``:
    the bits of drawing them one tensor at a time. Each tensor is cut into
    ``_NORMAL_BLOCK``-draw blocks, each with its own stream state
    (``rng.jump``). The blocks run as ``halves`` of the ``Jobs`` that
    ``worker.joined(size)`` yields, each half through scratch arrays of one
    block it reuses."""
    blocks = []
    state = SplitMix64(seed).getstate()
    for tensor, std in tensors:
        flat = tensor.reshape(-1)
        for i in range(0, flat.size, _NORMAL_BLOCK):
            block = flat[i : i + _NORMAL_BLOCK]
            blocks.append((block, state, std))
            state = jump(state, 2 * block.size)  # two uniforms per normal
    with joined(size) as jobs:
        jobs.halves(len(blocks), lambda lo, hi: draw_normals(blocks[lo:hi]))


def init_params(cfg: ModelConfig, seed: int = 0) -> dict[str, np.ndarray]:
    """Initial weights: norm scales of 1, relative-position tables of 0, and
    normal draws of ``SplitMix64(seed)`` for the rest, taken in name order,
    with std 0.05 for the embedding, 1/sqrt(d_ff) for ``w2`` and
    1/sqrt(d_model) for the other matrices. The draws run on two threads for
    a model whose steps do (``worker.joined`` asked with ``_smallest_matrix``)
    and give the same bits on one."""
    dt = cfg.np_dtype
    params: dict[str, np.ndarray] = {}
    drawn = []
    for name, shape in sorted(expected_shapes(cfg).items()):
        if name.endswith(".norm"):
            params[name] = np.ones(shape, dtype=dt)
        elif name.endswith("rel_bias"):
            params[name] = np.zeros(shape, dtype=dt)
        else:
            params[name] = np.empty(shape, dtype=dt)
            fan_in = cfg.d_ff if name.endswith(".w2") else cfg.d_model
            drawn.append((params[name], 0.05 if name == "embedding" else 1.0 / math.sqrt(fan_in)))
    _fill_normal(drawn, seed, _smallest_matrix(cfg))
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
        if params[name].dtype != cfg.np_dtype:
            raise ConfigError(f"dtype mismatch for {name}: got {params[name].dtype}, expected {cfg.dtype}")


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


@lru_cache(maxsize=64)
def _buckets(size: int, n_buckets: int, max_distance: int, bidirectional: bool) -> np.ndarray:
    """Read-only [size, size] grid of the bucket of key k for query q. It
    depends on k - q only, so its top-left corners serve every shorter length."""
    rel = np.arange(size) - np.arange(size)[:, None]
    grid = relative_position_bucket(rel, n_buckets, max_distance, bidirectional)
    grid.flags.writeable = False
    return grid


@lru_cache(maxsize=64)
def _future(size: int, dtype) -> np.ndarray:
    """Read-only [size, size] causal mask: NEG_INF at each query's later keys, else 0."""
    mask = np.triu(np.full((size, size), NEG_INF, dtype), 1)
    mask.flags.writeable = False
    return mask


def _bias_matrix(table: np.ndarray, cfg: ModelConfig, q0: int, q_len: int, bidirectional: bool):
    """A self-attention's additive rel-bias [H, q_len, K] for the query rows
    q0..q0+q_len-1 over the keys 0..K-1, K = q0 + q_len, with NEG_INF added at
    each query's later keys in the (causal) decoder; and the [q_len, K] bucket
    grid the backward pass scatters through. Both grids are slices of cached
    ones whose size is the next power of two at or above K, so each direction
    keeps at most 4/3 of its largest grid, whatever lengths arrive."""
    k = q0 + q_len
    size = 1 << (k - 1).bit_length()
    bucket = _buckets(size, cfg.rel_pos_buckets, cfg.rel_pos_max_distance, bidirectional)[q0:k, :k]
    bias = table[bucket].transpose(2, 0, 1)  # [Q, K, H] -> [H, Q, K]
    if not bidirectional:
        bias = bias + _future(size, table.dtype)[q0:k, :k]
    return bias, bucket


def _rms_norm_fwd(x: np.ndarray, g: np.ndarray, r=None):
    """RMS norm of the rows of ``x``, times ``g``, as a fresh array, and the
    backward's cache ``(x, r)``, r each row's reciprocal RMS, written into
    ``r`` if given (as all the forward helpers' ``out`` arrays), else into a
    fresh array."""
    # np.mean's own sum-then-divide, bit for bit, without its Python wrapper,
    # which costs more than the arithmetic on a one-token decode row
    ms = np.add.reduce(x * x, axis=-1, keepdims=True) / x.shape[-1]
    r = np.divide(1.0, np.sqrt(ms + NORM_EPS), out=r)
    return _norm_out((x, r), g), (x, r)


def _norm_out(cache, g: np.ndarray) -> np.ndarray:
    """The norm's output ``(x * r) * g`` from its cache ``(x, r)`` and scale
    ``g``, the one way the forward makes it, so a backward that rebuilds it
    gets the bits the forward used."""
    x, r = cache
    n = x * r
    n *= g  # in place: one fresh array, not two
    return n


def _rms_norm_bwd(dy: np.ndarray, g: np.ndarray, cache, dg: np.ndarray) -> np.ndarray:
    """Returns dx and writes the scale's gradient into ``dg``."""
    x, r = cache
    dyg = dy * g
    t = dy * x
    t *= r
    np.add.reduce(t, axis=0, out=dg)
    np.multiply(dyg, x, out=t)
    dot = np.add.reduce(t, axis=-1, keepdims=True)
    np.multiply(x, r**3, out=t)
    t *= dot
    t /= x.shape[-1]
    dyg *= r
    dyg -= t  # dy*g*r - x*r**3*dot/D
    return dyg


def _softmax_in_place(z: np.ndarray) -> None:
    # the ufuncs' own reductions: the bits of z.max and z.sum, without their
    # Python wrappers, which cost more than the arithmetic on a decode step
    z -= np.maximum.reduce(z, axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= np.add.reduce(z, axis=-1, keepdims=True)


def _split_heads(x: np.ndarray, b: int, n_heads: int) -> np.ndarray:
    """[B*L, D] token rows -> [B, H, L, Dh]."""
    return x.reshape(b, -1, n_heads, x.shape[1] // n_heads).transpose(0, 2, 1, 3)


def _weight_grad(x: np.ndarray, dy: np.ndarray, out: np.ndarray) -> None:
    """Gradient of ``x @ w`` with respect to ``w`` for token rows x [N, D] and
    dy [N, E], written into ``out`` [D, E]: the sum over rows of the outer
    products x ⊗ dy, one GEMM."""
    np.matmul(x.T, dy, out=out)


def _op_weight_grads(c_norm, g, products) -> None:
    """``_weight_grad(x, dy, out)`` for each ``(x, dy, out)`` of
    ``products``, an x of None standing for the sublayer op's input: the
    output of the norm with cache ``c_norm`` and scale ``g``, which no cache
    keeps and which is rebuilt here with ``_norm_out``. Handed over, the
    rebuild runs where the products do."""
    n = _norm_out(c_norm, g)
    for x, dy, out in products:
        _weight_grad(n if x is None else x, dy, out)


def _context(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Attention's context a @ v as fresh token rows [B*Q, D], each head's
    product written straight into its columns."""
    b, h, q_len = a.shape[:3]
    ctx = np.empty((b * q_len, h * v.shape[-1]), a.dtype)
    np.matmul(a, v, out=_split_heads(ctx, b, h))
    return ctx


def _context_weight_grad(a, v, dout, out) -> None:
    """``wo``'s weight gradient, from the context rebuilt by the forward's
    own products (``_context``), which no cache keeps."""
    _weight_grad(_context(a, v), dout, out)


def _attn_fwd(xq, xkv, params, prefix, cfg, add, kv=None, out=None, q=None, k=None, v=None, a=None):
    """xq [B*Q, D], xkv [B*K, D]: token rows of B sequences.
    add: the one additive term of the scaled logits, broadcasting to [B, H, Q, K]:
    the key mask (0 or NEG_INF), plus the rel-bias in self-attention.
    kv: decoding's key/value cache by prefix, where self-attention (xkv is xq)
    appends its new rows and cross-attention projects xkv on its first call.
    The output [B*Q, D] and the projections q, k, v ([B*Q|K, D] token rows)
    and the probabilities a [B, H, Q, K] are written into the arrays given,
    or fresh ones. The cache is ``(q, k, v, a)``, led by xkv unless xkv is
    xq: the backward rebuilds the norm output xq and the context."""
    h = cfg.n_heads
    b = add.shape[0]  # the key mask is per sequence, so add has the batch axis
    q = _split_heads(np.matmul(xq, params[prefix + ".wq"], out=q), b, h)
    cached = None if kv is None else kv.get(prefix)
    if cached is not None and xkv is not xq:
        k, v = cached
    else:
        k = _split_heads(np.matmul(xkv, params[prefix + ".wk"], out=k), b, h)
        v = _split_heads(np.matmul(xkv, params[prefix + ".wv"], out=v), b, h)
        if cached is not None:
            k = np.concatenate((cached[0], k), axis=2)
            v = np.concatenate((cached[1], v), axis=2)
        if kv is not None:
            kv[prefix] = (k, v)
    a = np.matmul(q, k.transpose(0, 1, 3, 2), out=a)
    a *= 1.0 / math.sqrt(cfg.d_head)
    a += add
    _softmax_in_place(a)
    cache = (q, k, v, a) if xkv is xq else (xkv, q, k, v, a)
    return np.matmul(_context(a, v), params[prefix + ".wo"], out=out), cache


def _attn_bwd(dout, params, prefix, cfg, c_norm, cache, grads, jobs):
    """Returns (dxq, dxkv, dscores); bias gradients are the caller's job.
    The calls handed over rebuild the context and the norm output that the
    projections read (``c_norm`` is the sublayer norm's cache)."""
    *kv_in, q, k, v, a = cache  # kv_in: cross-attention's encoder output
    xkv = kv_in[0] if kv_in else None  # None: the norm output, as for the queries
    b, h = q.shape[0], cfg.n_heads
    scale = 1.0 / math.sqrt(cfg.d_head)
    jobs.submit(_context_weight_grad, a, v, dout, grads[prefix + ".wo"])
    dctx = _split_heads(dout @ params[prefix + ".wo"].T, b, h)
    # each head's product goes straight into its columns of the token rows
    kv_rows = (k.shape[0] * k.shape[2], dout.shape[1])  # [B*K, D]
    dv_flat = np.empty(kv_rows, dout.dtype)
    np.matmul(a.transpose(0, 1, 3, 2), dctx, out=_split_heads(dv_flat, b, h))
    ds = dctx @ v.transpose(0, 1, 3, 2)  # da, turned into ds in place
    ds -= np.sum(ds * a, axis=-1, keepdims=True)  # the largest temporary: made before dq and dk exist
    ds *= a  # a * (da - sum(da * a))
    dq_flat, dk_flat = np.empty_like(dout), np.empty(kv_rows, dout.dtype)
    np.matmul(ds, k, out=_split_heads(dq_flat, b, h))
    dq_flat *= scale
    np.matmul(ds.transpose(0, 1, 3, 2), q, out=_split_heads(dk_flat, b, h))
    dk_flat *= scale
    jobs.submit(_op_weight_grads, c_norm, params[prefix + ".norm"], (
        (None, dq_flat, grads[prefix + ".wq"]), (xkv, dk_flat, grads[prefix + ".wk"]),
        (xkv, dv_flat, grads[prefix + ".wv"])))
    dxq = dq_flat @ params[prefix + ".wq"].T
    dxkv = dk_flat @ params[prefix + ".wk"].T
    dxkv += dv_flat @ params[prefix + ".wv"].T
    return dxq, dxkv, ds


def _scatter_add_rows(out: np.ndarray, rows: np.ndarray, values: np.ndarray) -> None:
    """``np.add.at(out, rows, values)`` for a C-contiguous [R, C] ``out``:
    adds each row of ``values`` into its row of ``out``, in order. It runs as
    the 1-D scatter over flat element indices, which adds the same terms to
    each element in the same order and runs several times faster."""
    c = out.shape[1]
    np.add.at(out.reshape(-1), (rows[:, None] * c + np.arange(c)).ravel(), values.ravel())


def _accumulate_bias_grad(grads, name, bucket, dscores):
    h = dscores.shape[1]
    ds = dscores.sum(axis=0).transpose(1, 2, 0).reshape(-1, h)  # [(Q*K), H]
    _scatter_add_rows(grads[name], bucket.ravel(), ds)


def _ff_fwd(x, params, prefix, out=None, h=None):
    """The feed-forward over token rows x and its cache ``(h,)``: h [N, F]
    is ``relu(x @ w1)``, applied in place on the product, the one activation
    of width F a step keeps. ``h > 0`` selects exactly the entries that the
    product's ``> 0`` does, NaN and -0.0 included, so the backward masks with
    it. x, the norm's output, is rebuilt by the backward."""
    h = np.matmul(x, params[prefix + ".w1"], out=h)
    np.maximum(h, 0.0, out=h)
    return np.matmul(h, params[prefix + ".w2"], out=out), (h,)


def _ff_bwd(dy, params, prefix, c_norm, cache, grads, jobs):
    (h,) = cache
    jobs.submit(_weight_grad, h, dy, grads[prefix + ".w2"])
    dh = dy @ params[prefix + ".w2"].T  # masked in place
    dh *= h > 0
    jobs.submit(_op_weight_grads, c_norm, params[prefix + ".norm"], ((None, dh, grads[prefix + ".w1"]),))
    return dh @ params[prefix + ".w1"].T


# ---------------------------------------------------------------------------
# encoder / decoder stacks
# ---------------------------------------------------------------------------


def _sublayer_fwd(x, params, cfg, prefix, kind, add, enc_out, kv=None, y=None, r=None, op_outs=()):
    """Residual sublayer ``prefix`` over token rows x: the norm, the op, the
    add to the residual stream. Returns the new stream, the norm's cache and
    the op's cache. They are written into the arrays given (the stream's y,
    the norm's r, and the op's in ``_attn_fwd``'s or ``_ff_fwd``'s order),
    else into fresh ones. The norm's output n, the op's input, is a fresh
    array no cache keeps."""
    n, c_norm = _rms_norm_fwd(x, params[prefix + ".norm"], r)
    if kind == "ff":
        y, c = _ff_fwd(n, params, prefix, y, *op_outs)
    else:
        y, c = _attn_fwd(n, n if kind == "self" else enc_out, params, prefix, cfg, add, kv, y, *op_outs)
    y += x  # the residual add, in place: y + x has the bits of x + y
    return y, c_norm, c


def _sublayer_halves(x, b, params, cfg, prefix, kind, add, enc_out, jobs):
    """``_sublayer_fwd`` over the token rows x [N, D] of b sequences, as
    ``jobs.halves`` of them, each writing its rows of full-size arrays: the
    new stream, the norm's cache and the op's cache over all rows. Every op
    is local to its sequence, so each row gets the calls of one pass."""
    dt, (rows, d) = x.dtype, x.shape
    xkv = x if kind != "cross" else enc_out
    seq, kv_seq = rows // b, len(xkv) // b  # token rows and key rows per sequence
    y, r = np.empty_like(x), np.empty((rows, 1), dt)
    # the op's arrays, each with its rows per sequence
    if kind == "ff":  # h
        op = [(np.empty((rows, cfg.d_ff), dt), seq)]
    else:  # q, k, v, a
        a = np.empty((b, cfg.n_heads, seq, add.shape[-1]), dt)
        op = [(np.empty_like(x), seq), (np.empty_like(xkv), kv_seq), (np.empty_like(xkv), kv_seq), (a, 1)]

    def run(lo, hi):
        tok = slice(lo * seq, hi * seq)
        _sublayer_fwd(x[tok], params, cfg, prefix, kind, None if kind == "ff" else add[lo:hi],
                      enc_out[lo * kv_seq : hi * kv_seq] if kind == "cross" else None, None,
                      y[tok], r[tok], tuple(t[lo * per : hi * per] for t, per in op))

    jobs.halves(b, run)
    op = [t for t, _ in op]
    if kind != "ff":  # q, k, v split into heads, as _attn_fwd caches them
        op[:3] = (_split_heads(t, b, cfg.n_heads) for t in op[:3])
    return y, (x, r), (enc_out, *op) if kind == "cross" else tuple(op)


def _stack_fwd(params, cfg, stack, ids, self_add, bucket, enc_out=None, cross_mask=None, kv=None, jobs=SERIAL):
    """Embedding lookup, every residual sublayer of ``stack`` in order (each
    adds its output to the residual stream), then the stack's final norm.
    ``ids`` is [B, L]; the stream and the output are its B*L token rows [N, D].
    ``self_add`` is self-attention's key mask plus rel-bias, added as one term.
    With a threaded ``jobs`` (see ``_split_batch``) each sublayer runs as
    ``jobs.halves`` of the B sequences."""
    b = len(ids)
    ids = np.ravel(ids)
    x = params["embedding"].take(ids, axis=0).astype(cfg.np_dtype, copy=False)  # take: a fresh array
    sublayers = []
    for prefix, kind in _sublayers(cfg, stack):
        add = self_add if kind == "self" else cross_mask
        # the one branch on the thread count: on one thread _sublayer_fwd's
        # fresh arrays cost less than _sublayer_halves' full-size ones (a
        # d=64 encode of 40 tokens took 443-468 us against 512-523 us)
        if jobs.threaded:
            x, c_norm, c = _sublayer_halves(x, b, params, cfg, prefix, kind, add, enc_out, jobs)
        else:
            x, c_norm, c = _sublayer_fwd(x, params, cfg, prefix, kind, add, enc_out, kv)
        sublayers.append((prefix, kind, c_norm, c))
    out, c_final = _rms_norm_fwd(x, params[stack + ".norm"])
    cache = {"stack": stack, "ids": ids, "sublayers": sublayers, "final": c_final, "bucket": bucket}
    return out, cache


def _stack_bwd(dout, params, cfg, cache, grads, jobs):
    """Backward of ``_stack_fwd``: the final norm, the sublayers in reverse,
    then the embedding scatter. Returns the gradient flowing into the encoder
    output (None for a stack without cross-attention). Each sublayer's cache
    is popped from ``cache`` as its backward runs, so its arrays are freed
    once the calls handed to ``jobs`` that read them have run, and a step
    holds the caches of the sublayers still to go, not all of them."""
    stack = cache["stack"]
    dx = _rms_norm_bwd(dout, params[stack + ".norm"], cache.pop("final"), grads[stack + ".norm"])
    d_enc_out = None
    sublayers = cache["sublayers"]
    while sublayers:
        prefix, kind, c_norm, c = sublayers.pop()
        if kind == "ff":
            dn = _ff_bwd(dx, params, prefix, c_norm, c, grads, jobs)
        elif kind == "cross":
            dn, dxkv, _ = _attn_bwd(dx, params, prefix, cfg, c_norm, c, grads, jobs)
            d_enc_out = dxkv if d_enc_out is None else d_enc_out + dxkv
        else:
            dn, dxkv, ds = _attn_bwd(dx, params, prefix, cfg, c_norm, c, grads, jobs)
            _accumulate_bias_grad(grads, stack + ".rel_bias", cache["bucket"], ds)
            dn += dxkv
        # a new array: the worker may still be reading dx
        dx = dx + _rms_norm_bwd(dn, params[prefix + ".norm"], c_norm, grads[prefix + ".norm"])
    emb = grads["embedding"]
    jobs.submit(_scatter_add_rows, emb, cache["ids"], dx.astype(emb.dtype, copy=False))
    return d_enc_out


def _encode(params, cfg, encoder_ids, encoder_valid, jobs=SERIAL):
    """Output [B*S, D], cache and the [B, 1, 1, S] key mask cross-attention reuses."""
    s = encoder_ids.shape[1]
    key_mask = np.where(encoder_valid[:, None, None, :], 0.0, NEG_INF).astype(cfg.np_dtype)
    bias, bucket = _bias_matrix(params["enc.rel_bias"], cfg, 0, s, bidirectional=True)
    return (*_stack_fwd(params, cfg, "enc", encoder_ids, key_mask + bias, bucket, jobs=jobs), key_mask)


def _decode(params, cfg, decoder_ids, enc_out, key_mask, dec_valid, jobs=SERIAL):
    """Logits [B, T, V], a view of the output layer's [B*T, V] product."""
    dt = cfg.np_dtype
    b, t = decoder_ids.shape
    pad_mask = np.where(dec_valid[:, None, None, :], 0.0, NEG_INF).astype(dt)
    bias, bucket = _bias_matrix(params["dec.rel_bias"], cfg, 0, t, bidirectional=False)
    h, cache = _stack_fwd(params, cfg, "dec", decoder_ids, pad_mask + bias, bucket, enc_out, key_mask, jobs=jobs)
    cache["h"] = h
    emb = params["embedding"]
    w, logits = emb.T.astype(dt, copy=False), np.empty((b * t, len(emb)), dt)

    def run(lo, hi):
        np.matmul(h[lo * t : hi * t], w, out=logits[lo * t : hi * t])

    jobs.halves(b, run)
    return logits.reshape(b, t, -1), cache


def _decode_bwd(dlogits, params, cache, grads, jobs):
    """Output-layer backward: writes the embedding's gradient and returns the
    gradient flowing into the decoder stack's output, as token rows."""
    dlogits = dlogits.reshape(-1, dlogits.shape[-1])
    jobs.submit(_weight_grad, dlogits, cache.pop("h"), grads["embedding"])
    return dlogits @ params["embedding"].astype(dlogits.dtype, copy=False)


def _check_ids(cfg: ModelConfig, name: str, ids: np.ndarray) -> None:
    """Every model input is a non-empty 2-D array of in-range ids no longer
    than ``max_seq_len``. An encoder input, which ``forward`` and
    ``greedy_decode`` both check here, also needs a non-pad id in every row:
    a row of pads leaves its queries no key to attend to."""
    if ids.ndim != 2:
        raise ConfigError(f"{name} ids must be 2-D")
    if ids.size == 0:
        raise ConfigError(f"{name} ids are empty")
    if ids.shape[1] > cfg.max_seq_len:
        raise ConfigError(f"{name} length {ids.shape[1]} exceeds max_seq_len {cfg.max_seq_len}")
    if ids.min() < 0 or ids.max() >= cfg.vocab_size:
        raise ConfigError(f"{name} ids out of range for vocab_size {cfg.vocab_size}")
    if name == "encoder":
        all_pad = np.flatnonzero((ids == PAD_ID).all(axis=1))
        if all_pad.size:
            raise ConfigError(f"encoder row {all_pad[0]} holds only pad ids")


def _check_batch(cfg: ModelConfig, batch: Batch) -> None:
    for name, ids in (("encoder", batch.encoder_ids), ("target", batch.target_ids)):
        _check_ids(cfg, name, ids)
    if batch.encoder_ids.shape[0] != batch.target_ids.shape[0]:
        raise ConfigError("encoder and target batch sizes differ")


def _dec_key_valid(batch: Batch) -> np.ndarray:
    lengths = batch.loss_mask.sum(axis=1)  # real target length per row
    t = batch.target_ids.shape[1]
    return np.arange(t)[None, :] < lengths[:, None]


def _smallest_matrix(cfg: ModelConfig) -> int:
    """Elements of the model's smallest weight matrix, the size ``forward``,
    ``loss_and_grads`` and ``init_params`` ask ``worker.joined`` about."""
    return cfg.d_model * min(cfg.d_model, cfg.d_ff, cfg.vocab_size)


def _split_batch(jobs, batch: Batch):
    """``jobs`` if the forward and the cross-entropy run as ``jobs.halves`` of
    the batch's sequences: each half has ``MIN_HALF_ROWS`` token rows; else
    ``SERIAL``."""
    b, s = batch.encoder_ids.shape
    return jobs if b // 2 * min(s, batch.target_ids.shape[1]) >= MIN_HALF_ROWS else SERIAL


def forward(params: dict[str, np.ndarray], cfg: ModelConfig, batch: Batch) -> np.ndarray:
    """Teacher-forcing forward pass; returns logits [B, T, vocab_size]."""
    with joined(_smallest_matrix(cfg)) as jobs:
        logits, _ = _forward_with_cache(params, cfg, batch, jobs)
    return logits


def _forward_with_cache(params, cfg, batch, jobs=SERIAL):
    _check_batch(cfg, batch)
    jobs = _split_batch(jobs, batch)
    enc_out, enc_cache, key_mask = _encode(params, cfg, batch.encoder_ids, batch.encoder_valid, jobs)
    logits, dec_cache = _decode(params, cfg, batch.decoder_ids, enc_out, key_mask, _dec_key_valid(batch), jobs)
    # NaN or an infinity shows in the max or the min, with no [B, T, V] mask made
    if not (np.isfinite(logits.max()) and np.isfinite(logits.min())):
        name = _first_non_finite(params, [(enc_cache, enc_out), (dec_cache, dec_cache["h"])])
        raise ModelError(f"numeric overflow: non-finite logits; first non-finite tensor: {name}")
    return logits, (enc_cache, dec_cache)


# names of the tensors each sublayer kind keeps in its forward cache
_CACHE_NAMES = {
    "ff": ("h1",),  # h1: the ReLU output
    "self": ("q", "k", "v", "probs"),
    "cross": ("kv_in", "q", "k", "v", "probs"),
}


def _named_tensors(params, cache, out):
    """(name, tensor) of each tensor of a stack's forward pass, in run order,
    ``out`` its output: the norm output "<prefix>.in" and the context
    "<prefix>.ctx", which no cache keeps, rebuilt as the backward does."""
    stack = cache["stack"]
    residual = f"{stack}.embedding lookup"
    for prefix, kind, c_norm, c in cache["sublayers"]:
        yield residual, c_norm[0]
        yield f"{prefix}.in", _norm_out(c_norm, params[prefix + ".norm"])
        yield from zip((f"{prefix}.{n}" for n in _CACHE_NAMES[kind]), c)
        if kind != "ff":
            yield f"{prefix}.ctx", _context(c[-1], c[-2])
        residual = f"{prefix} residual output"
    yield residual, cache["final"][0]
    yield f"{stack}.norm output", out


def _first_non_finite(params, stacks) -> str:
    """Name of the first non-finite tensor of a forward pass, in run order;
    ``stacks`` pairs each stack's cache with its output."""
    for cache, out in stacks:
        for name, t in _named_tensors(params, cache, out):
            if not np.all(np.isfinite(t)):
                return name
    return "logits"


def cross_entropy(logits: np.ndarray, target_ids: np.ndarray, loss_mask: np.ndarray, jobs=SERIAL):
    """Mean -log softmax(logits)[target] over unmasked positions.

    Returns (loss, dlogits). The call consumes its logits: dlogits is
    written over them, and is the same array. Raises on an all-masked
    batch. The log-probabilities and ``dlogits`` are made as ``jobs.halves``
    of the sequences, at once with a threaded ``jobs``; the loss is one sum
    over all of them. Each row's sum of ``exp(logits - max)`` is taken
    through a scratch array of at most ``_CE_SCRATCH`` elements, so no
    second [B, T, V] array is needed before dlogits.
    """
    n = int(loss_mask.sum())
    if n == 0:
        raise ModelError("empty loss: no unmasked target positions")
    log_p = np.empty((*target_ids.shape, 1), logits.dtype)
    v = logits.shape[-1]
    block = max(1, _CE_SCRATCH // v)  # rows per scratch block

    def run(lo, hi):
        lg, tid = logits[lo:hi], target_ids[lo:hi, :, None]
        m = lg.max(axis=-1, keepdims=True)
        target = np.take_along_axis(lg, tid, axis=-1)  # before lg is written over
        rows, m_rows = lg.reshape(-1, v), m.reshape(-1, 1)
        sums = np.empty((len(rows), 1), lg.dtype)
        scratch = np.empty((min(block, len(rows)), v), lg.dtype)
        for i in range(0, len(rows), block):
            s = scratch[: len(rows) - i]  # the last block may be short
            np.add.reduce(np.exp(np.subtract(rows[i : i + block], m_rows[i : i + block], out=s), out=s),
                          axis=-1, keepdims=True, out=sums[i : i + block])
        lse = np.log(sums.reshape(m.shape)) + m
        np.subtract(target, lse, out=log_p[lo:hi])
        np.exp(np.subtract(lg, lse, out=lg), out=lg)
        np.put_along_axis(lg, tid, np.take_along_axis(lg, tid, axis=-1) - 1.0, axis=-1)
        lg *= loss_mask[lo:hi, :, None] / n

    jobs.halves(len(logits), run)
    return float(-(log_p[..., 0] * loss_mask).sum() / n), logits


def loss_and_grads(
    params: dict[str, np.ndarray], cfg: ModelConfig, batch: Batch, out: dict[str, np.ndarray] | None = None
):
    """Cross-entropy over non-pad targets plus analytic gradients for every
    parameter tensor: (loss, grads). The gradients are written into the arrays
    of ``out``, shaped like ``params``, which is returned as ``grads``; without
    it, into fresh arrays."""
    grads = {name: np.empty_like(p) for name, p in params.items()} if out is None else out
    with joined(_smallest_matrix(cfg)) as jobs:
        logits, (enc_cache, dec_cache) = _forward_with_cache(params, cfg, batch, jobs)
        # cross-entropy runs in halves where the forward did, and its dlogits
        # overwrite the logits: one [B, T, V] array, not two
        loss, dlogits = cross_entropy(logits, batch.target_ids, batch.loss_mask, _split_batch(jobs, batch))
        del logits
        # the backward pass overwrites each gradient buffer on its first write;
        # only the relative-position biases, shared by every layer of a stack,
        # are scattered into a zeroed buffer
        grads["enc.rel_bias"].fill(0)
        grads["dec.rel_bias"].fill(0)
        dh = _decode_bwd(dlogits, params, dec_cache, grads, jobs)
        del dlogits  # freed once the call handed over that reads them has run
        d_enc_out = _stack_bwd(dh, params, cfg, dec_cache, grads, jobs)
        _stack_bwd(d_enc_out, params, cfg, enc_cache, grads, jobs)
    return loss, grads


# Draft tokens a decoder pass feeds at most. The benchmark's 35 prediction
# inputs decoded 1.4-1.5x faster than with one token per pass at 8, and
# 1.3-1.4x at 4 (one BLAS thread, 2 vCPUs).
MAX_DRAFT = 8


def _draft(ids: list[int], follows: dict, out: list[int], room: int) -> list[int]:
    """Input tokens to check as the next ones of ``out``: the tokens of the
    input ``ids`` that follow the latest occurrence there of ``out``'s last
    two tokens, or failing that of its last one, at most ``room`` and
    ``MAX_DRAFT`` of them. ``follows`` maps each token and each pair of
    adjacent tokens of ``ids`` to the index after its latest occurrence that
    has a token after it."""
    if not out or room <= 0:
        return []
    j = follows.get(tuple(out[-2:])) or follows.get(out[-1])
    return ids[j : j + min(room, MAX_DRAFT)] if j else []


def greedy_decode(
    params: dict[str, np.ndarray],
    cfg: ModelConfig,
    encoder_ids: list[int],
    max_len: int,
) -> list[int]:
    """Argmax decoding (ties break to the lowest id); stops at eos or max_len.

    Returns the generated ids without the start token or the terminating eos.
    ``encoder_ids`` must pass the encoder-input check ``forward`` runs.

    Incremental: the encoder runs once, and each decoder pass runs
    ``_stack_fwd``, the training forward, over the newest token with a
    key/value cache: cross-attention keys and values are projected once, and
    self-attention appends the new rows and scores their queries against the
    cache. The cache grows with the tokens generated, never with ``max_len``.

    Drafts copied from the input: outputs such as tagged NER sentences repeat
    long runs of their input, so after the first token a pass also feeds the
    input tokens that followed the latest occurrence of the last generated
    tokens there (``_draft``), as rows behind the newest token. Each row's
    argmax is greedy decoding's next token at its position if every draft
    token before it was that argmax too: the pass keeps the draft tokens up to
    the first that is not, then the argmax after them, and the cache drops the
    rows of the rest. Every pass, with a draft or without, runs the same
    three steps: its rows' rel-bias from ``_bias_matrix``, with the causal
    mask at each row's later keys as in training; ``_stack_fwd``; and its
    rows' logits as one product with the embedding. numpy runs a one-row
    product as a matrix-vector call, so a pass without a draft has the bits
    of a single-row step; a pass of several rows computes its logits as a
    full decoder pass does, so in float32 its tokens can differ from
    single-row steps only at a near-tie.
    """
    enc = np.asarray([encoder_ids], dtype=np.int64)
    _check_ids(cfg, "encoder", enc)
    enc_out, _, key_mask = _encode(params, cfg, enc, enc != PAD_ID)
    embedding = params["embedding"].astype(cfg.np_dtype, copy=False)
    ids = enc[0].tolist()
    # see _draft: a later occurrence of a token or a pair overwrites an earlier one
    follows = {**dict(zip(ids[:-1], range(1, len(ids)))), **dict(zip(zip(ids, ids[1:-1]), range(2, len(ids))))}
    self_attn = [prefix for prefix, kind in _sublayers(cfg, "dec") if kind == "self"]
    kv: dict = {}
    out: list[int] = []
    token = PAD_ID
    while len(out) < max_len:
        t = len(out)  # the newest token's position
        draft = _draft(ids, follows, out, max_len - t - 1)
        bias, _ = _bias_matrix(params["dec.rel_bias"], cfg, t, 1 + len(draft), bidirectional=False)
        final, _ = _stack_fwd(params, cfg, "dec", [[token, *draft]], bias[None], None, enc_out, key_mask, kv)
        picks = np.argmax(final @ embedding.T, axis=1).tolist()
        k = 0  # draft tokens kept
        while k < len(draft) and draft[k] == picks[k]:
            k += 1
        for token in picks[: k + 1]:
            if token == EOS_ID:
                return out
            out.append(token)
        if k < len(draft):  # drop the rejected rows from each self-attention cache
            for prefix in self_attn:
                kv[prefix] = tuple(x[:, :, : t + k + 1] for x in kv[prefix])
    return out
