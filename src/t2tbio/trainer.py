"""Training: self-supervised pretraining and (multi-task) fine-tuning.

``pretrain`` and ``finetune`` differ only in their sources. Each hands one
step loop, ``_train``, its entries (a ``CorpusEntry`` or ``MixtureEntry``
each, with a ``name``, ``path`` and ``weight``), one pool per entry (corpus
windows or encoded task pairs) and ``make(rng, item)``, which turns a pool
item into an (input ids, target ids) pair: a corrupted window, or the task
pair as it is. Each entry checks its weight when it is built, and
``_check_sources`` makes the checks the two phases share before any file is
read. Each step the loop samples a source by weight, draws ``batch_size``
items from its pool and makes a pair of each, assembles a teacher-forcing
batch, takes one Adam step and logs "step=<n> task=<name> loss=<float>".
Everything random flows through one SplitMix64 stream seeded from
TrainConfig, so a run is bit-reproducible and a checkpoint resumes exactly
where it left off. A checkpoint is three files: ``weights.bin``, Adam's state
in ``optimizer.bin`` and ``manifest.json``, which holds the step and the rng
state; resuming from one that lacks a part raises ``CheckpointError`` naming
its file.

Memory layout: before the first step ``_train`` lays out Adam's state once
for the run. It checks the parameters against the model config, copies them
into one flat array, an arena, laid out by ``checkpoint.views``, the one
owner of the checkpoint blobs' layout, and rebinds each value of the
caller's ``params`` dict to its view of it; the gradients get an arena of
the same layout, into whose views ``loss_and_grads`` writes. Adam's ``m``
and ``v`` are the two rows of one ``[2, n]`` array, each row of that layout:
zeros, or on resume the array that ``load_optimizer`` read ``optimizer.bin``
into. Resumed weights already are views of the array that ``weights.bin``
was read into. Neither is copied, and every save hands ``save_checkpoint``
the weights' arena and the same moments array, whose bytes it writes as
``weights.bin`` and ``optimizer.bin``. The new arena, the zero moments and
the loaders' buffers all come from ``checkpoint.page_aligned``, so those
writes go to disk with direct I/O, without a copy into the page cache.
Only the loop counts steps. Each step ``optimizer_step`` updates the four
flat arrays slice by slice, and a non-finite update raises ``ModelError``
naming the step and the tensor, found in ``checkpoint.layout``'s weight
entries, before anything is saved. The slices run as two halves, the calling
thread's the larger, and the worker thread of ``worker`` updates the other
half when it meets the size rule in ``worker``'s docstring. The bits are
those of one pass. A learning rate whose first-step scale
``lr / (1 - beta1)`` overflows the model's dtype is a ``ConfigError`` before
the first step. While the steps run, glibc's malloc keeps the memory a step
frees for the next one (see ``_freed_memory_kept``).

With an ``out_dir``, a run writes ``step_<n>/`` every ``checkpoint_every``
steps, ``final/``, and ``loss_curve.json``. Each ``step_<n>/`` is written
by the run's one writer thread ("t2tbio-save"), with the rng state taken
when it is handed over, while the next step draws its batch and runs
``loss_and_grads``, which only reads the weights. The loop waits for the
save before that step's ``optimizer_step``, the first call that writes the
arenas, and before it writes ``final/`` on the calling thread; a step that
raises waits for it too. So a run never returns or raises with a save in
flight, and a save's error (``OSError``, ``CheckpointError``) reaches the
caller as it was raised, at the first of those waits. The loss curve is
``{"curves": {source: [[step, loss], ...]}, "losses": [loss, ...]}``, where
``losses`` holds every step this call ran, in order. Corpora and task files
are read, and ``loss_curve.json`` written, through ``data_io``.
"""

from __future__ import annotations

import ctypes
import functools
import logging
import math
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from . import data_io, worker
from .checkpoint import (
    check_model,
    layout,
    load_checkpoint,
    load_optimizer,
    packed,
    page_aligned,
    save_checkpoint,
    tensor_at,
    views,
)
from .corruption import SpanCorruptionConfig, corrupt, max_spans, max_target_len
from .errors import ConfigError, ModelError
from .model import ModelConfig, loss_and_grads, make_batch, validate_params
from .rng import SplitMix64
from .vocab import EOS_ID, Vocabulary

log = logging.getLogger("t2tbio.trainer")

MIN_WINDOW = 16  # remainder windows shorter than this are dropped
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# Elements per slice of the Adam step: the slices of the four arenas and the
# two scratch buffers stay in cache across its 13 passes. Any size gives the
# same bits; 32768-65536 ran fastest on the medium model.
ADAM_BLOCK = 65536


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.001
    batch_size: int = 8
    num_steps: int = 100
    input_len: int = 64
    target_len: int = 64
    seed: int = 0
    checkpoint_every: int = 0  # 0 disables periodic checkpoints

    def __post_init__(self):
        if not (self.learning_rate >= 0 and math.isfinite(self.learning_rate)):
            raise ConfigError("learning_rate must be finite and non-negative")
        if self.batch_size <= 0 or self.num_steps < 0:
            raise ConfigError("batch_size must be positive and num_steps non-negative")
        if self.input_len <= 0 or self.target_len <= 0:
            raise ConfigError("length caps must be positive")
        if self.checkpoint_every < 0:
            raise ConfigError("checkpoint_every must be non-negative")


@dataclass(frozen=True)
class CorpusEntry:
    """A pretraining corpus, named by its file name without the extension. Its
    weight may be 0, but not every corpus's."""

    path: str
    weight: float = 1.0

    def __post_init__(self):
        if not (self.weight >= 0 and math.isfinite(self.weight)):
            raise ConfigError(f"corpus weight for {self.path} must be finite and non-negative")

    @property
    def name(self) -> str:
        return os.path.splitext(os.path.basename(self.path))[0]


@dataclass(frozen=True)
class MixtureEntry:
    task_name: str = field(metadata={"key": "task"})  # its key in a run config
    path: str
    weight: float = 1.0

    def __post_init__(self):
        if not (self.weight > 0 and math.isfinite(self.weight)):
            raise ConfigError(f"weight for task {self.task_name!r} must be positive and finite")

    @property
    def name(self) -> str:
        return self.task_name


def _check_sources(what: str, entries: list, v: Vocabulary, model_cfg: ModelConfig) -> None:
    """What both phases check before any file is read: the vocabulary is the
    model's size, and ``entries``, the run config's ``what``, are at least
    one, distinctly named, with a positive weight among them."""
    if v.size != model_cfg.vocab_size:
        raise ConfigError(f"model.vocab_size {model_cfg.vocab_size} is not the vocabulary's size {v.size}")
    if not entries:
        raise ConfigError(f"{what} must list at least one source")
    names = [e.name for e in entries]
    for i, name in enumerate(names):
        if name in names[:i]:
            raise ConfigError(f"{what}: {entries[names.index(name)].path} and {entries[i].path} "
                              f"share the name {name!r}")
    if not any(e.weight > 0 for e in entries):
        raise ConfigError(f"{what}: every weight is 0; at least one must be positive")


def weighted_index(rng: SplitMix64, weights: list[float]) -> int:
    """Index ``i`` drawn with probability ``weights[i] / sum(weights)``; at
    least one weight is positive, as ``_check_sources`` makes sure."""
    total = sum(weights)
    r = rng.next_float() * total
    acc = 0.0
    for i, w in enumerate(weights):
        acc += w
        if r < acc:
            return i
    return len(weights) - 1


# glibc malloc's M_TRIM_THRESHOLD and M_MMAP_THRESHOLD parameters, and the
# value both start at (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_GLIBC_DEFAULT_THRESHOLD = 128 << 10


def _glibc():
    """The C library, with ``mallopt`` and ``malloc_trim`` declared, if it is
    glibc; otherwise None."""
    try:
        version = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):  # no confstr, or no such name
        return None
    if not (version or "").startswith("glibc"):
        return None
    libc = ctypes.CDLL(None)
    libc.mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    libc.mallopt.restype = ctypes.c_int
    libc.malloc_trim.argtypes = (ctypes.c_size_t,)
    libc.malloc_trim.restype = ctypes.c_int
    return libc


@contextmanager
def _freed_memory_kept():
    """Keep the memory a training step frees mapped for the next step.

    Each step allocates its activations afresh and frees them at its end. By
    default glibc's malloc gives a large array pages of its own and returns
    the free top of its heap to the system, so every step faults its
    activations in again: 8500 page faults (33 MB) per medium-model step.
    Inside the block, arrays under 32 MB come from the heap and up to 256 MB
    of its free top stays mapped. On exit the trim threshold goes back to
    the value glibc starts with and the free memory is returned; arrays under
    32 MB stay on the heap, as they would once glibc's adaptive threshold had
    risen past the arrays the steps freed. Other C libraries are left
    alone."""
    libc = _glibc()
    if libc is None:
        yield
        return
    libc.mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    libc.mallopt(_M_TRIM_THRESHOLD, 256 << 20)
    try:
        yield
    finally:
        libc.mallopt(_M_TRIM_THRESHOLD, _GLIBC_DEFAULT_THRESHOLD)
        libc.malloc_trim(0)


def arena(tensors: dict[str, np.ndarray]) -> np.ndarray:
    """The flat array whose views the values of ``tensors`` are, laid out by
    ``checkpoint.views``: the layout of the checkpoint blobs.

    That is ``checkpoint.packed``'s array: the one the values already are
    views of, or else a new one that starts on a page boundary, so that
    ``save_checkpoint`` writes it with direct I/O, and that they are copied
    into. In that case the dict's values are rebound to its views."""
    flat = packed(tensors)
    if next(iter(tensors.values())).base is not flat:
        tensors.update(views(flat, {name: t.shape for name, t in tensors.items()}))
    return flat


class NonFiniteUpdate(ModelError):
    """An Adam step that made a weight or second moment non-finite, first at
    flat index ``at`` of the arenas."""

    def __init__(self, at: int):
        super().__init__(f"non-finite Adam update at element {at}")
        self.at = at


def optimizer_step(p: np.ndarray, g: np.ndarray, m: np.ndarray, v: np.ndarray, t: int, lr: float) -> None:
    """Adam's ``t``-th update with bias-corrected moments over the flat arrays
    of the parameters, gradients and moments, which are updated in place.

    The update runs over ``ADAM_BLOCK``-element slices through two scratch
    buffers, in the same order of float operations as
    ``p -= (lr / bc1) * m / (sqrt(v / bc2) + ADAM_EPS)`` with freshly allocated
    temporaries, so the result is bit-equal to that form. The slices run as
    ``halves`` of the ``Jobs`` that ``worker.joined`` yields for the
    worker's share: the calling thread updates the first ceil(n / 2) of the
    n slices and the worker the rest.

    Each updated slice is checked with one dot product of its new ``p`` and
    ``v``: a non-finite value in either makes it non-finite (``v`` is never
    negative, and inf * 0 is nan), and so may an overflow, which an
    elementwise check then tells apart. ``NonFiniteUpdate`` names the first
    non-finite value of the calling thread's half if it has one, else of the
    worker's: the value a serial pass meets first. The dot product is one BLAS
    pass over data in cache; two float64 sums per slice, with their casts,
    made the step 40% slower."""
    step_size, bc2 = lr / (1.0 - ADAM_BETA1**t), 1.0 - ADAM_BETA2**t
    n = -(-p.size // ADAM_BLOCK)  # slices
    with worker.joined(p.size - min(-(-n // 2) * ADAM_BLOCK, p.size)) as jobs:  # the worker's share
        jobs.halves(n, lambda lo, hi: _adam_slices(
            p, g, m, v, lo * ADAM_BLOCK, min(hi * ADAM_BLOCK, p.size), step_size, bc2))


def _adam_slices(p, g, m, v, start, stop, step_size, bc2) -> None:
    """``optimizer_step`` over elements [start, stop). ``start`` is a multiple
    of ``ADAM_BLOCK``, and so is ``stop`` unless it is the arrays' end: each
    block runs whole, so a ``stop`` inside a block would update elements past
    it, up to the block's end."""
    buf = np.empty(min(ADAM_BLOCK, stop - start), p.dtype)
    scaled_m = np.empty_like(buf)
    with np.errstate(over="ignore", invalid="ignore"):  # the check below reports what these warn of
        for i in range(start, stop, ADAM_BLOCK):
            ps, gs, ms, vs = p[i : i + ADAM_BLOCK], g[i : i + ADAM_BLOCK], m[i : i + ADAM_BLOCK], v[i : i + ADAM_BLOCK]
            b, u = buf[: gs.size], scaled_m[: gs.size]
            np.multiply(gs, 1.0 - ADAM_BETA1, out=b)
            ms *= ADAM_BETA1
            ms += b
            np.multiply(gs, gs, out=b)
            b *= 1.0 - ADAM_BETA2
            vs *= ADAM_BETA2
            vs += b
            np.divide(vs, bc2, out=b)
            np.sqrt(b, out=b)
            b += ADAM_EPS
            np.divide(np.multiply(ms, step_size, out=u), b, out=b)
            ps -= b
            if not math.isfinite(np.dot(ps, vs)):
                finite = np.isfinite(ps) & np.isfinite(vs)
                if not finite.all():  # else finite values overflowed the dot product
                    raise NonFiniteUpdate(i + int(finite.argmin()))


# ---------------------------------------------------------------------------
# data assembly
# ---------------------------------------------------------------------------


def load_corpus_windows(corpora: list[CorpusEntry], v: Vocabulary, input_len: int) -> list[list[list[int]]]:
    """Tokenize each corpus into contiguous non-overlapping windows.

    Each line is a document; full windows of ``input_len`` tokens are kept and
    the remainder is kept only when it reaches ``MIN_WINDOW`` tokens.
    """
    all_windows: list[list[list[int]]] = []
    for entry in corpora:
        windows: list[list[int]] = []
        for line in filter(str.strip, data_io.read_lines(entry.path)):  # skip blank lines
            ids = v.encode(line)
            for start in range(0, len(ids), input_len):
                chunk = ids[start : start + input_len]
                if len(chunk) == input_len or len(chunk) >= MIN_WINDOW:
                    windows.append(chunk)
        if not windows:
            raise ConfigError(f"corpus {entry.path} produced no usable windows")
        all_windows.append(windows)
    return all_windows


def load_task_pairs(
    entry: MixtureEntry, v: Vocabulary, input_len: int, target_len: int
) -> tuple[list[tuple[list[int], list[int]]], int, int]:
    """Encode a task dataset to (input ids, target ids) pairs with eos baked in.

    Inputs over the cap are truncated (counted); examples whose target exceeds
    the cap are dropped (counted), never truncated.
    """
    examples = data_io.read_task_examples(entry.path)
    pairs: list[tuple[list[int], list[int]]] = []
    truncated = dropped = 0
    for ex in examples:
        enc = v.encode(ex.input_text) + [EOS_ID]
        if len(enc) > input_len:
            enc = enc[:input_len]
            truncated += 1
        tgt = v.encode(ex.target_text) + [EOS_ID]
        if len(tgt) > target_len:
            dropped += 1
            continue
        pairs.append((enc, tgt))
    if truncated:
        log.warning("task %s: truncated %d over-length inputs", entry.task_name, truncated)
    if dropped:
        log.warning("task %s: dropped %d examples with over-length targets", entry.task_name, dropped)
    if not pairs:
        raise ConfigError(f"task {entry.task_name} has no usable examples after length filtering")
    return pairs, truncated, dropped


# ---------------------------------------------------------------------------
# training loops
# ---------------------------------------------------------------------------


@dataclass
class TrainResult:
    params: dict[str, np.ndarray]
    losses: list[float] = field(default_factory=list)
    loss_curves: dict[str, list[tuple[int, float]]] = field(default_factory=dict)
    dropped: dict[str, int] = field(default_factory=dict)
    truncated: dict[str, int] = field(default_factory=dict)


def _train(
    params: dict[str, np.ndarray] | None,
    model_cfg: ModelConfig,
    train_cfg: TrainConfig,
    sources: list,
    pools: list[list],
    make,
    out_dir: str | None,
    resume: str | None,
) -> TrainResult:
    """The step loop both phases share. Each step picks source ``i`` by weight
    and draws ``batch_size`` items from ``pools[i]``; ``make(rng, item)``
    turns each into an (input ids, target ids) pair, which is batched as it
    is (each phase appends eos itself), and one Adam step is taken on the
    batch. All randomness comes from the one SplitMix64 stream: per step the
    source, then per sample its item and whatever ``make`` draws."""
    lr = train_cfg.learning_rate
    with np.errstate(over="ignore"):  # step 1 scales the update by lr / (1 - beta1), its largest factor
        if np.isinf(model_cfg.np_dtype(lr / (1.0 - ADAM_BETA1))):
            raise ConfigError(f"learning_rate {lr:g} overflows {model_cfg.dtype} in Adam's step size lr / (1 - beta1)")
    rng = SplitMix64(train_cfg.seed)
    moments, start_step = None, 0
    if resume is not None:
        params, cfg, manifest = load_checkpoint(resume)
        check_model(resume, cfg, model_cfg, "resume checkpoint was written with a different model config")
        moments, start_step = load_optimizer(resume, manifest), manifest.step
        rng.setstate(manifest.rng_state)
        if start_step > train_cfg.num_steps:
            raise ConfigError(
                f"resume checkpoint {resume} is at step {start_step}, past num_steps {train_cfg.num_steps}"
            )
    if params is None:
        raise ConfigError("params are required unless resuming from a checkpoint")
    validate_params(params, model_cfg)
    shapes = {name: t.shape for name, t in params.items()}
    p = arena(params)
    g = np.empty_like(p)
    grads = views(g, shapes)
    if moments is None:  # no step has run: the moments start at zero
        moments = np.frombuffer(page_aligned(2 * p.nbytes), p.dtype).reshape(2, -1)
        moments.fill(0)
    m, v = moments

    def save(tag: str, step: int) -> functools.partial:
        """The ``save_checkpoint`` call that writes the state at ``step`` as
        ``tag``, with the rng state of now (a step-0 checkpoint holds no
        moments)."""
        return functools.partial(save_checkpoint, os.path.join(out_dir, tag), params, model_cfg,
                                 moments if step else None, rng.getstate(), step)

    names, weights = [e.name for e in sources], [e.weight for e in sources]
    result = TrainResult(params=params, loss_curves={n: [] for n in names})
    every = train_cfg.checkpoint_every if out_dir is not None else 0  # steps per periodic save, 0 for none
    saving = None  # the writer's future for the periodic save in flight

    def saved() -> None:
        """Wait for the save in flight, if any; its error is raised here."""
        nonlocal saving
        if saving is not None:
            done, saving = saving, None
            done.result()

    with ThreadPoolExecutor(max_workers=1, thread_name_prefix="t2tbio-save") as writer, _freed_memory_kept():
        try:
            for step in range(start_step, train_cfg.num_steps):
                i = weighted_index(rng, weights)
                pool = pools[i]
                batch = make_batch([make(rng, pool[rng.next_below(len(pool))])
                                    for _ in range(train_cfg.batch_size)], ensure_eos=False)
                try:
                    loss, _ = loss_and_grads(params, model_cfg, batch, out=grads)
                    saved()  # the save reads the arenas that the Adam step writes
                    optimizer_step(p, g, m, v, step + 1, lr)
                except NonFiniteUpdate as e:
                    name = tensor_at(layout(model_cfg)[0], e.at * p.itemsize)
                    raise ModelError(f"step {step}: non-finite Adam update in tensor {name}") from e
                except ModelError as e:
                    raise ModelError(f"step {step}: {e}") from e
                result.losses.append(loss)
                result.loss_curves[names[i]].append((step, loss))
                log.info("step=%d task=%s loss=%.6f", step, names[i], loss)
                if every and (step + 1) % every == 0:
                    saving = writer.submit(save(f"step_{step + 1:06d}", step + 1))
        finally:
            saved()
    if out_dir is not None:
        save("final", train_cfg.num_steps)()
        curves = {n: [[s, x] for s, x in curve] for n, curve in result.loss_curves.items()}
        data_io.write_json(os.path.join(out_dir, "loss_curve.json"), {"curves": curves, "losses": result.losses})
    return result


def pretrain(
    model_cfg: ModelConfig,
    params: dict[str, np.ndarray] | None,
    corpus_mix: list[CorpusEntry],
    corruption_cfg: SpanCorruptionConfig,
    train_cfg: TrainConfig,
    v: Vocabulary,
    out_dir: str | None = None,
    resume: str | None = None,
) -> TrainResult:
    """Span-infilling pretraining over a weighted corpus mixture. Before any
    corpus is read, the sources must pass ``_check_sources``, an
    ``input_len`` window must fit ``max_seq_len`` with eos, and so must the
    longest target its corruption rate can make, and the vocabulary needs a
    sentinel for each span such a window can have and the final one."""
    _check_sources("corpora", corpus_mix, v, model_cfg)
    cap = model_cfg.max_seq_len
    if train_cfg.input_len + 1 > cap:  # with eos
        raise ConfigError(f"train.input_len {train_cfg.input_len} + 1 exceeds model.max_seq_len {cap}")
    worst_target = max_target_len(train_cfg.input_len, corruption_cfg)
    if worst_target > cap:
        raise ConfigError(f"corruption.corruption_rate {corruption_cfg.corruption_rate:g} could produce targets "
                          f"of {worst_target} tokens, beyond model.max_seq_len {cap}")
    spans = max_spans(train_cfg.input_len, corruption_cfg)
    if spans + 1 > v.num_sentinels:  # with the final sentinel
        raise ConfigError(f"corruption.corruption_rate {corruption_cfg.corruption_rate:g} could mask {spans} spans "
                          f"of a {train_cfg.input_len}-token window, which with the final sentinel need "
                          f"{spans + 1} sentinels; the vocabulary has {v.num_sentinels}")

    def make(rng: SplitMix64, tokens: list[int]) -> tuple[list[int], list[int]]:
        ex = corrupt(tokens, corruption_cfg, v, rng.next_u64())
        return [*ex.input_ids, EOS_ID], list(ex.target_ids)  # corrupt's target ends in eos

    windows = load_corpus_windows(corpus_mix, v, train_cfg.input_len)
    return _train(params, model_cfg, train_cfg, corpus_mix, windows, make, out_dir=out_dir, resume=resume)


def finetune(
    params: dict[str, np.ndarray] | None,
    mixture: list[MixtureEntry],
    model_cfg: ModelConfig,
    train_cfg: TrainConfig,
    v: Vocabulary,
    out_dir: str | None = None,
    resume: str | None = None,
) -> TrainResult:
    """Supervised fine-tuning over a weighted task mixture (single-task is the
    one-entry case). Task prefixes are already baked into the datasets."""
    _check_sources("mixture", mixture, v, model_cfg)
    for name, cap in (("input_len", train_cfg.input_len), ("target_len", train_cfg.target_len)):
        if cap > model_cfg.max_seq_len:
            raise ConfigError(f"train.{name} {cap} exceeds model.max_seq_len {model_cfg.max_seq_len}")

    datasets = []
    truncated: dict[str, int] = {}
    dropped: dict[str, int] = {}
    for entry in mixture:
        pairs, truncated[entry.task_name], dropped[entry.task_name] = load_task_pairs(
            entry, v, train_cfg.input_len, train_cfg.target_len
        )
        datasets.append(pairs)
    result = _train(params, model_cfg, train_cfg, mixture, datasets, lambda rng, pair: pair,
                    out_dir=out_dir, resume=resume)
    result.truncated, result.dropped = truncated, dropped
    return result
