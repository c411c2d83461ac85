"""Training: self-supervised pretraining and (multi-task) fine-tuning.

``pretrain`` and ``finetune`` differ only in their sources. Each validates its
mixture, loads its corpus windows or task pairs, and hands one step loop a
per-source ``draw(rng, i)`` that returns a batch of (input ids, target ids)
pairs. The loop samples a source by weight, assembles a teacher-forcing batch,
takes one Adam step and logs "step=<n> task=<name> loss=<float>". Everything
random flows through one SplitMix64 stream seeded from TrainConfig, so a run is
bit-reproducible and a checkpoint (params + Adam state + rng state + step)
resumes exactly where it left off. Every checkpoint holds all four parts, and
resuming from one that lacks a part raises ``CheckpointError`` naming it.

With an ``out_dir``, a run writes ``step_<n>/`` every ``checkpoint_every``
steps, ``final/``, and ``loss_curve.json``:
``{"curves": {source: [[step, loss], ...]}, "losses": [loss, ...]}``, where
``losses`` holds every step this call ran, in order. Corpora and task files
are read, and ``loss_curve.json`` written, through ``data_io``.
"""

from __future__ import annotations

import logging
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from . import data_io
from .checkpoint import AdamState, load_checkpoint, load_optimizer, load_rng_state, save_checkpoint
from .corruption import SpanCorruptionConfig, corrupt
from .errors import ConfigError, ModelError
from .model import ModelConfig, loss_and_grads, make_batch
from .rng import SplitMix64
from .vocab import EOS_ID, Vocabulary

log = logging.getLogger("t2tbio.trainer")

MIN_WINDOW = 16  # remainder windows shorter than this are dropped
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


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
    path: str
    weight: float = 1.0


@dataclass(frozen=True)
class MixtureEntry:
    task_name: str = field(metadata={"key": "task"})  # its key in a run config
    path: str
    weight: float = 1.0


def validate_mixture(entries: list[MixtureEntry]) -> None:
    if not entries:
        raise ConfigError("mixture must contain at least one task")
    names = [e.task_name for e in entries]
    if len(set(names)) != len(names):
        raise ConfigError("mixture task names must be unique")
    for e in entries:
        if not (e.weight > 0 and math.isfinite(e.weight)):
            raise ConfigError(f"weight for task {e.task_name!r} must be positive and finite")


def weighted_index(rng: SplitMix64, weights: list[float]) -> int:
    total = sum(weights)
    if total <= 0:
        raise ConfigError("weights must sum to a positive value")
    r = rng.next_float() * total
    acc = 0.0
    for i, w in enumerate(weights):
        acc += w
        if r < acc:
            return i
    return len(weights) - 1


def optimizer_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray], state: AdamState, lr: float) -> None:
    """One Adam update with bias-corrected moments; ``params`` and ``state``
    are updated in place.

    The work goes through one scratch buffer per tensor, in the same order of
    float operations as ``p -= (lr / bc1) * m / (sqrt(v / bc2) + ADAM_EPS)`` with
    freshly allocated temporaries, so the result is bit-equal to that form."""
    state.step += 1
    t = state.step
    bc1 = 1.0 - ADAM_BETA1**t
    bc2 = 1.0 - ADAM_BETA2**t
    for name, g in grads.items():
        if name not in state.m:
            state.m[name] = np.zeros_like(params[name])
            state.v[name] = np.zeros_like(params[name])
        m = state.m[name]
        v = state.v[name]
        buf = np.multiply(g, 1.0 - ADAM_BETA1)
        m *= ADAM_BETA1
        m += buf
        np.multiply(g, g, out=buf)
        buf *= 1.0 - ADAM_BETA2
        v *= ADAM_BETA2
        v += buf
        np.divide(v, bc2, out=buf)
        np.sqrt(buf, out=buf)
        buf += ADAM_EPS
        np.divide(np.multiply(m, lr / bc1), buf, out=buf)
        params[name] -= buf


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
        for line in filter(str.strip, data_io.read_text(entry.path).splitlines()):  # skip blank lines
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
    sample_counts: dict[str, int] = field(default_factory=dict)
    dropped: dict[str, int] = field(default_factory=dict)
    truncated: dict[str, int] = field(default_factory=dict)
    final_step: int = 0


def _train(
    params: dict[str, np.ndarray] | None,
    model_cfg: ModelConfig,
    train_cfg: TrainConfig,
    names: list[str],
    weights: list[float],
    draw,
    out_dir: str | None,
    resume: str | None,
) -> TrainResult:
    """The step loop both phases share. Each step picks source ``i`` by weight,
    batches its (input ids, target ids) pairs from ``draw(rng, i)`` as they are
    (each source appends eos itself), and takes one Adam step on them; all
    randomness comes from the one SplitMix64 stream."""
    rng = SplitMix64(train_cfg.seed)
    opt = AdamState()
    start_step = 0
    if resume is not None:
        params, cfg, manifest = load_checkpoint(resume)
        if cfg != model_cfg:
            raise ConfigError("resume checkpoint was written with a different model config")
        opt, start_step = load_optimizer(resume, manifest), manifest["step"]
        rng.setstate(load_rng_state(resume))
        if start_step > train_cfg.num_steps:
            raise ConfigError(
                f"resume checkpoint {resume} is at step {start_step}, past num_steps {train_cfg.num_steps}"
            )
    if params is None:
        raise ConfigError("params are required unless resuming from a checkpoint")

    def save(tag: str, step: int) -> None:
        if out_dir is not None:
            path = os.path.join(out_dir, tag)
            save_checkpoint(path, params, model_cfg, opt_state=opt, rng_state=rng.getstate(), step=step)

    result = TrainResult(
        params=params, loss_curves={n: [] for n in names}, sample_counts={n: 0 for n in names}
    )
    for step in range(start_step, train_cfg.num_steps):
        i = weighted_index(rng, weights)
        batch = make_batch(draw(rng, i), ensure_eos=False)
        try:
            loss, grads = loss_and_grads(params, model_cfg, batch)
        except ModelError as e:
            raise ModelError(f"step {step}: {e}") from e
        optimizer_step(params, grads, opt, train_cfg.learning_rate)
        result.losses.append(loss)
        result.loss_curves[names[i]].append((step, loss))
        result.sample_counts[names[i]] += 1
        log.info("step=%d task=%s loss=%.6f", step, names[i], loss)
        if train_cfg.checkpoint_every and (step + 1) % train_cfg.checkpoint_every == 0:
            save(f"step_{step + 1:06d}", step + 1)
    result.final_step = train_cfg.num_steps
    save("final", train_cfg.num_steps)
    if out_dir is not None:
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
    """Span-infilling pretraining over a weighted corpus mixture; a corpus is
    named by its file name without the extension."""
    if not corpus_mix:
        raise ConfigError("corpus mixture must contain at least one corpus")
    names: list[str] = []
    for entry in corpus_mix:
        if not (entry.weight >= 0 and math.isfinite(entry.weight)):
            raise ConfigError(f"corpus weight for {entry.path} must be finite and non-negative")
        name = os.path.splitext(os.path.basename(entry.path))[0]
        if name in names:
            other = corpus_mix[names.index(name)].path
            raise ConfigError(f"corpora {other} and {entry.path} share the name {name!r}")
        names.append(name)
    if train_cfg.input_len + 1 > model_cfg.max_seq_len:
        raise ConfigError("input_len + 1 exceeds the model's max_seq_len")
    worst_target = 2 * int(train_cfg.input_len * corruption_cfg.corruption_rate + 0.5) + 2
    if worst_target > model_cfg.max_seq_len:
        raise ConfigError("corruption_rate could produce targets beyond max_seq_len")

    windows = load_corpus_windows(corpus_mix, v, train_cfg.input_len)

    def draw(rng: SplitMix64, i: int) -> list[tuple[list[int], list[int]]]:
        pool = windows[i]
        pairs = []
        for _ in range(train_cfg.batch_size):
            tokens = pool[rng.next_below(len(pool))]
            ex = corrupt(tokens, replace(corruption_cfg, seed=rng.next_u64()), v)
            pairs.append(([*ex.input_ids, EOS_ID], list(ex.target_ids)))  # corrupt's target ends in eos
        return pairs

    weights = [e.weight for e in corpus_mix]
    return _train(params, model_cfg, train_cfg, names, weights, draw, out_dir=out_dir, resume=resume)


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
    validate_mixture(mixture)
    if train_cfg.input_len > model_cfg.max_seq_len or train_cfg.target_len > model_cfg.max_seq_len:
        raise ConfigError("length caps exceed the model's max_seq_len")

    datasets = []
    truncated: dict[str, int] = {}
    dropped: dict[str, int] = {}
    for entry in mixture:
        pairs, truncated[entry.task_name], dropped[entry.task_name] = load_task_pairs(
            entry, v, train_cfg.input_len, train_cfg.target_len
        )
        datasets.append(pairs)

    def draw(rng: SplitMix64, i: int) -> list[tuple[list[int], list[int]]]:
        pool = datasets[i]
        return [pool[rng.next_below(len(pool))] for _ in range(train_cfg.batch_size)]

    names = [e.task_name for e in mixture]
    weights = [e.weight for e in mixture]
    result = _train(params, model_cfg, train_cfg, names, weights, draw, out_dir=out_dir, resume=resume)
    result.truncated, result.dropped = truncated, dropped
    return result
