"""Training loops: self-supervised pretraining and (multi-task) fine-tuning.

Both loops share the same skeleton: sample a source by weight, assemble a
teacher-forcing batch, take one Adam step, log "step=<n> task=<name>
loss=<float>". Everything random flows through one SplitMix64 stream seeded
from TrainConfig, so a run is bit-reproducible and a checkpoint (params +
optimizer moments + rng state + step) resumes exactly where it left off.
"""

from __future__ import annotations

import json
import logging
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .checkpoint import AdamState, load_checkpoint, load_optimizer, load_rng_state, save_checkpoint
from .corruption import SpanCorruptionConfig, corrupt
from .errors import ConfigError, DataFormatError
from .model import ModelConfig, greedy_decode, loss_and_grads, make_batch
from .rng import SplitMix64
from .vocab import EOS_ID, Vocabulary

log = logging.getLogger("t2tbio.trainer")

MIN_WINDOW = 16  # remainder windows shorter than this are dropped


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
        if self.learning_rate < 0:
            raise ConfigError("learning_rate must be non-negative")
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
    task_name: str
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


def optimizer_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: AdamState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> tuple[dict[str, np.ndarray], AdamState]:
    """One Adam update with bias-corrected moments; params updated in place.

    The work goes through one scratch buffer per tensor, in the same order of
    float operations as ``p -= (lr / bc1) * m / (sqrt(v / bc2) + eps)`` with
    freshly allocated temporaries, so the result is bit-equal to that form."""
    state.step += 1
    t = state.step
    bc1 = 1.0 - beta1**t
    bc2 = 1.0 - beta2**t
    for name, g in grads.items():
        if name not in state.m:
            state.m[name] = np.zeros_like(params[name])
            state.v[name] = np.zeros_like(params[name])
        m = state.m[name]
        v = state.v[name]
        buf = np.multiply(g, 1.0 - beta1)
        m *= beta1
        m += buf
        np.multiply(g, g, out=buf)
        buf *= 1.0 - beta2
        v *= beta2
        v += buf
        np.divide(v, bc2, out=buf)
        np.sqrt(buf, out=buf)
        buf += eps
        np.divide(np.multiply(m, lr / bc1), buf, out=buf)
        params[name] -= buf
    return params, state


# ---------------------------------------------------------------------------
# data assembly
# ---------------------------------------------------------------------------


def _read_lines(path: str) -> list[str]:
    try:
        with open(path, "rb") as f:
            raw = f.read()
        text = raw.decode("utf-8")
    except OSError as e:
        raise ConfigError(f"unreadable corpus {path}: {e}") from e
    except UnicodeDecodeError as e:
        raise DataFormatError(f"not valid UTF-8: {e}", path=path) from e
    return [line for line in text.splitlines() if line.strip()]


def load_corpus_windows(
    corpora: list[CorpusEntry], v: Vocabulary, input_len: int, min_window: int = MIN_WINDOW
) -> list[list[list[int]]]:
    """Tokenize each corpus into contiguous non-overlapping windows.

    Each line is a document; full windows of ``input_len`` tokens are kept and
    the remainder is kept only when it reaches ``min_window`` tokens.
    """
    all_windows: list[list[list[int]]] = []
    for entry in corpora:
        windows: list[list[int]] = []
        for line in _read_lines(entry.path):
            ids = v.encode(line)
            for start in range(0, len(ids), input_len):
                chunk = ids[start : start + input_len]
                if len(chunk) == input_len or len(chunk) >= min_window:
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
    from .data_io import read_task_examples  # local import: data_io imports our configs

    examples = read_task_examples(entry.path)
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


def _resume_state(resume_dir, model_cfg: ModelConfig):
    params, cfg, manifest = load_checkpoint(resume_dir)
    if cfg != model_cfg:
        raise ConfigError("resume checkpoint was written with a different model config")
    opt = load_optimizer(resume_dir, manifest) or AdamState()
    rng_state = load_rng_state(resume_dir)
    step = int(manifest.get("step", 0))
    return params, opt, rng_state, step


def _maybe_checkpoint(out_dir, tag, params, model_cfg, opt, rng, step):
    if out_dir is None:
        return
    save_checkpoint(
        os.path.join(out_dir, tag),
        params,
        model_cfg,
        opt_state=opt,
        rng_state=rng.getstate(),
        step=step,
    )


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
    """Span-infilling pretraining over a weighted corpus mixture."""
    if not corpus_mix:
        raise ConfigError("corpus mixture must contain at least one corpus")
    for entry in corpus_mix:
        if not (entry.weight >= 0 and math.isfinite(entry.weight)):
            raise ConfigError(f"corpus weight for {entry.path} must be finite and non-negative")
    if train_cfg.input_len + 1 > model_cfg.max_seq_len:
        raise ConfigError("input_len + 1 exceeds the model's max_seq_len")
    worst_target = 2 * int(train_cfg.input_len * corruption_cfg.corruption_rate + 0.5) + 2
    if worst_target > model_cfg.max_seq_len:
        raise ConfigError("corruption_rate could produce targets beyond max_seq_len")

    windows = load_corpus_windows(corpus_mix, v, train_cfg.input_len)
    names = [os.path.splitext(os.path.basename(e.path))[0] for e in corpus_mix]
    weights = [e.weight for e in corpus_mix]

    rng = SplitMix64(train_cfg.seed)
    opt = AdamState()
    start_step = 0
    if resume is not None:
        params, opt, rng_state, start_step = _resume_state(resume, model_cfg)
        if rng_state is not None:
            rng.setstate(rng_state)
    if params is None:
        raise ConfigError("params are required unless resuming from a checkpoint")

    result = TrainResult(params=params, sample_counts={n: 0 for n in names})
    for step in range(start_step, train_cfg.num_steps):
        ci = weighted_index(rng, weights)
        pairs = []
        for _ in range(train_cfg.batch_size):
            pool = windows[ci]
            tokens = pool[rng.next_below(len(pool))]
            ex = corrupt(tokens, replace(corruption_cfg, seed=rng.next_u64()), v)
            pairs.append((list(ex.input_ids), list(ex.target_ids)))
        batch = make_batch(pairs, ensure_eos=True)
        loss, grads = loss_and_grads(params, model_cfg, batch)
        optimizer_step(params, grads, opt, train_cfg.learning_rate)
        result.losses.append(loss)
        result.sample_counts[names[ci]] += 1
        log.info("step=%d task=%s loss=%.6f", step, names[ci], loss)
        if train_cfg.checkpoint_every and (step + 1) % train_cfg.checkpoint_every == 0:
            _maybe_checkpoint(out_dir, f"step_{step + 1:06d}", params, model_cfg, opt, rng, step + 1)
    result.final_step = train_cfg.num_steps
    _maybe_checkpoint(out_dir, "final", params, model_cfg, opt, rng, train_cfg.num_steps)
    if out_dir is not None:
        with open(os.path.join(out_dir, "loss_curve.json"), "w", encoding="utf-8") as f:
            json.dump({"losses": result.losses}, f, sort_keys=True)
            f.write("\n")
    return result


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

    datasets: list[list[tuple[list[int], list[int]]]] = []
    result = TrainResult(params=params if params is not None else {})
    for entry in mixture:
        pairs, truncated, dropped = load_task_pairs(entry, v, train_cfg.input_len, train_cfg.target_len)
        datasets.append(pairs)
        result.truncated[entry.task_name] = truncated
        result.dropped[entry.task_name] = dropped
        result.sample_counts[entry.task_name] = 0
        result.loss_curves[entry.task_name] = []

    rng = SplitMix64(train_cfg.seed)
    opt = AdamState()
    start_step = 0
    if resume is not None:
        params, opt, rng_state, start_step = _resume_state(resume, model_cfg)
        result.params = params
        if rng_state is not None:
            rng.setstate(rng_state)
    if params is None:
        raise ConfigError("params are required unless resuming from a checkpoint")
    result.params = params

    weights = [e.weight for e in mixture]
    for step in range(start_step, train_cfg.num_steps):
        ti = weighted_index(rng, weights)
        pool = datasets[ti]
        pairs = [pool[rng.next_below(len(pool))] for _ in range(train_cfg.batch_size)]
        batch = make_batch(pairs, ensure_eos=False)
        loss, grads = loss_and_grads(params, model_cfg, batch)
        optimizer_step(params, grads, opt, train_cfg.learning_rate)
        name = mixture[ti].task_name
        result.losses.append(loss)
        result.loss_curves[name].append((step, loss))
        result.sample_counts[name] += 1
        log.info("step=%d task=%s loss=%.6f", step, name, loss)
        if train_cfg.checkpoint_every and (step + 1) % train_cfg.checkpoint_every == 0:
            _maybe_checkpoint(out_dir, f"step_{step + 1:06d}", params, model_cfg, opt, rng, step + 1)
    result.final_step = train_cfg.num_steps
    _maybe_checkpoint(out_dir, "final", params, model_cfg, opt, rng, train_cfg.num_steps)
    if out_dir is not None:
        curves = {k: [[s, l] for s, l in v_] for k, v_ in result.loss_curves.items()}
        with open(os.path.join(out_dir, "loss_curve.json"), "w", encoding="utf-8") as f:
            json.dump({"curves": curves}, f, sort_keys=True)
            f.write("\n")
    return result


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
