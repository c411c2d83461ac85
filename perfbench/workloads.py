"""The three workloads: set-up, timed part, output checks and metrics.

Every call into the package goes through the public name its caller looks
up (``vocab.train_vocab``, ``trainer.pretrain``, ``model.greedy_decode``,
``Vocabulary.encode`` ...), so the traced run can wrap exactly those names.
"""

from __future__ import annotations

import hashlib
import logging
import math
import os
import re
import resource
import shutil
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace

import numpy as np

from t2tbio import checkpoint, data_io, metrics, model, task_codec, trainer, vocab
from t2tbio.corruption import SpanCorruptionConfig
from t2tbio.model import ModelConfig
from t2tbio.task_codec import EntitySpan
from t2tbio.trainer import CorpusEntry, MixtureEntry, TrainConfig
from t2tbio.vocab import EOS_ID

from .hostspeed import PIECES, HostSpeed
from .inputs import DOC_TOPICS, RAW_FILES, REL_LABELS, TASKS, InputSizes, write_inputs
from .stats import pct
from .trace import Span, Tracer

# Task-mixture weights. finetune_smoke's steps fall in two clusters: rel, nli
# and qa batches (short targets) take about the same time, doc and ner batches
# (long targets) half as long again. With ner weighted 2 the median step lay
# at the edge of the fast cluster and moved by 13% from seed to seed; three
# quarters of fast steps put it inside that cluster. predict_smoke's set-up
# keeps ner at 2, which its longest targets need to be learnt by heart.
TASK_WEIGHTS = {
    "finetune_smoke": {"ner": 1.0, "rel": 2.0, "nli": 2.0, "doc": 1.0, "qa": 2.0},
    "predict_smoke": {"ner": 2.0, "rel": 1.0, "nli": 1.0, "doc": 1.0, "qa": 1.0},
}
SHORT_DECODE = 8  # generated steps (eos included) at or below this count as short
LONG_DECODE = 24  # ... at or above this count as long
REPLAY_OPS = 2  # untraced training runs repeat this many steps to check determinism
MATCH_BATCHES = 4  # training workloads' exact_match is taken on this many last batches
# best and second-best logits closer than this are a tie that float rounding may break either way
TIE_MARGIN = 1e-3
PROBE_EVERY = 2  # traced runs time a separate forward on every n-th training batch
# The trainers' sampling seed is fixed, so every run draws the same sequence of
# tasks and example indices; --seed changes the data behind them. A seeded task
# sequence would move step-time percentiles between the per-task clusters.
TRAIN_SEED = 0
# host-speed probe pieces each workload's time is scaled by (see hostspeed.py):
# pretrain_medium's steps are a few hundred large array operations, so the
# tiny-call piece is left out; the smoke workloads are made of tiny calls
PROBE_PIECES = {
    "pretrain_medium": ("blas", "memory", "python"),
    "finetune_smoke": PIECES,
    "predict_smoke": PIECES,
}


@dataclass(frozen=True)
class Scale:
    """Sizes of one benchmark scale. ``FULL`` is the benchmark; ``TINY`` only
    exercises the code paths, for the benchmark's own tests."""

    medium_inputs: InputSizes
    medium_vocab: int
    medium_sentinels: int
    medium_model: dict
    medium_batch: int
    medium_input_len: int
    medium_lr: float
    medium_steps_per_s: float  # timed steps per --seconds
    checkpoint_every: int
    medium_setup_reps: int
    finetune_inputs: InputSizes
    predict_inputs: InputSizes  # small enough for the set-up fine-tuning to learn by heart
    smoke_vocab: int
    smoke_sentinels: int
    smoke_model: dict
    smoke_batch: int
    smoke_len: int  # input and target caps
    smoke_lr: float
    finetune_steps_per_s: float
    # fine-tuning steps in predict_smoke's set-up: at smoke_lr, then at a tenth
    # of it, which settles the loss spikes Adam takes near zero loss
    predict_setup_steps: tuple[int, int]
    predictions_per_s: float
    max_decode_len: int
    smoke_setup_reps: int
    predict_setup_reps: int


FULL = Scale(
    medium_inputs=InputSizes(lexicon_words=1600, corpus_lines=400, per_task=0),
    medium_vocab=4096,
    medium_sentinels=100,
    medium_model=dict(d_model=256, n_heads=4, d_ff=1024, n_encoder_layers=2, n_decoder_layers=2,
                      rel_pos_buckets=32, rel_pos_max_distance=128, max_seq_len=128),
    medium_batch=8,
    medium_input_len=64,
    medium_lr=1e-3,
    medium_steps_per_s=3.5,
    checkpoint_every=4,
    medium_setup_reps=1,
    finetune_inputs=InputSizes(lexicon_words=300, corpus_lines=40, per_task=200),
    predict_inputs=InputSizes(lexicon_words=300, corpus_lines=40, per_task=5),
    smoke_vocab=256,
    smoke_sentinels=16,
    smoke_model=dict(d_model=64, n_heads=4, d_ff=128, n_encoder_layers=2, n_decoder_layers=2,
                     rel_pos_buckets=16, rel_pos_max_distance=32, max_seq_len=64),
    smoke_batch=16,
    smoke_len=64,
    smoke_lr=0.003,
    finetune_steps_per_s=14.0,
    predict_setup_steps=(300, 100),
    predictions_per_s=100.0,
    max_decode_len=64,
    smoke_setup_reps=3,
    predict_setup_reps=1,
)

TINY = Scale(
    medium_inputs=InputSizes(lexicon_words=120, corpus_lines=30, per_task=0),
    medium_vocab=300,
    medium_sentinels=20,
    medium_model=dict(d_model=16, n_heads=2, d_ff=32, n_encoder_layers=1, n_decoder_layers=1,
                      rel_pos_buckets=8, rel_pos_max_distance=16, max_seq_len=32),
    medium_batch=2,
    medium_input_len=16,
    medium_lr=3e-3,
    medium_steps_per_s=6.0,
    checkpoint_every=2,
    medium_setup_reps=2,
    finetune_inputs=InputSizes(lexicon_words=60, corpus_lines=6, per_task=12),
    predict_inputs=InputSizes(lexicon_words=60, corpus_lines=6, per_task=3),
    smoke_vocab=120,
    smoke_sentinels=8,
    smoke_model=dict(d_model=16, n_heads=2, d_ff=32, n_encoder_layers=1, n_decoder_layers=1,
                     rel_pos_buckets=8, rel_pos_max_distance=16, max_seq_len=64),
    smoke_batch=4,
    smoke_len=64,
    smoke_lr=0.003,
    finetune_steps_per_s=8.0,
    predict_setup_steps=(4, 2),
    predictions_per_s=12.0,
    max_decode_len=12,
    smoke_setup_reps=2,
    predict_setup_reps=2,
)

SCALES = {"full": FULL, "tiny": TINY}


# ---------------------------------------------------------------------------
# metric definitions
# ---------------------------------------------------------------------------

# name -> (unit, better, definition); the order is the print order.
END_TO_END = {
    "setup_s": ("s", "lower", "median over set-up repeats of everything before the first timed "
                "step or prediction; input generation excluded"),
    "tokens_per_s": ("tokens/s", "higher", "training: non-pad encoder and target tokens per second, "
                     "checkpoint stalls included (train_tokens_per_s); predict_smoke: generated "
                     "tokens, eos included, per second (gen_tokens_per_s)"),
    "op_ms_p50": ("ms", "lower", "median per-step time on training workloads (step_ms_p50), "
                  "per-prediction time on predict_smoke (predict_ms_p50)"),
    "op_ms_p90": ("ms", "lower", "90th percentile of the same samples (step_ms_p90 / predict_ms_p90)"),
    "loss_final": ("nats", "lower", "mean training loss over the last quarter of the timed steps; "
                   "on predict_smoke, over all steps of the set-up fine-tuning"),
    "exact_match": ("ratio", "higher", "predict_smoke: share of predictions equal to their target text; "
                    "training workloads: share of non-pad target tokens the final model's teacher-forced "
                    f"argmax gets right on the last {MATCH_BATCHES} training batches"),
    "peak_rss_mb": ("MB", "lower", "peak resident set size of the benchmark process"),
}

# layer metric -> (unit, better, the end-to-end metric it should move)
PER_LAYER = {
    "vocab.train_vocab_s": ("s", "lower", "setup_s on pretrain_medium"),
    "vocab.encode_ms": ("ms", "lower", "setup_s on all; predict_ms_p50"),
    "vocab.encode_chars_per_s": ("chars/s", "higher", "setup_s on all; predict_ms_p50"),
    "vocab.decode_ms": ("ms", "lower", "predict_ms_p50"),
    "corruption.corrupt_ms": ("ms", "lower", "train_tokens_per_s on pretrain_medium"),
    "corruption.corrupt_calls": ("count", "lower", "train_tokens_per_s on pretrain_medium"),
    "data_io.read_ms": ("ms", "lower", "setup_s on the smoke workloads"),
    "data_io.write_ms": ("ms", "lower", "setup_s on the smoke workloads"),
    "task_codec.encode_ms": ("ms", "lower", "setup_s on the smoke workloads"),
    "task_codec.decode_ms": ("ms", "lower", "predict_ms_p50 and exact_match"),
    "task_codec.dropped_markers_per_pred": ("ratio", "lower", "predict_ms_p50 and exact_match"),
    "model.init_params_s": ("s", "lower", "setup_s, mostly on pretrain_medium"),
    "model.loss_and_grads_ms_p50": ("ms", "lower", "train_tokens_per_s and step_ms_p50"),
    "model.forward_ms_p50": ("ms", "lower", "train_tokens_per_s and step_ms_p50"),
    "model.cross_entropy_ms_p50": ("ms", "lower", "train_tokens_per_s and step_ms_p50"),
    "model.backward_ms_p50": ("ms", "lower", "train_tokens_per_s and step_ms_p50"),
    "model.train_gflops": ("GFLOP/s", "higher", "train_tokens_per_s and step_ms_p50 (computed)"),
    "model.make_batch_ms": ("ms", "lower", "train_tokens_per_s on finetune_smoke"),
    "model.pad_frac": ("ratio", "lower", "train_tokens_per_s on finetune_smoke"),
    "model.greedy_decode_ms_p50": ("ms", "lower", "gen_tokens_per_s and predict_ms_* on predict_smoke"),
    "model.greedy_decode_ms_p90": ("ms", "lower", "gen_tokens_per_s and predict_ms_* on predict_smoke"),
    "model.decode_ms_per_token_short": ("ms", "lower", "predict_ms_* on predict_smoke"),
    "model.decode_ms_per_token_long": ("ms", "lower", "gen_tokens_per_s and predict_ms_p90"),
    "trainer.optimizer_step_ms_p50": ("ms", "lower", "step_ms_p50 on both training workloads"),
    "trainer.load_ms": ("ms", "lower", "setup_s"),
    "checkpoint.save_ms": ("ms", "lower", "step_ms_p90 and train_tokens_per_s on pretrain_medium"),
    "checkpoint.save_mb": ("MB", "lower", "step_ms_p90 and train_tokens_per_s on pretrain_medium"),
    "checkpoint.load_ms": ("ms", "lower", "setup_s on predict_smoke"),
    "metrics.score_ms": ("ms", "lower", "predict_smoke wall time"),
    "trace.overhead_frac": ("ratio", "lower", "traced timed time over untraced, minus 1"),
}
LAYERS = ("vocab", "corruption", "data_io", "task_codec", "model", "trainer", "checkpoint", "metrics")
for _layer in LAYERS:
    PER_LAYER[f"{_layer}.errors"] = ("count", "lower", "fail_rate")

# span name -> the (owner, attribute) names its callers look up
WRAPPED = {
    "vocab.train_vocab": [(vocab, "train_vocab")],
    "vocab.encode": [(vocab.Vocabulary, "encode")],
    "vocab.decode": [(vocab.Vocabulary, "decode")],
    "corruption.corrupt": [(trainer, "corrupt")],
    "data_io.read": [(data_io, n) for n in ("read_conll_ner", "read_tsv_pairs", "read_qa_json",
                                            "read_task_examples")],
    "data_io.write": [(data_io, "write_task_examples")],
    "task_codec.encode": [(task_codec, f"encode_{t}") for t in ("ner", "re", "nli", "doc", "qa")],
    "task_codec.decode": [(task_codec, n) for n in ("decode_ner", "decode_label", "parse_doc_labels")],
    "model.init_params": [(model, "init_params")],
    "model.make_batch": [(trainer, "make_batch")],
    "model.loss_and_grads": [(trainer, "loss_and_grads")],
    "model.forward": [(model, "forward")],
    "model.cross_entropy": [(model, "cross_entropy")],
    "model.greedy_decode": [(model, "greedy_decode")],
    "trainer.optimizer_step": [(trainer, "optimizer_step")],
    "trainer.load": [(trainer, "load_corpus_windows"), (trainer, "load_task_pairs")],
    "checkpoint.save": [(trainer, "save_checkpoint")],
    "checkpoint.load": [(checkpoint, "load_checkpoint")],
    "metrics.score": [(metrics, n) for n in ("entity_prf", "classification_f1", "accuracy",
                                             "sample_average_f1", "lenient_accuracy")],
}

_TRAINING_SPANS = {"vocab.train_vocab", "vocab.encode", "vocab.decode", "model.init_params",
                   "model.make_batch", "model.loss_and_grads", "model.forward", "model.cross_entropy",
                   "trainer.optimizer_step", "trainer.load", "checkpoint.save", "checkpoint.load"}
_TASK_SPANS = {"data_io.read", "data_io.write", "task_codec.encode"}
EXPECTED_SPANS = {
    "pretrain_medium": _TRAINING_SPANS | {"corruption.corrupt"},
    "finetune_smoke": _TRAINING_SPANS | _TASK_SPANS,
    "predict_smoke": _TRAINING_SPANS | _TASK_SPANS | {"model.greedy_decode", "task_codec.decode",
                                                      "metrics.score"},
}


# ---------------------------------------------------------------------------
# run context, step clock and batch counter
# ---------------------------------------------------------------------------


@dataclass
class Ctx:
    workload: str
    seed: int
    seconds: int
    scale: Scale
    work: str  # scratch directory of this run, removed afterwards
    traced: bool
    tracer: Tracer = field(default_factory=Tracer)
    host: HostSpeed = field(default_factory=HostSpeed)
    checks: list[tuple[str, bool]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    probe_s: float = 0.0  # time spent in forward probes during the traced timed part
    overhead: float = 0.0  # traced over untraced timed time, minus 1
    pad_frac: float = 0.0

    def check(self, name: str, ok: bool) -> None:
        self.checks.append((name, bool(ok)))

    def path(self, *parts: str) -> str:
        return os.path.join(self.work, *parts)


class StepClock(logging.Handler):
    """Timestamps the trainer's ``step=<n> task=<name> loss=<float>`` records,
    and runs the host-speed probe between steps."""

    PATTERN = re.compile(r"^step=(\d+) task=(\S+) loss=")

    def __init__(self, tracer: Tracer | None, host: HostSpeed):
        super().__init__(level=logging.INFO)
        self.ends: list[float] = []  # when each step's record arrived
        self.resumes: list[float] = []  # when the trainer got control back
        self.tracer = tracer
        self.host = host

    def emit(self, record: logging.LogRecord) -> None:
        m = self.PATTERN.match(record.getMessage())
        if m is None:
            return
        self.ends.append(time.perf_counter())
        self.host.maybe_probe()
        if self.tracer is not None:
            self.tracer.op_id = f"step:{int(m.group(1)) + 1}"
        self.resumes.append(time.perf_counter())


class BatchCounter:
    """Counts real and pad positions of each batch the trainer builds, and
    keeps the last few batches."""

    def __init__(self):
        self.tokens: list[int] = []
        self.positions = 0
        self.last: list = []
        self._original = None

    def reset(self) -> None:
        self.tokens = []
        self.positions = 0
        self.last = []

    def install(self) -> None:
        self._original = original = trainer.make_batch

        def counted(*args, **kwargs):
            batch = original(*args, **kwargs)
            self.tokens.append(int(batch.encoder_valid.sum()) + int(batch.loss_mask.sum()))
            self.positions += batch.encoder_ids.size + batch.target_ids.size
            self.last = [*self.last[1 - MATCH_BATCHES :], batch]
            return batch

        trainer.make_batch = counted

    def uninstall(self) -> None:
        trainer.make_batch = self._original

    @property
    def pad_frac(self) -> float:
        return 1.0 - sum(self.tokens) / self.positions if self.positions else 0.0


@dataclass
class TrainRun:
    result: trainer.TrainResult
    clock: StepClock
    tokens: list[int]  # non-pad tokens per step
    last_batches: list  # the last MATCH_BATCHES batches the trainer built

    def intervals(self) -> list[tuple[float, float]]:
        """Start and end of steps 1..n (step 0 is the warm-up): from the
        trainer getting control back after one record to the next record."""
        return list(zip(self.clock.resumes, self.clock.ends[1:]))

    def step_s(self) -> list[float]:
        return [b - a for a, b in self.intervals()]

    def timed_tokens(self) -> int:
        return sum(self.tokens[1 : len(self.clock.ends)])


def _train(ctx: Ctx, counter: BatchCounter, call) -> TrainRun:
    """Run one training call with the step clock attached."""
    logger = logging.getLogger("t2tbio.trainer")
    clock = StepClock(ctx.tracer if ctx.traced else None, ctx.host)
    counter.reset()
    old_level = logger.level
    logger.setLevel(logging.INFO)
    logger.addHandler(clock)
    try:
        with _maybe_span(ctx, "trainer.train"):
            result = call()
    finally:
        logger.removeHandler(clock)
        logger.setLevel(old_level)
    return TrainRun(result=result, clock=clock, tokens=list(counter.tokens), last_batches=counter.last)


def _maybe_span(ctx: Ctx, name: str):
    return ctx.tracer.span(name) if ctx.tracer.active else nullcontext()


# ---------------------------------------------------------------------------
# tracing hooks
# ---------------------------------------------------------------------------


def train_flops(cfg: ModelConfig, batch) -> float:
    """Analytic flops of one loss_and_grads call: forward multiply-adds counted
    as 2 flops, backward taken as twice the forward."""
    b, s = batch.encoder_ids.shape
    t = batch.target_ids.shape[1]
    d, f, v = cfg.d_model, cfg.d_ff, cfg.vocab_size
    enc = 8 * b * s * d * d + 4 * b * s * s * d + 4 * b * s * d * f
    dec = 12 * b * t * d * d + 4 * b * s * d * d + 4 * b * t * t * d + 4 * b * t * s * d + 4 * b * t * d * f
    fwd = cfg.n_encoder_layers * enc + cfg.n_decoder_layers * dec + 2 * b * t * d * v
    return 3.0 * fwd


def install_tracing(ctx: Ctx) -> None:
    tr = ctx.tracer
    lag_calls = [0]

    def lag_hook(span: Span, args, kwargs, result):
        params, cfg, batch = args[:3]
        span.info["flops"] = train_flops(cfg, batch)
        lag_calls[0] += 1
        if lag_calls[0] % PROBE_EVERY:
            return
        t0 = time.perf_counter()
        model.forward(params, cfg, batch)
        tr.named_last("model.forward").info["probe_for"] = span.index
        ctx.probe_s += time.perf_counter() - t0

    def encode_hook(span, args, kwargs, result):
        span.info["chars"] = len(args[1])

    def decode_hook(span, args, kwargs, result):
        max_len = kwargs["max_len"] if "max_len" in kwargs else args[3]
        span.info["steps"] = len(result) + (1 if len(result) < max_len else 0)

    def ner_hook(span, args, kwargs, result):
        if isinstance(result, task_codec.NerDecodeResult):
            span.info["dropped"] = result.dropped_markers

    def save_hook(span, args, kwargs, result):
        out_dir = args[0]
        span.info["bytes"] = sum(os.path.getsize(os.path.join(out_dir, n)) for n in os.listdir(out_dir))

    hooks = {
        ("model.loss_and_grads", "loss_and_grads"): lag_hook,
        ("vocab.encode", "encode"): encode_hook,
        ("model.greedy_decode", "greedy_decode"): decode_hook,
        ("task_codec.decode", "decode_ner"): ner_hook,
        ("checkpoint.save", "save_checkpoint"): save_hook,
    }
    for name, targets in WRAPPED.items():
        for owner, attr in targets:
            tr.wrap(owner, attr, name, hooks.get((name, attr)))


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def _read_lines(path: str) -> list[str]:
    with open(path, encoding="utf-8") as f:
        return [line.rstrip("\n") for line in f]


def _copy_params(params: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    return {k: a.copy() for k, a in params.items()}


def _same_arrays(a: dict[str, np.ndarray], b: dict[str, np.ndarray]) -> bool:
    return a.keys() == b.keys() and all(
        a[k].dtype == b[k].dtype and a[k].shape == b[k].shape and a[k].tobytes() == b[k].tobytes()
        for k in a
    )


def _digest(items) -> str:
    h = hashlib.sha256()
    for x in items:
        h.update((x.hex() if isinstance(x, float) else str(x)).encode("utf-8") + b"\n")
    return h.hexdigest()[:16]


def _note_wall_time(ctx: Ctx, tokens: int, op_s: list[float]) -> None:
    """Print the timed part's unscaled figures beside the host's slowdown."""
    ms = [x * 1e3 for x in op_s]
    ctx.notes.append(f"host slowdown: median {ctx.host.median():.3f} over {len(ctx.host.slowdown)} probes; "
                     f"wall time: tokens_per_s {tokens / sum(op_s):.6g}, op_ms_p50 {pct(ms, 50).value:.6g}, "
                     f"op_ms_p90 {pct(ms, 90).value:.6g}")


def _loss_final(losses: list[float]) -> float:
    k = max(3, len(losses) // 4)
    return float(np.mean(losses[-k:]))


def _check_checkpoint(ctx: Ctx, ckpt_dir: str, result: trainer.TrainResult) -> None:
    params, _, _ = checkpoint.load_checkpoint(ckpt_dir)
    ctx.check("checkpoint reloads bit-exact", _same_arrays(params, result.params))


def _check_vocab(ctx: Ctx, v: vocab.Vocabulary, lines: list[str]) -> None:
    sample = [line for line in lines if line][:20]
    ctx.check("vocabulary round-trips the corpus", all(v.decode(v.encode(s)) == s for s in sample))


def _check_training(ctx: Ctx, run: TrainRun, planned: int) -> tuple[int, int]:
    """Step-level checks; returns (attempted steps, failed steps)."""
    losses = run.result.losses
    failed = planned - len(losses) + sum(1 for x in losses if not math.isfinite(x))
    ctx.check("every step logged", len(run.clock.ends) == len(losses) == planned)
    if losses:
        ctx.check("loss_final below the first-step loss", _loss_final(losses) < losses[0])
    return planned, failed


def _token_match(params, cfg: ModelConfig, batches) -> float:
    """Share of non-pad target tokens whose teacher-forced argmax is right."""
    hits = total = 0
    for b in batches:
        pred = np.argmax(model.forward(params, cfg, b), axis=-1)
        mask = b.loss_mask > 0
        hits += int((pred == b.target_ids)[mask].sum())
        total += int(mask.sum())
    return hits / total


def _setup_reps(ctx: Ctx, reps: int, build):
    """Run ``build`` ``reps`` times; returns (median seconds at the reference
    host's speed, the last state). A traced run builds once, unprobed, so no
    layer's span holds probe time; it reports no setup_s."""
    if ctx.traced:
        return 0.0, build()
    raw, scaled = [], []
    state = None
    for _ in range(reps):
        state, wall, at_reference = ctx.host.timed_setup(build)
        raw.append(wall)
        scaled.append(at_reference)
    ctx.notes.append("setup repeats, wall time: " + ", ".join(f"{t:.3f} s" for t in raw))
    return float(np.median(scaled)), state


# ---------------------------------------------------------------------------
# pretrain_medium
# ---------------------------------------------------------------------------


@dataclass
class PretrainState:
    v: vocab.Vocabulary
    cfg: ModelConfig
    params: dict[str, np.ndarray]
    corpus: str
    lines: list[str]


def _pretrain_setup(ctx: Ctx, corpus: str) -> PretrainState:
    sc = ctx.scale
    lines = _read_lines(corpus)
    v = vocab.train_vocab(lines, target_size=sc.medium_vocab, num_sentinels=sc.medium_sentinels)
    vocab.save_vocab(v, ctx.path("vocab.txt"))
    v = vocab.load_vocab(ctx.path("vocab.txt"))
    cfg = ModelConfig(vocab_size=v.size, **sc.medium_model)
    params = model.init_params(cfg, seed=ctx.seed)
    trainer.load_corpus_windows([CorpusEntry(corpus)], v, sc.medium_input_len)
    return PretrainState(v=v, cfg=cfg, params=params, corpus=corpus, lines=lines)


def run_pretrain_medium(ctx: Ctx, counter: BatchCounter) -> dict:
    sc = ctx.scale
    paths = write_inputs(ctx.path("inputs"), ctx.seed, sc.medium_inputs)
    setup_s, st = _setup_reps(ctx, sc.medium_setup_reps, lambda: _pretrain_setup(ctx, paths["corpus.txt"]))
    steps = max(3, round(ctx.seconds * sc.medium_steps_per_s))
    train_cfg = TrainConfig(
        learning_rate=sc.medium_lr,
        batch_size=sc.medium_batch,
        num_steps=steps + 1,  # step 0 is the warm-up
        input_len=sc.medium_input_len,
        target_len=sc.medium_input_len,
        seed=TRAIN_SEED,
        checkpoint_every=sc.checkpoint_every,
    )
    corruption_cfg = SpanCorruptionConfig()
    initial = _copy_params(st.params)

    def train(params, cfg, out_dir):
        return lambda: trainer.pretrain(
            st.cfg, params, [CorpusEntry(st.corpus)], corruption_cfg, cfg, st.v, out_dir=out_dir
        )

    return _run_training(ctx, counter, setup_s, st, initial, train, train_cfg)


def _run_training(ctx: Ctx, counter: BatchCounter, setup_s, st, initial, train, train_cfg) -> dict:
    """Timed training, then checks; the traced mode times it untraced, then traced."""
    if ctx.traced:
        ctx.tracer.unwrap()
    out = ctx.path("train")
    run = _train(ctx, counter, train(_copy_params(initial), train_cfg, out))
    ctx.pad_frac = counter.pad_frac
    attempted, failed = _check_training(ctx, run, train_cfg.num_steps)
    checked = run
    if ctx.traced:
        shutil.rmtree(out, ignore_errors=True)
        install_tracing(ctx)
        ctx.probe_s = 0.0
        checked = _train(ctx, counter, train(_copy_params(initial), train_cfg, out))
        ctx.check("tracing leaves the losses unchanged", checked.result.losses == run.result.losses)
        ctx.overhead = (sum(checked.step_s()) - ctx.probe_s) / sum(run.step_s()) - 1.0
    else:
        k = REPLAY_OPS
        replay = _train(ctx, counter, train(_copy_params(initial), replace(train_cfg, num_steps=k), None))
        ctx.check("same seed replays the same losses", replay.result.losses == run.result.losses[:k])
    _check_checkpoint(ctx, os.path.join(out, "final"), checked.result)
    _check_vocab(ctx, st.v, st.lines)
    shutil.rmtree(out, ignore_errors=True)
    step_ms = [x * 1e3 for x in ctx.host.scaled(run.intervals())]
    _note_wall_time(ctx, run.timed_tokens(), run.step_s())
    ctx.notes.append(f"digest={_digest(run.result.losses)}")
    ctx.notes.append("tokens_per_s is train_tokens_per_s; op_ms_* are step_ms_*")
    return {
        "setup_s": setup_s,
        "tokens_per_s": run.timed_tokens() * 1e3 / sum(step_ms),
        "op_ms_p50": pct(step_ms, 50),
        "op_ms_p90": pct(step_ms, 90),
        "loss_final": _loss_final(run.result.losses),
        "exact_match": 0.0 if ctx.traced else _token_match(run.result.params, st.cfg, run.last_batches),
        "_attempted": attempted,
        "_failed": failed,
    }


# ---------------------------------------------------------------------------
# finetune_smoke and predict_smoke
# ---------------------------------------------------------------------------


@dataclass
class SmokeState:
    v: vocab.Vocabulary
    cfg: ModelConfig
    params: dict[str, np.ndarray]
    mixture: list[MixtureEntry]
    lines: list[str]
    examples: list[task_codec.TaskExample] = field(default_factory=list)  # predict_smoke only
    trained: trainer.TrainResult | None = None  # predict_smoke's set-up fine-tuning, its last phase
    setup_losses: list[float] = field(default_factory=list)  # every step of that fine-tuning


def encode_task_files(paths: dict[str, str]) -> dict[str, list[task_codec.TaskExample]]:
    """Raw task files through the data_io readers and task_codec encoders."""
    p = {t: paths[RAW_FILES[t]] for t in TASKS}
    out = {"ner": [task_codec.encode_ner(w, s, "ner") for w, s in data_io.read_conll_ner(p["ner"])]}
    out["rel"] = [
        task_codec.encode_re(r["sentence"], r["label"], "rel", list(REL_LABELS))
        for r in data_io.read_tsv_pairs(p["rel"], ["sentence", "label"])
    ]
    out["nli"] = [
        task_codec.encode_nli(r["premise"], r["hypothesis"], r["label"], "nli")
        for r in data_io.read_tsv_pairs(p["nli"], ["premise", "hypothesis", "label"])
    ]
    out["doc"] = [
        task_codec.encode_doc(r["text"], {x for x in r["labels"].split("|") if x}, "doc")
        for r in data_io.read_tsv_pairs(p["doc"], ["text", "labels"])
    ]
    out["qa"] = [
        task_codec.encode_qa(q, i, "qa") for q in data_io.read_qa_json(p["qa"]) for i in range(len(q.snippets))
    ]
    return out


def _smoke_train_cfg(ctx: Ctx, steps: int) -> TrainConfig:
    sc = ctx.scale
    return TrainConfig(
        learning_rate=sc.smoke_lr,
        batch_size=sc.smoke_batch,
        num_steps=steps,
        input_len=sc.smoke_len,
        target_len=sc.smoke_len,
        seed=TRAIN_SEED,
    )


def _smoke_setup(ctx: Ctx, paths: dict[str, str], counter: BatchCounter, predict: bool) -> SmokeState:
    """The smoke workloads' set-up; for predict_smoke it also fine-tunes,
    saves and reloads the model, and reads back the examples to predict."""
    sc = ctx.scale
    tasks = encode_task_files(paths)
    mixture = []
    for t in TASKS:
        jsonl = ctx.path(f"{t}.jsonl")
        data_io.write_task_examples(jsonl, tasks[t])
        mixture.append(MixtureEntry(task_name=t, path=jsonl, weight=TASK_WEIGHTS[ctx.workload][t]))
    lines = _read_lines(paths["corpus.txt"])
    lines += [text for t in TASKS for ex in tasks[t] for text in (ex.input_text, ex.target_text)]
    v = vocab.train_vocab(lines, target_size=sc.smoke_vocab, num_sentinels=sc.smoke_sentinels)
    vocab.save_vocab(v, ctx.path("vocab.txt"))
    v = vocab.load_vocab(ctx.path("vocab.txt"))
    cfg = ModelConfig(vocab_size=v.size, **sc.smoke_model)
    params = model.init_params(cfg, seed=ctx.seed)
    for entry in mixture:
        trainer.load_task_pairs(entry, v, sc.smoke_len, sc.smoke_len)
    st = SmokeState(v=v, cfg=cfg, params=params, mixture=mixture, lines=lines)
    if not predict:
        return st
    out = ctx.path("setup_ft")
    for steps, lr in zip(sc.predict_setup_steps, (sc.smoke_lr, sc.smoke_lr / 10)):
        train_cfg = replace(_smoke_train_cfg(ctx, steps), learning_rate=lr)
        st.trained = _train(ctx, counter, lambda: trainer.finetune(params, mixture, cfg, train_cfg, v, out_dir=out)).result
        st.setup_losses += st.trained.losses
    st.params, _, _ = checkpoint.load_checkpoint(os.path.join(out, "final"))
    data_io.write_task_examples(ctx.path("predict.jsonl"), [ex for t in TASKS for ex in tasks[t]])
    st.examples = data_io.read_task_examples(ctx.path("predict.jsonl"))
    return st


def run_finetune_smoke(ctx: Ctx, counter: BatchCounter) -> dict:
    sc = ctx.scale
    paths = write_inputs(ctx.path("inputs"), ctx.seed, sc.finetune_inputs)
    setup_s, st = _setup_reps(ctx, sc.smoke_setup_reps, lambda: _smoke_setup(ctx, paths, counter, False))
    steps = max(3, round(ctx.seconds * sc.finetune_steps_per_s))
    train_cfg = _smoke_train_cfg(ctx, steps + 1)
    initial = _copy_params(st.params)

    def train(params, cfg, out_dir):
        return lambda: trainer.finetune(params, st.mixture, st.cfg, cfg, st.v, out_dir=out_dir)

    return _run_training(ctx, counter, setup_s, st, initial, train, train_cfg)


def score_one(ex: task_codec.TaskExample, text: str) -> tuple[float, bool]:
    """Decode one prediction through its task codec and score it; returns
    (score, whether the output is well-formed for its codec): NER output
    drops no entity marker, a label is one of the label set as written, every
    document label is a known topic, and a QA answer is not empty."""
    gold = ex.gold
    kind = gold["kind"]
    if kind == "ner":
        decoded = task_codec.decode_ner(text, gold["words"], entity_type="GENE")
        spans = [EntitySpan(start_word=s, end_word=e, entity_type=t) for s, e, t in gold["spans"]]
        return metrics.entity_prf([spans], [decoded.spans]).f1, decoded.dropped_markers == 0
    if kind in ("re", "nli"):
        labels = list(REL_LABELS) if kind == "re" else list(task_codec.NLI_LABELS)
        diagnostics: dict = {}
        label = task_codec.decode_label(text, labels, diagnostics)
        return metrics.accuracy([gold["label"]], [label]), not diagnostics
    if kind == "doc":
        pred = task_codec.parse_doc_labels(text)
        return metrics.sample_average_f1([set(gold["labels"])], [pred]), pred <= DOC_TOPICS.keys()
    return metrics.lenient_accuracy([([text], list(gold["answers"]))]), bool(text.strip())


def reference_decode(params, cfg: ModelConfig, ids: list[int], max_len: int) -> tuple[list[int], list[float]]:
    """Greedy decoding by one full teacher-forced ``model.forward`` per step.
    Returns the tokens (eos included when reached) and, for each step, the
    margin between the best and the second-best logit."""
    out: list[int] = []
    margins: list[float] = []
    for _ in range(max_len):
        batch = model.make_batch([(ids, out + [EOS_ID])], ensure_eos=False)
        logits = model.forward(params, cfg, batch)[0, -1]
        second, best = np.partition(logits, -2)[-2:]
        margins.append(float(best - second))
        out.append(int(np.argmax(logits)))
        if out[-1] == EOS_ID:
            break
    return out, margins


def agrees_with_reference(generated: list[int], max_len: int, ref: list[int], margins: list[float]) -> bool:
    """Whether ``greedy_decode``'s output is the reference's, or first leaves
    it at a step where the reference's best two logits tie."""
    got = generated + ([EOS_ID] if len(generated) < max_len else [])
    if got == ref:
        return True
    k = next(i for i, (a, b) in enumerate(zip(got, ref)) if a != b)
    return margins[k] < TIE_MARGIN


def _check_against_reference(ctx: Ctx, st: SmokeState, outputs: list[list[int]]) -> None:
    max_len = ctx.scale.max_decode_len
    bad = 0
    for ex, generated in zip(st.examples, outputs):
        ids = (st.v.encode(ex.input_text) + [EOS_ID])[: st.cfg.max_seq_len]
        ref, margins = reference_decode(st.params, st.cfg, ids, max_len)
        bad += not agrees_with_reference(generated, max_len, ref, margins)
    ctx.notes.append(f"predictions that leave the forward-pass reference: {bad} of {len(outputs)}")
    ctx.check("greedy_decode agrees with the forward-pass reference", bad == 0)


@dataclass
class PredictRun:
    texts: list[str]  # one per prediction, every pass
    outputs: list[list[int]]  # generated ids of the first pass
    scores: list[float]
    intervals: list[tuple[float, float]]  # start and end of each successful prediction
    lengths: list[int]  # generated tokens per prediction, eos included
    failed: int  # predictions that raised
    malformed: int  # predictions whose output is not well-formed for its codec
    exact_match: float  # over the first pass

    def op_ms(self) -> list[float]:
        return [(b - a) * 1e3 for a, b in self.intervals]


def _predict_all(ctx: Ctx, st: SmokeState, passes: int) -> PredictRun:
    """What ``t2tbio predict`` and ``evaluate`` do, one example at a time,
    ``passes`` times over the examples."""
    max_len = ctx.scale.max_decode_len
    texts, outputs, scores, intervals, lengths = [], [], [], [], []
    failed = malformed = 0
    for p in range(passes):
        for i, ex in enumerate(st.examples):
            ctx.tracer.op_id = f"pass:{p}:example:{i}"
            ctx.host.maybe_probe()
            t0 = time.perf_counter()
            try:
                ids = st.v.encode(ex.input_text) + [EOS_ID]
                ids = ids[: st.cfg.max_seq_len]
                generated = model.greedy_decode(st.params, st.cfg, ids, max_len=max_len)
                text = st.v.decode(generated)
                score, ok = score_one(ex, text)
            except Exception as e:  # a failed prediction is counted, not fatal
                logging.getLogger("perfbench").error("pass %d example %d failed: %r", p, i, e)
                texts.append("")
                outputs += [[]] if p == 0 else []
                failed += 1
                continue
            intervals.append((t0, time.perf_counter()))
            lengths.append(len(generated) + (1 if len(generated) < max_len else 0))
            if p == 0:
                outputs.append(generated)
            texts.append(text)
            scores.append(score)
            malformed += not ok
    n = len(st.examples)
    exact = metrics.accuracy([ex.target_text for ex in st.examples], texts[:n])
    ctx.tracer.op_id = None
    return PredictRun(texts=texts, outputs=outputs, scores=scores, intervals=intervals, lengths=lengths,
                      failed=failed, malformed=malformed, exact_match=exact)


def run_predict_smoke(ctx: Ctx, counter: BatchCounter) -> dict:
    sc = ctx.scale
    paths = write_inputs(ctx.path("inputs"), ctx.seed, sc.predict_inputs)
    setup_s, st = _setup_reps(ctx, sc.predict_setup_reps, lambda: _smoke_setup(ctx, paths, counter, True))
    ctx.pad_frac = counter.pad_frac
    ctx.check("checkpoint reloads bit-exact", _same_arrays(st.params, st.trained.params))
    _check_vocab(ctx, st.v, st.lines)
    ctx.check("every target decodes through its task codec to its gold answer",
              all(score_one(ex, ex.target_text) == (1.0, True) for ex in st.examples))
    n = len(st.examples)
    passes = max(1, round(ctx.seconds * sc.predictions_per_s / n))
    if ctx.traced:
        ctx.tracer.unwrap()
    run = _predict_all(ctx, st, passes)
    # every pass after the first replays all predictions of the first
    ctx.check("every pass gives the same predictions", run.texts == run.texts[:n] * passes)
    _check_against_reference(ctx, st, run.outputs)
    if ctx.traced:
        install_tracing(ctx)
        traced = _predict_all(ctx, st, passes)
        ctx.check("tracing leaves the predictions unchanged", traced.texts == run.texts)
        ctx.overhead = sum(traced.op_ms()) / sum(run.op_ms()) - 1.0
    by_task: dict[str, list[float]] = {}
    for ex, s in zip(st.examples, run.scores):
        by_task.setdefault(ex.task_name, []).append(s)
    ctx.notes.append("mean score by task: " + ", ".join(f"{t}={np.mean(s):.3f}" for t, s in sorted(by_task.items())))
    ctx.notes.append(f"generated tokens per prediction: min {min(run.lengths)}, "
                     f"median {np.median(run.lengths):g}, max {max(run.lengths)}")
    ctx.notes.append(f"exact_match={run.exact_match:.4f} over {n} examples; {passes} passes; "
                     f"{run.malformed // passes} predictions not well-formed for their codec")
    ctx.notes.append(f"digest={_digest(st.setup_losses + run.texts[:n])}")
    ctx.notes.append("tokens_per_s is gen_tokens_per_s; op_ms_* are predict_ms_*")
    op_ms = [x * 1e3 for x in ctx.host.scaled(run.intervals)]
    _note_wall_time(ctx, sum(run.lengths), [b - a for a, b in run.intervals])
    losses = st.setup_losses
    ctx.check("set-up loss_final below the first-step loss", _loss_final(losses) < losses[0])
    return {
        "setup_s": setup_s,
        "tokens_per_s": sum(run.lengths) * 1e3 / sum(op_ms),
        "op_ms_p50": pct(op_ms, 50),
        "op_ms_p90": pct(op_ms, 90),
        # the set-up run ends near zero loss, where small changes are large shares
        "loss_final": float(np.mean(losses)),
        "exact_match": run.exact_match,
        "_attempted": n * passes,
        "_failed": run.failed,
    }


RUNNERS = {
    "pretrain_medium": run_pretrain_medium,
    "finetune_smoke": run_finetune_smoke,
    "predict_smoke": run_predict_smoke,
}


# ---------------------------------------------------------------------------
# per-layer metrics from the spans
# ---------------------------------------------------------------------------


def layer_metrics(ctx: Ctx) -> dict[str, float]:
    tr = ctx.tracer

    def total_ms(name):
        return sum(s.duration for s in tr.named(name)) * 1e3

    def p(name, q):
        return percentile_or_zero([s.duration * 1e3 for s in tr.named(name)], q)

    kids = tr.children()
    lag = tr.named("model.loss_and_grads")
    backward = []  # per probed step: loss_and_grads minus its forward and cross-entropy
    for fwd in tr.named("model.forward"):
        i = fwd.info.get("probe_for")
        if i is not None:
            ce = sum(tr.spans[k].duration for k in kids.get(i, ()) if tr.spans[k].name == "model.cross_entropy")
            backward.append((tr.spans[i].duration - fwd.duration - ce) * 1e3)
    enc = tr.named("vocab.encode")
    enc_s = sum(s.duration for s in enc)
    dec = tr.named("model.greedy_decode")
    short = [s.duration * 1e3 / s.info["steps"] for s in dec if 0 < s.info["steps"] <= SHORT_DECODE]
    long_ = [s.duration * 1e3 / s.info["steps"] for s in dec if s.info["steps"] >= LONG_DECODE]
    ner = [s for s in tr.named("task_codec.decode") if "dropped" in s.info]
    saves = tr.named("checkpoint.save")
    lag_s = sum(s.duration for s in lag)
    out = {
        "vocab.train_vocab_s": total_ms("vocab.train_vocab") / 1e3,
        "vocab.encode_ms": enc_s * 1e3,
        "vocab.encode_chars_per_s": sum(s.info["chars"] for s in enc) / enc_s if enc_s else 0.0,
        "vocab.decode_ms": total_ms("vocab.decode"),
        "corruption.corrupt_ms": total_ms("corruption.corrupt"),
        "corruption.corrupt_calls": float(len(tr.named("corruption.corrupt"))),
        "data_io.read_ms": total_ms("data_io.read"),
        "data_io.write_ms": total_ms("data_io.write"),
        "task_codec.encode_ms": total_ms("task_codec.encode"),
        "task_codec.decode_ms": total_ms("task_codec.decode"),
        "task_codec.dropped_markers_per_pred": sum(s.info["dropped"] for s in ner) / len(ner) if ner else 0.0,
        "model.init_params_s": total_ms("model.init_params") / 1e3,
        "model.loss_and_grads_ms_p50": p("model.loss_and_grads", 50),
        "model.forward_ms_p50": p("model.forward", 50),
        "model.cross_entropy_ms_p50": p("model.cross_entropy", 50),
        "model.backward_ms_p50": percentile_or_zero(backward, 50),
        "model.train_gflops": sum(s.info["flops"] for s in lag) / lag_s / 1e9 if lag_s else 0.0,
        "model.make_batch_ms": total_ms("model.make_batch"),
        "model.pad_frac": ctx.pad_frac,
        "model.greedy_decode_ms_p50": p("model.greedy_decode", 50),
        "model.greedy_decode_ms_p90": p("model.greedy_decode", 90),
        "model.decode_ms_per_token_short": float(np.mean(short)) if short else 0.0,
        "model.decode_ms_per_token_long": float(np.mean(long_)) if long_ else 0.0,
        "trainer.optimizer_step_ms_p50": p("trainer.optimizer_step", 50),
        "trainer.load_ms": total_ms("trainer.load"),
        "checkpoint.save_ms": p("checkpoint.save", 50),
        "checkpoint.save_mb": float(np.mean([s.info["bytes"] for s in saves])) / 2**20 if saves else 0.0,
        "checkpoint.load_ms": p("checkpoint.load", 50),
        "metrics.score_ms": total_ms("metrics.score"),
        "trace.overhead_frac": ctx.overhead,
    }
    for layer in LAYERS:
        out[f"{layer}.errors"] = float(sum(1 for s in tr.spans if s.error and s.name.startswith(layer + ".")))
    return out


def percentile_or_zero(xs, q) -> float:
    return pct(xs, q).value if xs else 0.0


def missing_spans(ctx: Ctx) -> list[str]:
    seen = {s.name for s in ctx.tracer.spans}
    return sorted(EXPECTED_SPANS[ctx.workload] - seen)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
