#!/usr/bin/env python3
"""The t2tbio benchmark: three seeded workloads, timed end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload pretrain_medium --seed 1 --seconds 10 --trace 0

Each run is one fresh process with every BLAS/OMP pool pinned to one thread.
It generates its inputs from ``--seed`` with the benchmark's own generator
(``perfbench/inputs.py``), builds the pipeline from ``src/`` through the
public functions a user's run calls, sizes the timed work from ``--seconds``
at fixed nominal rates (so every version of the code does the same work),
checks the outputs, and prints every metric by name with its unit, the
environment (numpy, BLAS, nproc, Python, thread pins) and a digest of the
losses and predictions. The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; fail_rate is failed over attempted, where the
operations are training steps, predictions and output checks.

Times are taken with ``time.perf_counter``. The timed end-to-end metrics
(setup_s, tokens_per_s, op_ms_*) are then scaled to a reference host speed
(``perfbench/hostspeed.py``): a fixed probe (a BLAS product, a pass over
4 MB arrays, a Python loop and tiny numpy calls; pretrain_medium's slowdown
leaves out the tiny calls, see ``PROBE_PIECES``) runs between operations, at
most every 0.1 s and outside every timed interval, and each operation's time
is divided by the median slowdown of the 25 probes nearest to it. During a
set-up a timer signal probes every 0.25 s; the probes' time is taken off
the set-up's, and the rest is divided by the median slowdown of the probes
taken during it and 3 before and after it. On a shared host the
neighbours' load moves the speed of the same code by 20-40% from minute to
minute, so raw wall times spread more from run to run than any usable
regression bound; the scaled times follow the program, not the host.
Every run also prints the unscaled wall-time figures and the host's median
slowdown above the result line.

Workloads, and why each one:

- ``pretrain_medium``: span-corruption pretraining of the medium model
  (d=256, d_ff=1024, 4 heads, 2+2 layers, input_len 64, batch 8) with a
  4096-piece vocabulary trained in set-up, checkpointing every 4 steps. It is
  the GEMM-bound path: fwd/bwd at width 256, the V=4096 output layer and
  cross-entropy, a 4.7M-parameter Adam step and ~57 MB checkpoint writes.
  Set-up holds the two slowest set-up calls, ``train_vocab`` at 4096 pieces
  and ``init_params``. Decoding never runs.
- ``finetune_smoke``: multi-task fine-tuning of the smoke model (d=64,
  V=256, length caps 64, batch 16) over a weighted mixture of all five task
  families, whose raw CoNLL/TSV/QA-JSON files go through the ``data_io``
  readers and ``task_codec`` encoders. At d=64 per-call overhead outweighs
  flops (einsum dispatch, ``np.add.at``, the ~40-tensor Adam loop,
  ``make_batch``, padding), so it tells overhead cuts apart from GEMM
  speed-ups. Decoding never runs.
- ``predict_smoke``: set-up fine-tunes a smoke model on the five-task mix
  (300 steps over 35 examples, then 100 at a tenth of the learning rate,
  which settles the loss spikes Adam takes near zero loss; without them one
  seed in five or so ended on a spike and predicted under a third of the
  examples right), saves it and reloads it through ``checkpoint``. The
  timed part runs what ``t2tbio predict`` plus ``evaluate`` do for each
  example, one at a time:
  encode, ``greedy_decode`` (at most 64 tokens, the model's length cap),
  ``vocab.decode``, task-codec decoding and scoring, in repeated passes. It
  is the only workload where decoding, the codecs and ``metrics`` do the
  work. Outputs run from 3 to 64 tokens: labels, QA answers and hallmark
  lists of 3-30, and tagged NER sentences of 40-55 (op_ms_p90 falls among
  these; every NER sentence has the same shape, so their lengths differ
  only by how the seed's vocabulary splits their words). An O(T^2) -> O(T)
  decoder moves the long ones and leaves the short ones alone. It predicts
  the examples it was tuned on, as scripts/run_smoke.py does, because a
  briefly trained model stops early on unseen ones: on held-out examples
  it produced a median of 6 tokens and hardly any long output, and how
  early it stopped changed from one training set to the next. The model
  learns most of them but not all: it falls into loops on some repeated
  syllables.

End-to-end metrics (``--trace 0``); one name serves every workload:

- ``setup_s``: median over set-up repeats of everything before the first
  timed step or prediction, input generation excluded. 3 repeats on
  finetune_smoke; 1 on pretrain_medium and predict_smoke, whose set-up
  alone takes 25-40 s and would double those runs if repeated.
- ``tokens_per_s``: train_tokens_per_s (non-pad encoder + target tokens per
  second, checkpoint stalls included) on the training workloads;
  gen_tokens_per_s (generated tokens, eos included) on predict_smoke.
- ``op_ms_p50`` / ``op_ms_p90``: step_ms_* on the training workloads (from
  the timestamps of the trainer's ``step=<n> ... loss=`` log records; step 0
  is the warm-up), predict_ms_* on predict_smoke. The sample count and the
  number of samples beyond each percentile are printed with it.
  pretrain_medium times 35 steps, so its p90 has 3-4 samples beyond it,
  not ten: a hundred steps would add a minute to each of its runs.
- ``loss_final``: mean loss over the last quarter of the timed steps; on
  predict_smoke, over all steps of the set-up fine-tuning, whose last steps
  sit near zero. A guard against numeric drift.
- ``exact_match``: on predict_smoke, the share of predictions equal to
  their target text; on the training workloads, the share of non-pad target tokens the final model's
  teacher-forced argmax gets right on the last 4 training batches.
- ``peak_rss_mb``.

fail_rate is the result's ``failed`` over ``attempted``, also printed above
the result line. The output checks that count in it: every loss is finite;
loss_final is below the first-step loss; a saved checkpoint reloads
bit-exact; the vocabulary round-trips the corpus; every target decodes
through its task codec to its gold answer, with no fuzzy label match, no
dropped entity marker and no unknown hallmark; ``greedy_decode`` gives, for
every example, the tokens of a reference decoder that runs one full
``model.forward`` per step (a change of token where the reference's two best
logits tie within 1e-3 is allowed), so a decoder that changes outputs or
stops early fails the run; the same seed gives the same per-step losses and
predictions (every prediction pass repeats the first; untraced training runs
repeat their first steps; the tests compare the digest across processes).

Per-layer metrics (``--trace 1``) come from a separate traced run that wraps
each public function at the name its caller looks up. It times the same
work untraced first and then traced, and reports their ratio as
trace.overhead_frac. Each layer metric, and the end-to-end metric it should
move:

- vocab.train_vocab_s -> setup_s on pretrain_medium, little on the smoke ones
- vocab.encode_ms, vocab.encode_chars_per_s -> setup_s on all; predict_ms_p50
- vocab.decode_ms -> predict_ms_p50
- corruption.corrupt_ms, corruption.corrupt_calls -> train_tokens_per_s on
  pretrain_medium (the smoke workloads do not call it)
- data_io.read_ms, data_io.write_ms, task_codec.encode_ms -> setup_s on the
  smoke workloads
- task_codec.decode_ms, task_codec.dropped_markers_per_pred -> predict_ms_p50
  and exact_match
- model.init_params_s -> setup_s, mostly on pretrain_medium
- model.loss_and_grads_ms_p50, model.forward_ms_p50 (a separate forward on
  every second batch), model.cross_entropy_ms_p50, model.backward_ms_p50 (the
  remainder), model.train_gflops (computed: analytic flops over measured
  time) -> train_tokens_per_s and step_ms_p50 on both training workloads
- model.make_batch_ms, model.pad_frac -> train_tokens_per_s on finetune_smoke
- model.greedy_decode_ms_p50/_p90, model.decode_ms_per_token_short/_long ->
  gen_tokens_per_s and predict_ms_* on predict_smoke
- trainer.optimizer_step_ms_p50 -> step_ms_p50 on both training workloads
- trainer.load_ms -> setup_s
- checkpoint.save_ms, checkpoint.save_mb -> step_ms_p90 and
  train_tokens_per_s on pretrain_medium
- checkpoint.load_ms -> setup_s on predict_smoke
- metrics.score_ms -> predict_smoke wall time
- <layer>.errors -> fail_rate

Per-layer times are unscaled wall time. A layer that does no work on a workload
reports 0. ``t2tbio.rng`` is not wrapped: its calls are per scalar, and its
cost shows inside model.init_params_s and corruption.corrupt_ms.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import traceback

PIN_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
            "NUMEXPR_NUM_THREADS", "BLIS_NUM_THREADS")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _parse(argv):
    p = argparse.ArgumentParser(description="t2tbio benchmark")
    p.add_argument("--workload", required=True, choices=("pretrain_medium", "finetune_smoke", "predict_smoke"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="tiny only exercises the code paths (for the benchmark's tests)")
    return p.parse_args(argv)


def _environment() -> dict:
    import numpy as np

    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except Exception:  # older numpy has no dict mode; the field stays "unknown"
        pass
    return {
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "threads": {v: os.environ.get(v) for v in PIN_VARS},
    }


def main(argv=None) -> int:
    args = _parse(argv)
    for var in PIN_VARS:  # before numpy loads, so every pool starts with one thread
        os.environ[var] = "1"
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "t2tbio", "__init__.py")):
        print(f"perfbench: no t2tbio sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    sys.path.insert(0, ROOT)

    from perfbench import workloads as w
    from perfbench.hostspeed import HostSpeed
    from perfbench.stats import Pct

    ctx = w.Ctx(workload=args.workload, seed=args.seed, seconds=args.seconds, scale=w.SCALES[args.scale],
                work=os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{args.seed}-{os.getpid()}"),
                traced=bool(args.trace), host=HostSpeed(w.PROBE_PIECES[args.workload]))
    os.makedirs(ctx.work)
    counter = w.BatchCounter()
    counter.install()
    if ctx.traced:
        w.install_tracing(ctx)
    try:
        out = w.RUNNERS[args.workload](ctx, counter)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        ctx.tracer.unwrap()
        counter.uninstall()
        shutil.rmtree(ctx.work, ignore_errors=True)

    print("env " + json.dumps(_environment(), sort_keys=True))
    for note in ctx.notes:
        print(note)
    failed_checks = [name for name, ok in ctx.checks if not ok]
    if ctx.traced:
        missing = w.missing_spans(ctx)
        for name in w.EXPECTED_SPANS[args.workload]:
            ctx.check(f"layer {name} recorded spans", name not in missing)
        failed_checks = [name for name, ok in ctx.checks if not ok]
        trace_dir = os.path.join(ROOT, ".perfbench_out")
        os.makedirs(trace_dir, exist_ok=True)
        trace_path = os.path.join(trace_dir, f"trace-{args.workload}-seed{args.seed}.jsonl")
        ctx.tracer.write(trace_path)
        print(f"spans written to {os.path.relpath(trace_path, ROOT)}")
        for name, s in sorted(ctx.tracer.self_times().items(), key=lambda kv: -kv[1]):
            print(f"self time {name:<26} {s * 1e3:12.3f} ms")
    attempted = out["_attempted"] + len(ctx.checks)
    failed = out["_failed"] + len(failed_checks)
    for name in failed_checks:
        print(f"CHECK FAILED: {name}")
    print(f"checks passed: {len(ctx.checks) - len(failed_checks)}/{len(ctx.checks)}")
    print(f"fail_rate = {failed / attempted:.6f} ({failed} failed of {attempted} attempted)")

    metrics = {}
    if ctx.traced:
        for name, value in w.layer_metrics(ctx).items():
            unit = w.PER_LAYER[name][0]
            metrics[name] = {"value": value, "unit": unit}
            print(f"{name} = {value:.6g} {unit}")
    else:
        out["peak_rss_mb"] = w.peak_rss_mb()
        for name, (unit, _, _) in w.END_TO_END.items():
            value = out[name]
            extra = ""
            if isinstance(value, Pct):
                extra = f"  ({value.describe()})"
                value = value.value
            metrics[name] = {"value": value, "unit": unit}
            print(f"{name} = {value:.6g} {unit}{extra}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
