"""Tests of the benchmark itself: inputs, statistics, tracing, and tiny runs.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, ROOT)
sys.path.insert(0, os.path.join(ROOT, "src"))

from t2tbio import task_codec  # noqa: E402

from perfbench import hostspeed, inputs, stats  # noqa: E402
from perfbench.workloads import TIE_MARGIN, agrees_with_reference, score_one  # noqa: E402
from perfbench.trace import Tracer  # noqa: E402

SIZES = inputs.InputSizes(lexicon_words=80, corpus_lines=5, per_task=4)
WORKLOADS = ("pretrain_medium", "finetune_smoke", "predict_smoke")


def test_same_seed_gives_same_bytes():
    a = inputs.generate(7, SIZES)
    b = inputs.generate(7, SIZES)
    assert a == b
    assert sorted(a) == sorted(["corpus.txt", *inputs.RAW_FILES.values()])


def test_different_seeds_give_different_bytes():
    a = inputs.generate(7, SIZES)
    b = inputs.generate(8, SIZES)
    assert all(a[name] != b[name] for name in a)


def test_written_files_match_generated_text(tmp_path):
    paths = inputs.write_inputs(str(tmp_path), 3, SIZES)
    for name, text in inputs.generate(3, SIZES).items():
        with open(paths[name], "rb") as f:
            assert f.read() == text.encode("utf-8")


def test_generator_stream_is_fixed():
    # SplitMix64 reference values for seed 0; a change here changes every input
    r = inputs.Rng(0)
    assert [r.u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


def test_pct_counts_samples_beyond():
    xs = list(range(1, 101))  # 1..100
    p90 = stats.pct(xs, 90)
    assert p90.value == pytest.approx(90.1)
    assert (p90.n, p90.beyond) == (100, 10)
    assert p90.describe() == "n=100, 10 beyond"
    assert stats.pct([5.0] * 4, 50) == stats.Pct(value=5.0, n=4, beyond=0)
    assert stats.pct([3.0, 1.0], 50).value == pytest.approx(2.0)


def test_host_speed_scales_by_the_nearest_probes():
    hs = hostspeed.HostSpeed()
    hs.when = [float(i) for i in range(100)]
    hs.slowdown = [1.0] * 50 + [2.0] * 50
    assert hs.scaled([(10.0, 10.5), (90.0, 91.0)]) == pytest.approx([0.5, 0.5])
    assert hs.median() == pytest.approx(1.5)
    hs = hostspeed.HostSpeed(("blas", "calls"))
    hs.probe()
    assert hs.use == [0, 3] and hs.slowdown[0] > 0


def test_timed_setup_takes_probe_time_off():
    hs = hostspeed.HostSpeed()
    result, wall, scaled = hs.timed_setup(lambda: time.sleep(0.6) or "state")
    assert result == "state"
    assert len(hs.slowdown) >= 2 * hostspeed.BOUNDARY_PROBES + 2  # the timer probed during the sleep
    assert wall == pytest.approx(0.6, abs=0.05)
    assert scaled == pytest.approx(wall / np.median(hs.slowdown))


def test_score_one_flags_malformed_output():
    ner = task_codec.encode_ner(["a", "b", "c"], [task_codec.EntitySpan(1, 1, "GENE")], "ner")
    assert score_one(ner, ner.target_text) == (1.0, True)
    assert not score_one(ner, ner.target_text + " }*")[1]  # a stray close marker is dropped
    rel = task_codec.encode_re("x y", "inhibition", "rel", list(inputs.REL_LABELS))
    assert score_one(rel, "inhibition") == (1.0, True)
    assert score_one(rel, "inhibitio") == (1.0, False)  # right only by fuzzy match
    assert not score_one(rel, "")[1]
    doc = task_codec.encode_doc("t", {"cell death"}, "doc")
    assert score_one(doc, doc.target_text) == (1.0, True)
    assert score_one(doc, task_codec.EMPTY_LABEL_SET_TARGET)[1]
    assert not score_one(doc, "cell death, sunburn")[1]
    qa = task_codec.encode_qa(task_codec.QAExample("q?", ("ctx",), ("tp53",)), 0, "qa")
    assert score_one(qa, "tp53") == (1.0, True)
    assert not score_one(qa, " ")[1]


def test_agreement_with_reference_decode():
    eos = 1
    ref, margins = [7, 8, eos], [2.0, TIE_MARGIN / 2, 3.0]
    assert agrees_with_reference([7, 8], 5, ref, margins)
    assert not agrees_with_reference([7], 5, ref, [2.0, 1.0, 3.0])  # stopped early
    assert agrees_with_reference([7, 9, 4], 5, ref, margins)  # left it at a tie
    assert not agrees_with_reference([6, 8], 5, ref, margins)
    assert agrees_with_reference([7, 8], 2, [7, 8], [2.0, 2.0])  # both ran to max_len


def test_tracer_self_time_and_restore():
    class Owner:
        @staticmethod
        def outer():
            time.sleep(0.02)
            Owner.inner()

        @staticmethod
        def inner():
            time.sleep(0.03)

    original_outer, original_inner = Owner.outer, Owner.inner
    tr = Tracer()
    tr.wrap(Owner, "outer", "layer.outer")
    tr.wrap(Owner, "inner", "layer.inner")
    tr.op_id = "step:1"
    Owner.outer()
    tr.unwrap()
    assert Owner.outer is original_outer and Owner.inner is original_inner
    outer, inner = tr.named("layer.outer")[0], tr.named("layer.inner")[0]
    assert inner.parent == outer.index and inner.op_id == "step:1"
    self_s = tr.self_times()
    assert self_s["layer.outer"] == pytest.approx(outer.duration - inner.duration)
    assert self_s["layer.outer"] < 0.03 <= self_s["layer.inner"]


def test_tracer_marks_errors():
    def boom():
        raise KeyError("x")

    class Owner:
        f = staticmethod(boom)

    tr = Tracer()
    tr.wrap(Owner, "f", "layer.f")
    with pytest.raises(KeyError):
        Owner.f()
    assert tr.spans[0].error


def _run(workload, trace, seed=1):
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_end_to_end_metric(workload):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    _, result = _run(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    # the tiny model is too small to learn its examples, so exact_match may be 0
    assert all(v["value"] > 0 for k, v in result["metrics"].items() if k != "exact_match")
    assert 0.0 <= result["metrics"]["exact_match"]["value"] <= 1.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_traced_run_emits_every_layer_metric(workload):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    lines, result = _run(workload, 1)
    assert result["correct"], "\n".join(lines)
    expected = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["model.loss_and_grads_ms_p50"] > 0 and metrics["model.init_params_s"] > 0
    assert (metrics["corruption.corrupt_calls"] > 0) == (workload == "pretrain_medium")
    assert (metrics["model.greedy_decode_ms_p50"] > 0) == (workload == "predict_smoke")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_same_digest(workload):
    def digest(seed):
        return [x for x in _run(workload, 0, seed=seed)[0] if x.startswith("digest=")]

    first = digest(5)
    assert len(first) == 1 and digest(5) == first
    assert digest(6) != first


def test_refuses_to_run_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in os.listdir(os.path.join(ROOT, "perfbench")):
        if name.endswith(".py"):
            with open(os.path.join(ROOT, "perfbench", name), "rb") as f:
                (bench / name).write_bytes(f.read())
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "finetune_smoke", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert out.returncode != 0
    assert out.stdout == ""
