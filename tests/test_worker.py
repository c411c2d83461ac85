"""The worker thread of a training step: with every gradient buffer and half
of every Adam step handed to it (``worker.MIN_SIZE`` patched to 0), results
are bit-equal to the calling thread's alone, errors reach the caller after
the calls handed over before them, and no thread is left behind but the one
worker."""

import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from t2tbio import model, trainer, worker
from t2tbio.checkpoint import views
from t2tbio.model import loss_and_grads
from t2tbio.rng import SplitMix64
from t2tbio.trainer import NonFiniteUpdate, TrainConfig, arena, optimizer_step

from test_model import SMOKE, TINY, randomized_params, tiny_batch
from test_trainer import phase_fixture

SERIAL = 1 << 62  # a MIN_SIZE no buffer reaches: every write stays on the calling thread
JOIN_TIMEOUT = 30.0  # seconds


@pytest.fixture
def on_worker(monkeypatch):
    """Hand every gradient buffer and Adam's upper half to the worker, and
    count the calls ``_weight_grad`` and ``_scatter_add_rows`` run on it."""
    monkeypatch.setattr(worker, "MIN_SIZE", 0)
    counts = {"_weight_grad": 0, "_scatter_add_rows": 0}
    for name in counts:
        def counted(*args, _name=name, _original=getattr(model, name)):
            if threading.current_thread() is not threading.main_thread():
                counts[_name] += 1
            return _original(*args)

        monkeypatch.setattr(model, name, counted)
    return counts


def serial(monkeypatch, fn, *args):
    """``fn(*args)`` with nothing handed to the worker."""
    with monkeypatch.context() as m:
        m.setattr(worker, "MIN_SIZE", SERIAL)
        return fn(*args)


def assert_same_bytes(got: dict, want: dict):
    assert got.keys() == want.keys()
    for name in want:
        assert got[name].dtype == want[name].dtype and got[name].tobytes() == want[name].tobytes(), name


CASES = [  # (config, batch rows, source length cap, target length cap)
    (SMOKE, 1, 3, 2),
    (SMOKE, 4, 12, 9),
    (SMOKE, 7, 30, 21),
    (TINY, 3, 9, 7),
]


class TestWorkerPath:
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("cfg, b, s, t", CASES)
    def test_gradients_are_bit_equal_to_the_single_thread_path(self, monkeypatch, on_worker, dtype, cfg, b, s, t):
        cfg = replace(cfg, dtype=dtype)
        params = randomized_params(cfg, seed=b)
        batch = tiny_batch(seed=s, b=b, s=s, t=t, cfg=cfg)
        want_loss, want = serial(monkeypatch, loss_and_grads, params, cfg, batch)
        assert on_worker == {"_weight_grad": 0, "_scatter_add_rows": 0}
        loss, grads = loss_and_grads(params, cfg, batch)
        # the output layer, then per layer the encoder's 4 + 2 and the
        # decoder's 4 + 4 + 2 weight matrices; both embedding scatters
        assert on_worker == {"_weight_grad": 1 + 2 * (4 + 2) + 2 * (4 + 4 + 2), "_scatter_add_rows": 2}
        assert loss == want_loss
        assert_same_bytes(grads, want)
        # into a caller's arena, as the trainer passes it, with stale values in it
        flat = np.full(arena(dict(params)).size, np.nan, params["embedding"].dtype)
        out = views(flat, {name: p.shape for name, p in params.items()})
        loss, grads = loss_and_grads(params, cfg, batch, out=out)
        assert loss == want_loss and grads is out
        assert_same_bytes(grads, want)

    @pytest.mark.parametrize("seed", range(3))
    def test_jittered_worker_calls_give_the_same_bytes(self, monkeypatch, on_worker, seed):
        # a random sleep before each call on the worker shifts where the two
        # threads meet; a write out of order or a buffer read while the
        # calling thread changes it would show in the bytes
        cfg = replace(SMOKE, dtype="float32" if seed % 2 else "float64")
        params = randomized_params(cfg, seed=seed)
        batch = tiny_batch(seed=seed, b=5, s=16, t=11, cfg=cfg)
        want_loss, want = serial(monkeypatch, loss_and_grads, params, cfg, batch)
        rng = SplitMix64(seed)
        for name in ("_weight_grad", "_scatter_add_rows"):
            def jittered(*args, _original=getattr(model, name)):
                if threading.current_thread() is not threading.main_thread():
                    time.sleep(rng.next_float() * 0.004)
                return _original(*args)

            monkeypatch.setattr(model, name, jittered)
        for _ in range(3):
            loss, grads = loss_and_grads(params, cfg, batch)
            assert loss == want_loss
            assert_same_bytes(grads, want)

    def test_concurrent_callers_each_get_their_own_results(self, monkeypatch, on_worker):
        # more calling threads than cores share the one worker, with a short
        # switch interval; each must get its own gradients
        cfgs = [replace(SMOKE, dtype=dt) for dt in ("float32", "float64")]
        jobs = []
        for i in range(6):
            cfg = cfgs[i % 2]
            params = randomized_params(cfg, seed=i)
            batch = tiny_batch(seed=i, b=2 + i, s=10, t=8, cfg=cfg)
            jobs.append((params, cfg, batch, serial(monkeypatch, loss_and_grads, params, cfg, batch)))
        got: dict[int, object] = {}

        def call(i):
            params, cfg, batch, _ = jobs[i]
            got[i] = [loss_and_grads(params, cfg, batch) for _ in range(3)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=call, args=(i,)) for i in range(len(jobs))]
            for th in threads:
                th.start()
            for th in threads:
                th.join(JOIN_TIMEOUT)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        for i, (_, _, _, (want_loss, want)) in enumerate(jobs):
            for loss, grads in got[i]:
                assert loss == want_loss
                assert_same_bytes(grads, want)


class TestSplitAdam:
    @staticmethod
    def state(n, dtype, seed):
        rng = SplitMix64(seed)
        p, g = (rng.next_normal_array(n).astype(dtype) for _ in range(2))
        return p, g, np.zeros_like(p), np.zeros_like(p)

    @pytest.mark.parametrize("block", [1, 7])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n", [2, 50, 1001])
    def test_a_split_step_is_bit_equal_to_a_serial_step(self, monkeypatch, block, dtype, n):
        monkeypatch.setattr(trainer, "ADAM_BLOCK", block)
        monkeypatch.setattr(worker, "MIN_SIZE", 0)
        ranges = []
        slices = trainer._adam_slices

        def recorded(p, g, m, v, start, stop, *rest):
            ranges.append((start, stop, threading.current_thread() is threading.main_thread()))
            slices(p, g, m, v, start, stop, *rest)

        monkeypatch.setattr(trainer, "_adam_slices", recorded)
        split, want = self.state(n, dtype, n), self.state(n, dtype, n)
        for t in (1, 2, 3):
            g = SplitMix64(t).next_normal_array(n).astype(dtype)
            split[1][:], want[1][:] = g, g
            optimizer_step(*split, t, 0.01)
            serial(monkeypatch, optimizer_step, *want, t, 0.01)
            for got, ref in zip(split, want):
                assert got.tobytes() == ref.tobytes(), (block, dtype, n, t)
        mid = -(-n // (2 * block)) * block  # the first slice boundary at or past the middle
        split = [(0, mid, True), (mid, n, False)] if mid < n else [(0, n, True)]
        assert sorted(ranges) == sorted(([(0, n, True)] + split) * 3)

    @pytest.mark.parametrize("block", [1, 7])
    def test_non_finite_values_in_both_halves_report_the_lower_index(self, monkeypatch, block):
        monkeypatch.setattr(trainer, "ADAM_BLOCK", block)
        monkeypatch.setattr(worker, "MIN_SIZE", 0)
        p, g, m, v = self.state(100, np.float32, 1)
        g[[5, 60, 61]] = [np.nan, np.inf, np.nan]  # 50 or 56 is the split
        with pytest.raises(NonFiniteUpdate) as info:
            optimizer_step(p, g, m, v, 1, 0.01)
        assert info.value.at == 5

    @pytest.mark.parametrize("block", [1, 7])
    def test_non_finite_values_in_the_upper_half_alone_report_its_first_index(self, monkeypatch, block):
        monkeypatch.setattr(trainer, "ADAM_BLOCK", block)
        monkeypatch.setattr(worker, "MIN_SIZE", 0)
        p, g, m, v = self.state(100, np.float32, 2)
        g[[97, 60, 61]] = [np.nan, np.inf, np.nan]
        with pytest.raises(NonFiniteUpdate) as info:
            optimizer_step(p, g, m, v, 1, 0.01)
        assert info.value.at == 60
        np.testing.assert_array_equal(np.isfinite(p[:60]), True)  # the lower half ran to its end


class TestThreadHygiene:
    def test_a_failing_worker_call_raises_after_the_earlier_ones(self, monkeypatch, on_worker):
        cfg = SMOKE
        params = randomized_params(cfg, seed=4)
        batch = tiny_batch(seed=4, b=3, s=10, t=8, cfg=cfg)
        want_loss, want = serial(monkeypatch, loss_and_grads, params, cfg, batch)
        events = []  # one per call of _weight_grad, all on the worker
        boom = RuntimeError("boom")
        weight_grad = model._weight_grad

        def failing(*args):
            n = len(events)
            events.append("started")
            if n == 3:
                events[n] = "raised"
                raise boom
            time.sleep(0.02)  # would still be running if the error were raised at once
            weight_grad(*args)
            events[n] = "done"

        monkeypatch.setattr(model, "_weight_grad", failing)
        with pytest.raises(RuntimeError) as info:
            loss_and_grads(params, cfg, batch)
        assert info.value is boom
        assert events == ["done"] * 3 + ["raised"]  # and the calls after it were skipped
        monkeypatch.setattr(model, "_weight_grad", weight_grad)
        loss, grads = loss_and_grads(params, cfg, batch)
        assert loss == want_loss
        assert_same_bytes(grads, want)

    def test_an_error_in_the_calling_thread_waits_for_the_worker(self, monkeypatch, on_worker):
        cfg = SMOKE
        params = randomized_params(cfg, seed=5)
        batch = tiny_batch(seed=5, b=3, s=10, t=8, cfg=cfg)
        running = []
        weight_grad, norm_bwd = model._weight_grad, model._rms_norm_bwd

        def slow(*args):
            running.append(1)
            time.sleep(0.01)
            weight_grad(*args)
            running.pop()

        calls = []

        def failing_norm(*args):
            calls.append(1)
            if len(calls) == 4:
                raise ValueError("calling thread")
            return norm_bwd(*args)

        monkeypatch.setattr(model, "_weight_grad", slow)
        monkeypatch.setattr(model, "_rms_norm_bwd", failing_norm)
        with pytest.raises(ValueError, match="calling thread"):
            loss_and_grads(params, cfg, batch)
        assert running == [] and on_worker["_weight_grad"] > 0

    def test_a_pretrain_and_a_finetune_run_leave_at_most_one_thread(self, tmp_path, monkeypatch, on_worker):
        before = set(threading.enumerate())
        for phase in ("pretrain", "finetune"):
            (tmp_path / phase).mkdir()
            cfg, train = phase_fixture(tmp_path / phase, phase)
            train(model.init_params(cfg, 0), TrainConfig(num_steps=3, input_len=24, target_len=24, batch_size=2),
                  "run")
        assert on_worker["_weight_grad"] > 0
        new = set(threading.enumerate()) - before
        assert len(new) <= 1
        assert all(th.name == "t2tbio-worker" and th.daemon for th in new)
        assert sum(th.name == "t2tbio-worker" for th in threading.enumerate()) == 1

    @pytest.mark.parametrize("min_size, threads", [(None, 1), (0, 2)])
    def test_the_worker_starts_only_for_work_at_the_size_rule(self, min_size, threads):
        # a fresh process: a smoke-sized step stays on the calling thread
        src = Path(model.__file__).resolve().parent.parent
        code = "\n".join([
            "import sys, threading",
            f"sys.path.insert(0, {str(src)!r})",
            "from t2tbio import worker, trainer",
            "from t2tbio.checkpoint import views",
            "from t2tbio.model import ModelConfig, init_params, loss_and_grads, make_batch",
            "import numpy as np",
            *([f"worker.MIN_SIZE = {min_size}"] if min_size is not None else []),
            "cfg = ModelConfig(vocab_size=256)",
            "params = init_params(cfg, 0)",
            "p = trainer.arena(params)",
            "_, grads = loss_and_grads(params, cfg, make_batch([([5, 6, 7], [8, 9])]))",
            "g = trainer.arena(grads)",
            "trainer.optimizer_step(p, g, np.zeros_like(p), np.zeros_like(p), 1, 1e-3)",
            "print(threading.active_count())",
        ])
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == [str(threads)]
