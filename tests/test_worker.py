"""The worker thread of a training step: with the upper half of the batch's
sequences in every forward sublayer, every gradient buffer and half of
every Adam step handed to it (``worker.MIN_SIZE`` patched to 0), results
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

from t2tbio import model, rng, trainer, worker
from t2tbio.checkpoint import views
from t2tbio.errors import ModelError
from t2tbio.model import MIN_HALF_ROWS, Batch, expected_shapes, forward, init_params, loss_and_grads
from t2tbio.rng import SplitMix64
from t2tbio.trainer import MixtureEntry, NonFiniteUpdate, TrainConfig, arena, optimizer_step

from oracles import normal_array, normal_one_shot
from reference_model import scalar_init_params
from test_model import MEDIUM, SMOKE, TINY, randomized_params, tiny_batch
from test_trainer import phase_fixture

SERIAL = 1 << 62  # a MIN_SIZE no buffer reaches: every write stays on the calling thread
JOIN_TIMEOUT = 30.0  # seconds


def on_worker_thread() -> bool:
    return threading.current_thread() is not threading.main_thread()


# the functions whose Jobs.halves are a forward sublayer, the output layer
# and the cross-entropy; the initial draws and the Adam step are left out
FORWARD_HALVES = ("_sublayer_halves", "_decode", "cross_entropy")


@pytest.fixture
def on_worker(monkeypatch):
    """Hand every forward sublayer's upper half, every gradient buffer and
    Adam's upper half to the worker, and count the calls ``_weight_grad`` and
    ``_scatter_add_rows`` run on it, and the halves (``Jobs.halves`` of a
    forward sublayer, the output layer or the cross-entropy) it runs."""
    monkeypatch.setattr(worker, "MIN_SIZE", 0)
    counts = {"_weight_grad": 0, "_scatter_add_rows": 0, "halves": 0}
    for name in ("_weight_grad", "_scatter_add_rows"):
        def counted(*args, _name=name, _original=getattr(model, name)):
            if on_worker_thread():
                counts[_name] += 1
            return _original(*args)

        monkeypatch.setattr(model, name, counted)
    halves = worker.Jobs.halves

    def counted_halves(jobs, n, fn):
        if fn.__qualname__.split(".")[0] not in FORWARD_HALVES:
            return halves(jobs, n, fn)

        def half(lo, hi):
            if on_worker_thread():
                counts["halves"] += 1
            fn(lo, hi)

        halves(jobs, n, half)

    monkeypatch.setattr(worker.Jobs, "halves", counted_halves)
    return counts


def backward_counts(counts: dict) -> dict:
    return {name: counts[name] for name in ("_weight_grad", "_scatter_add_rows")}


def serial(monkeypatch, fn, *args):
    """``fn(*args)`` with nothing handed to the worker."""
    with monkeypatch.context() as m:
        m.setattr(worker, "MIN_SIZE", SERIAL)
        return fn(*args)


def assert_same_bytes(got: dict, want: dict):
    assert got.keys() == want.keys()
    for name in want:
        assert got[name].dtype == want[name].dtype and got[name].tobytes() == want[name].tobytes(), name


def cache_arrays(node, path="cache") -> list:
    """(path, array) of every array in a forward cache, in a fixed order."""
    if isinstance(node, np.ndarray):
        return [(path, node)]
    if isinstance(node, dict):
        return [item for key in sorted(node) for item in cache_arrays(node[key], f"{path}.{key}")]
    if isinstance(node, (list, tuple)):
        return [item for i, x in enumerate(node) for item in cache_arrays(x, f"{path}[{i}]")]
    return []


def forward_with_cache(params, cfg, batch):
    """Logits and forward caches, as ``loss_and_grads`` makes them."""
    with worker.joined() as jobs:
        return model._forward_with_cache(params, cfg, batch, jobs)


def full_batch(seed, b, s, t, cfg) -> Batch:
    """``tiny_batch``'s pairs padded to exactly s input and t target columns,
    so a forward over b >= 2 of them splits when b // 2 * min(s, t) reaches
    ``MIN_HALF_ROWS``."""
    batch = tiny_batch(seed=seed, b=b, s=s, t=t, cfg=cfg)
    (_, s0), (_, t0) = batch.encoder_ids.shape, batch.target_ids.shape
    return Batch(np.pad(batch.encoder_ids, ((0, 0), (0, s - s0))), np.pad(batch.target_ids, ((0, 0), (0, t - t0))))


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
        assert on_worker == {"_weight_grad": 0, "_scatter_add_rows": 0, "halves": 0}
        loss, grads = loss_and_grads(params, cfg, batch)
        # the output layer, then per layer the encoder's 4 + 2 and the
        # decoder's 4 + 4 + 2 weight matrices; both embedding scatters
        assert backward_counts(on_worker) == {"_weight_grad": 1 + 2 * (4 + 2) + 2 * (4 + 4 + 2), "_scatter_add_rows": 2}
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
        # a random sleep before each call and forward half on the worker
        # shifts where the two threads meet; a write out of order, a row
        # written by both threads or a buffer read while the calling thread
        # changes it would show in the bytes
        cfg = replace(SMOKE, dtype="float32" if seed % 2 else "float64")
        params = randomized_params(cfg, seed=seed)
        batch = full_batch(seed=seed, b=5, s=16, t=11, cfg=cfg)
        want_logits, want_cache = serial(monkeypatch, forward_with_cache, params, cfg, batch)
        want_loss, want = serial(monkeypatch, loss_and_grads, params, cfg, batch)
        rng = SplitMix64(seed)
        for name in ("_weight_grad", "_scatter_add_rows", "_sublayer_fwd", "_ff_fwd", "_attn_fwd"):
            def jittered(*args, _original=getattr(model, name)):
                if on_worker_thread():
                    time.sleep(rng.next_float() * 0.004)
                return _original(*args)

            monkeypatch.setattr(model, name, jittered)
        for _ in range(3):
            logits, cache = forward_with_cache(params, cfg, batch)
            assert logits.tobytes() == want_logits.tobytes()
            assert [(p, t.tobytes()) for p, t in cache_arrays(cache)] == [
                (p, t.tobytes()) for p, t in cache_arrays(want_cache)]
            loss, grads = loss_and_grads(params, cfg, batch)
            assert loss == want_loss
            assert_same_bytes(grads, want)
        assert on_worker["halves"] == 3 * (11 + 12)

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


FORWARD_CASES = [  # (config, batch rows, source columns, target columns)
    (SMOKE, 1, 20, 18),  # one sequence: nothing to split
    (SMOKE, 2, 24, 17),
    (SMOKE, 3, 20, 16),  # uneven halves: 2 sequences on the calling thread, 1 on the worker
    (SMOKE, 7, 30, 21),  # 4 and 3
    (TINY, 3, 16, 16),
]


class TestSplitForward:
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("cfg, b, s, t", FORWARD_CASES)
    def test_logits_loss_and_caches_are_bit_equal_to_one_pass(self, monkeypatch, on_worker, dtype, cfg, b, s, t):
        cfg = replace(cfg, dtype=dtype)
        params = randomized_params(cfg, seed=b)
        batch = full_batch(seed=s, b=b, s=s, t=t, cfg=cfg)
        want_logits, want_cache = serial(monkeypatch, forward_with_cache, params, cfg, batch)
        want_loss, want = serial(monkeypatch, loss_and_grads, params, cfg, batch)
        assert on_worker["halves"] == 0
        logits, cache = forward_with_cache(params, cfg, batch)
        # a half of each of the 2 * 2 encoder and 2 * 3 decoder sublayers and of the output layer
        assert on_worker["halves"] == (11 if b > 1 else 0)
        assert logits.dtype == want_logits.dtype and logits.tobytes() == want_logits.tobytes()
        got, expected = cache_arrays(cache), cache_arrays(want_cache)
        assert [p for p, _ in got] == [p for p, _ in expected]
        for (path, x), (_, y) in zip(got, expected):
            assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes(), path
        assert forward(params, cfg, batch).tobytes() == want_logits.tobytes()
        on_worker["halves"] = 0
        loss, grads = loss_and_grads(params, cfg, batch)
        assert on_worker["halves"] == (11 + 1 if b > 1 else 0)  # and the cross-entropy's
        assert loss == want_loss
        assert_same_bytes(grads, want)

    @pytest.mark.parametrize("b, s, t", [(2, 15, 40), (3, 40, 15), (5, 7, 7)])
    def test_halves_of_too_few_rows_stay_on_the_calling_thread(self, monkeypatch, on_worker, b, s, t):
        # products of fewer rows may run on BLAS kernels that round
        # differently, so such a batch is not split, nor its cross-entropy;
        # its backward still goes to the worker
        assert b // 2 * min(s, t) < MIN_HALF_ROWS
        cfg = replace(SMOKE, dtype="float32")
        params = randomized_params(cfg, seed=b)
        batch = full_batch(seed=s, b=b, s=s, t=t, cfg=cfg)
        want_loss, want = serial(monkeypatch, loss_and_grads, params, cfg, batch)
        loss, grads = loss_and_grads(params, cfg, batch)
        assert on_worker["halves"] == 0
        assert backward_counts(on_worker) == {"_weight_grad": 33, "_scatter_add_rows": 2}
        assert loss == want_loss
        assert_same_bytes(grads, want)

    @staticmethod
    def overflowing(cfg, z):
        """Params under which the first encoder query of a sequence holding
        token z, and only of such a sequence, overflows: z alone has a
        non-zero first embedding column, and the query weights' first row is
        the dtype's largest value."""
        params = randomized_params(cfg, seed=3)
        params["embedding"][:, 0] = 0.0
        params["embedding"][z, 0] = 1.0
        params["enc.0.attn.wq"][0] = np.finfo(cfg.np_dtype).max
        return params

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_a_non_finite_upper_half_names_the_tensor_one_pass_names(self, monkeypatch, on_worker, dtype):
        cfg, z = replace(SMOKE, dtype=dtype), 200
        params = self.overflowing(cfg, z)
        batch = full_batch(seed=4, b=4, s=12, t=9, cfg=cfg)
        assert not (batch.encoder_ids == z).any()
        batch.encoder_ids[3, 0] = z  # sequence 3 is in the worker's half
        message = "numeric overflow: non-finite logits; first non-finite tensor: enc.0.attn.q"
        with np.errstate(all="ignore"):
            with pytest.raises(ModelError) as info:
                serial(monkeypatch, loss_and_grads, params, cfg, batch)
            assert str(info.value) == message
            with pytest.raises(ModelError) as info:
                loss_and_grads(params, cfg, batch)
        assert str(info.value) == message
        assert on_worker["halves"] == 11  # the whole forward ran split

    def test_the_worker_half_runs_under_the_callers_numpy_error_state(self, monkeypatch, on_worker):
        # the overflow happens in the worker's half alone, so only an error
        # state that follows the call there raises it
        cfg, z = replace(SMOKE, dtype="float32"), 200
        params = self.overflowing(cfg, z)
        batch = full_batch(seed=4, b=4, s=12, t=9, cfg=cfg)
        batch.encoder_ids[3, 0] = z
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            serial(monkeypatch, forward, params, cfg, batch)
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            forward(params, cfg, batch)
        assert on_worker["halves"] == 1  # the first sublayer's, which raised

    @pytest.mark.parametrize("min_size", [SERIAL, 0])
    def test_a_non_finite_upper_half_at_step_1_names_the_step_and_the_tensor(self, monkeypatch, on_worker, min_size):
        # the trainer's own message, with Adam patched out so the params
        # stay as set: step 0's batch is finite, step 1's holds z in the
        # worker's half
        monkeypatch.setattr(worker, "MIN_SIZE", min_size)
        monkeypatch.setattr(trainer, "optimizer_step", lambda *args: None)
        cfg, z = replace(SMOKE, dtype="float32"), 200
        params = self.overflowing(cfg, z)
        samples = []

        def make(rng, item):  # sample k is row k % 4 of step k // 4's batch
            step, row = divmod(len(samples), 4)
            batch = full_batch(seed=step, b=4, s=12, t=9, cfg=cfg)
            if step:
                batch.encoder_ids[3, 0] = z
            samples.append(1)
            return list(batch.encoder_ids[row]), list(batch.target_ids[row])

        with np.errstate(all="ignore"), pytest.raises(ModelError) as info:
            trainer._train(params, cfg, TrainConfig(num_steps=3, batch_size=4), [MixtureEntry("only", "only.jsonl")],
                           [[None]], make, None, None)
        assert str(info.value) == (
            "step 1: numeric overflow: non-finite logits; first non-finite tensor: enc.0.attn.q"
        )
        # step 0's forward and cross-entropy, then step 1's forward
        assert on_worker["halves"] == (11 + 1 + 11 if min_size == 0 else 0)


class TestSplitAdam:
    @staticmethod
    def state(n, dtype, seed):
        rng = SplitMix64(seed)
        p, g = (normal_array(rng, n).astype(dtype) for _ in range(2))
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
            g = normal_array(SplitMix64(t), n).astype(dtype)
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


class TestSplitInit:
    @pytest.mark.parametrize("seed", [0, -1, 2**64 - 5])
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_every_medium_tensor_is_the_one_shot_draw_at_its_offset(self, monkeypatch, dtype, seed):
        # a random sleep before each block the worker draws shifts where the
        # two threads meet; a block drawn from the wrong stream state, drawn
        # by both threads or through scratch the other thread writes would
        # show in the bytes
        cfg = replace(MEDIUM, dtype=dtype)
        jitter, threads = SplitMix64(seed), set()
        mix = rng._mix

        def jittered(*args):
            threads.add(threading.current_thread().name)
            if on_worker_thread():
                time.sleep(jitter.next_float() * 0.004)
            mix(*args)

        monkeypatch.setattr(rng, "_mix", jittered)
        params = init_params(cfg, seed)
        monkeypatch.setattr(rng, "_mix", mix)
        assert threads == {"MainThread", "t2tbio-worker"}
        want = scalar_init_params(expected_shapes(cfg), cfg, seed, draw=normal_one_shot)
        assert_same_bytes(params, want)


def record(ranges):
    """A ``fn(lo, hi)`` that appends (lo, hi, whether it ran on the worker) to ``ranges``."""
    return lambda lo, hi: ranges.append((lo, hi, on_worker_thread()))


class TestJobs:
    @pytest.mark.parametrize("n, want", [
        (0, [(0, 0, False)]),
        (1, [(0, 1, False)]),
        (2, [(0, 1, False), (1, 2, True)]),
        (7, [(0, 4, False), (4, 7, True)]),  # the calling thread takes the larger half
    ])
    def test_halves_give_the_worker_the_upper_smaller_half(self, n, want):
        ranges = []
        worker.Jobs().halves(n, record(ranges))
        assert sorted(ranges) == want

    @pytest.mark.parametrize("n", [0, 1, 2, 7])
    def test_serial_halves_are_one_call_on_the_calling_thread(self, n):
        ranges = []
        with worker.joined(worker.MIN_SIZE - 1) as jobs:
            assert jobs is worker.SERIAL and not jobs.threaded
            jobs.halves(n, record(ranges))
        assert ranges == [(0, n, False)]

    def test_serial_submit_runs_on_the_calling_thread_and_raises_there(self):
        ran, boom = [], RuntimeError("serial")

        def failing(x):
            ran.append((x, on_worker_thread()))
            raise boom

        with pytest.raises(RuntimeError) as info:
            worker.SERIAL.submit(failing, 5)
        assert info.value is boom and ran == [(5, False)]
        worker.SERIAL.join()  # nothing was handed over, so nothing is raised again
        assert worker.SERIAL.error is None

    def test_an_error_in_the_callers_half_waits_for_the_workers(self):
        done = []

        def halves_apart(lo, hi):
            if not on_worker_thread():
                raise ValueError("calling thread")
            time.sleep(0.05)
            done.append((lo, hi))

        with pytest.raises(ValueError, match="calling thread"):
            worker.Jobs().halves(7, halves_apart)
        assert done == [(4, 7)]

    def test_an_error_in_the_workers_half_is_raised_after_the_callers_half(self):
        done, boom = [], RuntimeError("worker")

        def halves_apart(lo, hi):
            if on_worker_thread():
                raise boom
            time.sleep(0.05)
            done.append((lo, hi))

        with pytest.raises(RuntimeError) as info:
            worker.Jobs().halves(2, halves_apart)
        assert info.value is boom and done == [(0, 1)]

    def test_a_medium_step_hands_the_worker_the_same_calls_and_markers(self, monkeypatch):
        # per step, one marker for each forward sublayer (2 * 2 encoder and
        # 2 * 3 decoder), the output layer and the cross-entropy, one when
        # loss_and_grads joins its backward calls and one for the Adam step;
        # a second wait with nothing handed over since sends none
        cfg = MEDIUM
        params = init_params(cfg, 0)
        batch = full_batch(seed=1, b=4, s=12, t=9, cfg=cfg)
        p = arena(params)
        g = np.empty_like(p)
        grads = views(g, {name: t.shape for name, t in params.items()})
        m, v = np.zeros_like(p), np.zeros_like(p)
        counts = {"calls": 0, "markers": 0}
        make_queue = worker._queue

        class Counted:
            def __init__(self, tasks):
                self.tasks = tasks

            def put(self, item):
                counts["markers" if item[0] is None else "calls"] += 1
                self.tasks.put(item)

        monkeypatch.setattr(worker, "_queue", lambda: Counted(make_queue()))
        for _ in range(2):
            loss_and_grads(params, cfg, batch, out=grads)
            optimizer_step(p, g, m, v, 1, 1e-3)
        # per step: 12 halves, 21 calls of the 33 weight-gradient products
        # (the output layer's, and per sublayer one for the products that
        # read its norm's output and one for wo's or w2's), 2 embedding
        # scatters and an Adam half
        assert counts == {"calls": 2 * (12 + 1 + 10 * 2 + 2 + 1), "markers": 2 * (12 + 1 + 1)}


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

    def test_an_error_in_the_workers_forward_half_reaches_the_caller(self, monkeypatch, on_worker):
        cfg = SMOKE
        params = randomized_params(cfg, seed=6)
        batch = full_batch(seed=6, b=4, s=12, t=9, cfg=cfg)
        want_loss, want = serial(monkeypatch, loss_and_grads, params, cfg, batch)
        boom = RuntimeError("worker half")
        ff_fwd = model._ff_fwd

        def failing(*args):
            if on_worker_thread():
                raise boom
            return ff_fwd(*args)

        monkeypatch.setattr(model, "_ff_fwd", failing)
        with pytest.raises(RuntimeError) as info:
            loss_and_grads(params, cfg, batch)
        assert info.value is boom
        assert on_worker["_weight_grad"] == 0  # the step stopped in its forward
        monkeypatch.setattr(model, "_ff_fwd", ff_fwd)
        loss, grads = loss_and_grads(params, cfg, batch)
        assert loss == want_loss
        assert_same_bytes(grads, want)

    def test_an_error_in_the_callers_forward_half_waits_for_the_workers(self, monkeypatch, on_worker):
        # the worker's half writes the caller's arrays, so it must be done
        # before the error leaves loss_and_grads
        cfg = SMOKE
        params = randomized_params(cfg, seed=7)
        batch = full_batch(seed=7, b=4, s=12, t=9, cfg=cfg)
        running, done = [], []
        attn_fwd = model._attn_fwd

        def halves_apart(*args):
            if not on_worker_thread():
                raise ValueError("calling thread")
            running.append(1)
            time.sleep(0.05)
            out = attn_fwd(*args)
            running.pop()
            done.append(1)
            return out

        monkeypatch.setattr(model, "_attn_fwd", halves_apart)
        with pytest.raises(ValueError, match="calling thread"):
            loss_and_grads(params, cfg, batch)
        assert running == [] and done == [1]

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

    @staticmethod
    def fresh_process(lines: list[str]) -> str:
        """What ``lines`` print, run as a program in a fresh process."""
        src = Path(model.__file__).resolve().parent.parent
        code = "\n".join([f"import sys; sys.path.insert(0, {str(src)!r})", *lines])
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    def threads_after(self, min_size, work: list[str]) -> int:
        """Threads alive in a fresh process once ``work`` has run on a
        smoke-sized model, with ``worker.MIN_SIZE`` set to ``min_size``
        after ``init_params``."""
        return int(self.fresh_process([
            "import threading",
            "from t2tbio import worker, trainer",
            "from t2tbio.model import ModelConfig, forward, greedy_decode, init_params, loss_and_grads, make_batch",
            "import numpy as np",
            "cfg = ModelConfig(vocab_size=256)",
            "params = init_params(cfg, 0)",
            *([f"worker.MIN_SIZE = {min_size}"] if min_size is not None else []),
            *work,
            "print(threading.active_count())",
        ]))

    @pytest.mark.parametrize("d_model, workers", [(256, 1), (64, 0)])
    def test_init_params_starts_the_worker_only_for_a_model_at_the_size_rule(self, d_model, workers):
        # the smallest weight matrix of the d=256 model has 65536 elements,
        # MIN_SIZE, and the d=64 model's 4096
        names = self.fresh_process([
            "import threading",
            "from t2tbio.model import ModelConfig, init_params",
            f"init_params(ModelConfig(vocab_size=4096, d_model={d_model}, d_ff={4 * d_model}), 0)",
            "print(*sorted(th.name for th in threading.enumerate()))",
        ]).split()
        assert names == ["MainThread"] + ["t2tbio-worker"] * workers

    @pytest.mark.parametrize("min_size, threads", [(None, 1), (8192, 1), (0, 2)])
    def test_the_worker_starts_only_for_work_at_the_size_rule(self, min_size, threads):
        # a smoke-sized step stays on the calling thread. At MIN_SIZE 8192
        # its feed-forward and embedding matrices reach the size but its
        # 4096-element attention matrices do not, so loss_and_grads starts
        # no thread; Adam's upper half, 50176 of its 181248 elements, does
        grads = "_, grads = loss_and_grads(params, cfg, make_batch([([5, 6, 7], [8, 9])]))"
        assert self.threads_after(min_size, [grads]) == threads
        assert self.threads_after(min_size, [
            "p = trainer.arena(params)",
            grads,
            "g = trainer.arena(grads)",
            "trainer.optimizer_step(p, g, np.zeros_like(p), np.zeros_like(p), 1, 1e-3)",
        ]) == (2 if min_size == 8192 else threads)

    @pytest.mark.parametrize("min_size, threads", [(None, 1), (8192, 1), (0, 2)])
    def test_a_forward_starts_the_worker_only_at_the_size_rule(self, min_size, threads):
        # four sequences of 20 tokens a side: enough rows to split at MIN_SIZE 0
        assert self.threads_after(min_size, [
            "forward(params, cfg, make_batch([(list(range(3, 23)), list(range(30, 50)))] * 4))",
        ]) == threads

    @pytest.mark.parametrize("min_size", [None, 0])
    def test_greedy_decoding_starts_no_thread(self, min_size):
        # one sequence: nothing to split at any size
        assert self.threads_after(min_size, ["greedy_decode(params, cfg, list(range(3, 23)), 20)"]) == 1
