import json
import math

import numpy as np
import pytest

from t2tbio.checkpoint import AdamState, load_checkpoint, save_checkpoint
from t2tbio.corruption import SpanCorruptionConfig
from t2tbio.data_io import write_task_examples
from t2tbio.errors import CheckpointError, ConfigError
from t2tbio.model import ModelConfig, init_params
from t2tbio.rng import SplitMix64
from t2tbio.task_codec import TaskExample
from t2tbio.trainer import (
    CorpusEntry,
    MixtureEntry,
    TrainConfig,
    finetune,
    load_corpus_windows,
    optimizer_step,
    pretrain,
    validate_mixture,
    weighted_index,
)
from t2tbio.vocab import train_vocab

from helpers import word_vocab

def small_cfg(vocab_size):
    return ModelConfig(
        vocab_size=vocab_size,
        d_model=16,
        n_heads=2,
        d_ff=32,
        n_encoder_layers=1,
        n_decoder_layers=1,
        rel_pos_buckets=8,
        rel_pos_max_distance=16,
        max_seq_len=64,
    )


class TestAdam:
    def test_hand_computed_single_step(self):
        # quadratic f(w) = w^2 / 2 at w=2 -> grad 2
        params = {"w": np.array([2.0])}
        grads = {"w": np.array([2.0])}
        state = AdamState()
        lr = 0.001
        optimizer_step(params, grads, state, lr)
        m = 0.1 * 2.0
        v = 0.001 * 4.0
        m_hat = m / (1 - 0.9)
        v_hat = v / (1 - 0.999)
        expected = 2.0 - lr * m_hat / (math.sqrt(v_hat) + 1e-8)
        assert abs(params["w"][0] - expected) < 1e-15
        assert state.step == 1

    def test_zero_grads_freeze_params_but_advance_step(self):
        params = {"w": np.array([1.5, -2.0])}
        state = AdamState()
        optimizer_step(params, {"w": np.zeros(2)}, state, lr=0.01)
        np.testing.assert_array_equal(params["w"], [1.5, -2.0])
        assert state.step == 1

    def test_bit_equal_to_the_plain_expression(self):
        def plain_step(params, grads, state, lr, beta1=0.9, beta2=0.999, eps=1e-8):
            state.step += 1
            bc1 = 1.0 - beta1**state.step
            bc2 = 1.0 - beta2**state.step
            for name, g in grads.items():
                m = state.m.setdefault(name, np.zeros_like(params[name]))
                v = state.v.setdefault(name, np.zeros_like(params[name]))
                m *= beta1
                m += (1.0 - beta1) * g
                v *= beta2
                v += (1.0 - beta2) * (g * g)
                params[name] -= (lr / bc1) * m / (np.sqrt(v / bc2) + eps)

        cfg = small_cfg(31)
        params = init_params(cfg, seed=3)
        reference = {k: x.copy() for k, x in params.items()}
        state, ref_state = AdamState(), AdamState()
        rng = SplitMix64(11)
        for _ in range(3):
            grads = {k: (rng.next_normal_array(x.size) * 0.1).astype(x.dtype).reshape(x.shape)
                     for k, x in params.items()}
            snapshot = {k: g.copy() for k, g in grads.items()}
            optimizer_step(params, grads, state, lr=0.01)
            plain_step(reference, grads, ref_state, lr=0.01)
            for name in params:
                assert grads[name].tobytes() == snapshot[name].tobytes(), name
                assert params[name].tobytes() == reference[name].tobytes(), name
                assert state.m[name].tobytes() == ref_state.m[name].tobytes(), name
                assert state.v[name].tobytes() == ref_state.v[name].tobytes(), name
        assert state.step == ref_state.step == 3

    def test_zero_lr_freezes_params(self):
        params = {"w": np.array([1.0])}
        state = AdamState()
        optimizer_step(params, {"w": np.array([3.0])}, state, lr=0.0)
        assert params["w"][0] == 1.0


class TestSampling:
    def test_empirical_frequencies_match_weights(self):
        rng = SplitMix64(0)
        weights = [1.0, 3.0, 6.0]
        counts = [0, 0, 0]
        n = 10_000
        for _ in range(n):
            counts[weighted_index(rng, weights)] += 1
        for c, w in zip(counts, weights):
            assert abs(c / n - w / 10.0) < 0.02

    def test_zero_weight_never_sampled(self):
        rng = SplitMix64(1)
        for _ in range(2000):
            assert weighted_index(rng, [1.0, 0.0]) == 0

    def test_mixture_validation(self):
        with pytest.raises(ConfigError, match="at least one task"):
            validate_mixture([])
        with pytest.raises(ConfigError, match="unique"):
            validate_mixture([MixtureEntry("a", "p"), MixtureEntry("a", "q")])
        with pytest.raises(ConfigError, match="positive"):
            validate_mixture([MixtureEntry("a", "p", weight=0.0)])


class TestWindowing:
    def test_windows_and_short_remainder_dropped(self, tmp_path):
        v = word_vocab([f"w{i}" for i in range(30)])
        line = " ".join(f"w{i % 30}" for i in range(50))  # 50 tokens
        path = tmp_path / "c.txt"
        path.write_text(line + "\n", encoding="utf-8")
        windows = load_corpus_windows([CorpusEntry(str(path))], v, input_len=20)
        # 50 = 20 + 20 + 10; the 10-token remainder is dropped (< 16)
        assert [len(w) for w in windows[0]] == [20, 20]

    def test_remainder_kept_at_min_window(self, tmp_path):
        v = word_vocab([f"w{i}" for i in range(30)])
        line = " ".join(f"w{i % 30}" for i in range(36))
        path = tmp_path / "c.txt"
        path.write_text(line + "\n", encoding="utf-8")
        windows = load_corpus_windows([CorpusEntry(str(path))], v, input_len=20)
        assert [len(w) for w in windows[0]] == [20, 16]

    def test_unreadable_corpus_fails_fast(self, tmp_path):
        v = word_vocab(["a"])
        with pytest.raises(ConfigError, match="unreadable"):
            load_corpus_windows([CorpusEntry(str(tmp_path / "missing.txt"))], v, input_len=8)

    def test_empty_corpus_fails_fast(self, tmp_path):
        v = word_vocab(["a"])
        path = tmp_path / "tiny.txt"
        path.write_text("a\n", encoding="utf-8")  # 2 tokens < min window
        with pytest.raises(ConfigError, match="no usable windows"):
            load_corpus_windows([CorpusEntry(str(path))], v, input_len=8)


def corpus_fixture(tmp_path, n_lines=8, words_per_line=20):
    words = [f"w{i}" for i in range(25)]
    rng = SplitMix64(5)
    lines = [
        " ".join(words[rng.next_below(25)] for _ in range(words_per_line)) for _ in range(n_lines)
    ]
    path = tmp_path / "corpus.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    v = train_vocab(lines, target_size=120, num_sentinels=16)
    return path, v


class TestPretrain:
    def test_zero_steps_returns_params_unchanged(self, tmp_path):
        path, v = corpus_fixture(tmp_path)
        cfg = small_cfg(v.size)
        params = init_params(cfg, seed=0)
        before = {k: p.copy() for k, p in params.items()}
        result = pretrain(
            cfg,
            params,
            [CorpusEntry(str(path))],
            SpanCorruptionConfig(max_sentinels=14),
            TrainConfig(num_steps=0, input_len=24, target_len=24, batch_size=2),
            v,
        )
        for name in before:
            np.testing.assert_array_equal(result.params[name], before[name])

    def test_zero_weight_corpus_never_sampled(self, tmp_path):
        path_a, v = corpus_fixture(tmp_path)
        path_b = tmp_path / "other.txt"
        path_b.write_text(path_a.read_text(encoding="utf-8"), encoding="utf-8")
        cfg = small_cfg(v.size)
        params = init_params(cfg, seed=0)
        result = pretrain(
            cfg,
            params,
            [CorpusEntry(str(path_a), 1.0), CorpusEntry(str(path_b), 0.0)],
            SpanCorruptionConfig(max_sentinels=14),
            TrainConfig(num_steps=6, input_len=24, target_len=24, batch_size=2),
            v,
        )
        assert result.sample_counts["corpus"] == 6
        assert result.sample_counts["other"] == 0

    def test_deterministic_given_seed(self, tmp_path):
        path, v = corpus_fixture(tmp_path)
        cfg = small_cfg(v.size)
        t_cfg = TrainConfig(num_steps=4, input_len=24, target_len=24, batch_size=2, seed=3)
        results = []
        for _ in range(2):
            params = init_params(cfg, seed=1)
            r = pretrain(cfg, params, [CorpusEntry(str(path))], SpanCorruptionConfig(max_sentinels=14), t_cfg, v)
            results.append(r)
        assert results[0].losses == results[1].losses
        for name in results[0].params:
            np.testing.assert_array_equal(results[0].params[name], results[1].params[name])


class TestFinetune:
    def make_dataset(self, tmp_path, name, n=6):
        examples = [
            TaskExample(
                task_name=name,
                input_text=f"{name}: w{i} w{i + 1}",
                target_text=f"w{i} w{i + 1}",
                gold={},
            )
            for i in range(n)
        ]
        path = tmp_path / f"{name}.jsonl"
        write_task_examples(path, examples)
        return MixtureEntry(name, str(path))

    def test_empty_mixture_rejected(self, tmp_path):
        v = word_vocab(["a"])
        cfg = small_cfg(v.size)
        with pytest.raises(ConfigError, match="at least one task"):
            finetune(init_params(cfg, 0), [], cfg, TrainConfig(num_steps=1), v)

    def test_runs_and_logs_curves(self, tmp_path):
        words = [f"w{i}" for i in range(10)] + ["copy:", "other:"]
        v = word_vocab(words)
        cfg = small_cfg(v.size)
        mixture = [self.make_dataset(tmp_path, "copy"), self.make_dataset(tmp_path, "other")]
        t_cfg = TrainConfig(num_steps=8, batch_size=2, input_len=16, target_len=16, seed=0)
        result = finetune(init_params(cfg, 0), mixture, cfg, t_cfg, v)
        assert len(result.losses) == 8
        assert sum(result.sample_counts.values()) == 8
        assert set(result.loss_curves) == {"copy", "other"}

    def test_over_length_targets_dropped(self, tmp_path):
        words = [f"w{i}" for i in range(10)] + ["t:"]
        v = word_vocab(words)
        cfg = small_cfg(v.size)
        long_target = " ".join(f"w{i % 10}" for i in range(30))
        examples = [
            TaskExample(task_name="t", input_text="t: w1", target_text="w1", gold={}),
            TaskExample(task_name="t", input_text="t: w2", target_text=long_target, gold={}),
        ]
        path = tmp_path / "t.jsonl"
        write_task_examples(path, examples)
        t_cfg = TrainConfig(num_steps=1, batch_size=2, input_len=16, target_len=8, seed=0)
        result = finetune(init_params(cfg, 0), [MixtureEntry("t", str(path))], cfg, t_cfg, v)
        assert result.dropped["t"] == 1


class TestCheckpointing:
    def test_save_load_bit_exact(self, tmp_path):
        cfg = small_cfg(31)
        params = init_params(cfg, seed=4)
        state = AdamState(step=7)
        state.m = {k: np.full_like(x, 0.5) for k, x in params.items()}
        state.v = {k: np.full_like(x, 0.25) for k, x in params.items()}
        save_checkpoint(tmp_path / "ck", params, cfg, opt_state=state, rng_state=123, step=7)
        loaded, loaded_cfg, manifest = load_checkpoint(tmp_path / "ck")
        assert loaded_cfg == cfg
        for name in params:
            assert loaded[name].tobytes() == params[name].tobytes()
        assert manifest["step"] == 7

    def test_blobs_are_tensor_bytes_in_name_order(self, tmp_path):
        cfg = small_cfg(31)
        params = init_params(cfg, seed=4)
        state = AdamState(step=2)
        state.m = {k: np.full_like(x, 0.5) + x for k, x in params.items()}
        state.v = {k: x * x for k, x in params.items()}
        save_checkpoint(tmp_path / "ck", params, cfg, opt_state=state)
        opt = {f"m.{k}": x for k, x in state.m.items()} | {f"v.{k}": x for k, x in state.v.items()}
        for blob, tensors in (("weights.bin", params), ("optimizer.bin", opt)):
            expected = b"".join(tensors[name].astype("<f4").tobytes() for name in sorted(tensors))
            assert (tmp_path / "ck" / blob).read_bytes() == expected

    def test_non_finite_rejected_on_load(self, tmp_path):
        cfg = small_cfg(31)
        params = init_params(cfg, seed=4)
        params["enc.norm"][0] = np.inf
        save_checkpoint(tmp_path / "ck", params, cfg)
        with pytest.raises(CheckpointError, match="non-finite"):
            load_checkpoint(tmp_path / "ck")

    @pytest.mark.parametrize(
        "mutate, file, names",
        [
            pytest.param(lambda m: m["model"].update(bogus=1), "manifest.json", "bogus", id="unknown-model-key"),
            pytest.param(lambda m: m.pop("model"), "manifest.json", "model", id="no-model"),
            pytest.param(lambda m: m["model"].update(vocab_size="31"), "manifest.json", "model config",
                         id="string-vocab-size"),
            pytest.param(lambda m: m.update(step=-1), "manifest.json", "step", id="negative-step"),
            pytest.param(lambda m: m.pop("tensors"), "weights.bin", "tensor list", id="no-tensors"),
            pytest.param(lambda m: m["tensors"][3].update(shape=[17]), "weights.bin", "dec.0.cross.wq",
                         id="shape-disagrees-with-nbytes"),
            pytest.param(lambda m: m["tensors"][3].update(shape=[16, -16]), "weights.bin", "dec.0.cross.wq",
                         id="negative-dim"),
            pytest.param(lambda m: m["tensors"][3].update(offset="0"), "weights.bin", "dec.0.cross.wq",
                         id="string-offset"),
            pytest.param(lambda m: m["tensors"][3].update(nbytes=True), "weights.bin", "dec.0.cross.wq",
                         id="bool-nbytes"),
            pytest.param(lambda m: m["tensors"][3].update(dtype="<i4"), "weights.bin", "dec.0.cross.wq",
                         id="int-dtype"),
            pytest.param(lambda m: m["tensors"][3].pop("name"), "weights.bin", "manifest entry", id="no-name"),
            pytest.param(lambda m: m["tensors"].append(dict(m["tensors"][3])), "weights.bin", "dec.0.cross.wq",
                         id="duplicate-tensor"),
            pytest.param(lambda m: m["optimizer"].update(step="7"), "optimizer.bin", "optimizer record",
                         id="string-optimizer-step"),
            pytest.param(lambda m: m["optimizer"]["tensors"][0].update(offset=-4), "optimizer.bin",
                         "m.dec.0.cross.norm", id="negative-optimizer-offset"),
        ],
    )
    def test_mutated_manifest_raises_checkpoint_error(self, tmp_path, mutate, file, names):
        from t2tbio.checkpoint import load_optimizer

        cfg = small_cfg(31)
        params = init_params(cfg, seed=4)
        state = AdamState(step=7, m={k: x * 0.5 for k, x in params.items()},
                          v={k: x * x for k, x in params.items()})
        save_checkpoint(tmp_path / "ck", params, cfg, opt_state=state, rng_state=123, step=7)
        path = tmp_path / "ck" / "manifest.json"
        manifest = json.loads(path.read_text(encoding="utf-8"))
        mutate(manifest)
        path.write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(CheckpointError) as info:
            _, _, loaded = load_checkpoint(tmp_path / "ck")
            load_optimizer(tmp_path / "ck", loaded)
        message = str(info.value)
        assert str(tmp_path / "ck" / file) in message and names in message, message

    @pytest.mark.parametrize("payload", ['{"algo": "splitmix64", "state": "12"}', '[1]', '{"state": 12}'])
    def test_malformed_rng_state_raises_checkpoint_error(self, tmp_path, payload):
        from t2tbio.checkpoint import load_rng_state

        (tmp_path / "rng_state").write_text(payload, encoding="utf-8")
        with pytest.raises(CheckpointError, match="rng_state"):
            load_rng_state(tmp_path)

    def test_resume_equivalence(self, tmp_path):
        path, v = corpus_fixture(tmp_path)
        cfg = small_cfg(v.size)
        corr = SpanCorruptionConfig(max_sentinels=14)

        full_cfg = TrainConfig(num_steps=10, input_len=24, target_len=24, batch_size=2, seed=9)
        full = pretrain(
            cfg, init_params(cfg, 2), [CorpusEntry(str(path))], corr, full_cfg, v,
            out_dir=str(tmp_path / "full"),
        )

        part_cfg = TrainConfig(
            num_steps=6, input_len=24, target_len=24, batch_size=2, seed=9, checkpoint_every=6
        )
        pretrain(
            cfg, init_params(cfg, 2), [CorpusEntry(str(path))], corr, part_cfg, v,
            out_dir=str(tmp_path / "part"),
        )
        resumed = pretrain(
            cfg, None, [CorpusEntry(str(path))], corr, full_cfg, v,
            out_dir=str(tmp_path / "resumed"),
            resume=str(tmp_path / "part" / "step_000006"),
        )
        for name in full.params:
            np.testing.assert_array_equal(full.params[name], resumed.params[name])
        full_bytes = (tmp_path / "full" / "final" / "weights.bin").read_bytes()
        resumed_bytes = (tmp_path / "resumed" / "final" / "weights.bin").read_bytes()
        assert full_bytes == resumed_bytes

    def test_log_line_format(self, tmp_path, caplog):
        import logging
        import re

        path, v = corpus_fixture(tmp_path)
        cfg = small_cfg(v.size)
        with caplog.at_level(logging.INFO, logger="t2tbio.trainer"):
            pretrain(
                cfg,
                init_params(cfg, 0),
                [CorpusEntry(str(path))],
                SpanCorruptionConfig(max_sentinels=14),
                TrainConfig(num_steps=2, input_len=24, target_len=24, batch_size=2),
                v,
            )
        step_lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("step=")]
        assert len(step_lines) == 2
        for line in step_lines:
            assert re.fullmatch(r"step=\d+ task=\S+ loss=\d+\.\d+", line), line

    def test_loss_curve_persisted(self, tmp_path):
        path, v = corpus_fixture(tmp_path)
        cfg = small_cfg(v.size)
        out = tmp_path / "run"
        pretrain(
            cfg,
            init_params(cfg, 0),
            [CorpusEntry(str(path))],
            SpanCorruptionConfig(max_sentinels=14),
            TrainConfig(num_steps=3, input_len=24, target_len=24, batch_size=2),
            v,
            out_dir=str(out),
        )
        curve = json.loads((out / "loss_curve.json").read_text(encoding="utf-8"))
        assert len(curve["losses"]) == 3
