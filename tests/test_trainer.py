import hashlib
import itertools
import json
import math
from dataclasses import dataclass, field, replace

import numpy as np
import pytest

from t2tbio.checkpoint import load_checkpoint, load_optimizer, save_checkpoint, views
from t2tbio.corruption import SpanCorruptionConfig, max_spans
from t2tbio.data_io import write_json, write_task_examples
from t2tbio.errors import CheckpointError, ConfigError, DataFormatError, ModelError
from t2tbio import checkpoint, cli, trainer
from t2tbio.model import ModelConfig, init_params
from t2tbio.rng import SplitMix64
from t2tbio.task_codec import TaskExample
from t2tbio.trainer import (
    CorpusEntry,
    MixtureEntry,
    TrainConfig,
    arena,
    finetune,
    load_corpus_windows,
    optimizer_step,
    pretrain,
    weighted_index,
)
from t2tbio.vocab import train_vocab

from helpers import (
    CHECKPOINT_PARTS,
    adam_moments,
    optimizer_tensors,
    remove_checkpoint_part,
    word_vocab,
    write_optimizer,
)
from oracles import normal_array


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


@pytest.mark.parametrize("rate", [math.inf, math.nan, -1.0])
def test_learning_rate_must_be_finite_and_non_negative(rate):
    with pytest.raises(ConfigError, match="learning_rate"):
        TrainConfig(learning_rate=rate)


class TestAdam:
    def test_hand_computed_single_step(self):
        # quadratic f(w) = w^2 / 2 at w=2 -> grad 2
        p, g, m, v = np.array([2.0]), np.array([2.0]), np.zeros(1), np.zeros(1)
        lr = 0.001
        optimizer_step(p, g, m, v, 1, lr)
        m_expected = 0.1 * 2.0
        v_expected = 0.001 * 4.0
        m_hat = m_expected / (1 - 0.9)
        v_hat = v_expected / (1 - 0.999)
        expected = 2.0 - lr * m_hat / (math.sqrt(v_hat) + 1e-8)
        assert abs(p[0] - expected) < 1e-15
        assert m[0] == pytest.approx(m_expected) and v[0] == pytest.approx(v_expected)

    def test_zero_grads_freeze_params_but_advance_step(self):
        # the caller advances the step: steps 1 and 2 of zero gradients
        p, m, v = np.array([1.5, -2.0]), np.zeros(2), np.zeros(2)
        for t in (1, 2):
            optimizer_step(p, np.zeros(2), m, v, t, lr=0.01)
            np.testing.assert_array_equal(p, [1.5, -2.0])
            np.testing.assert_array_equal(m, [0.0, 0.0])
            np.testing.assert_array_equal(v, [0.0, 0.0])

    def test_bit_equal_to_the_plain_expression(self, tmp_path, monkeypatch):
        @dataclass
        class PlainState:
            """The oracle's own step count and per-tensor moments."""

            step: int = 0
            m: dict = field(default_factory=dict)
            v: dict = field(default_factory=dict)

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

        # blocks of 1 and 7 elements make slices straddle every tensor's ends;
        # "loaded" moments come from one plain step through a checkpoint
        cases = itertools.product([trainer.ADAM_BLOCK, 1, 7], ["float32", "float64"], ["fresh", "loaded"])
        for case in cases:
            block, dtype, moments = case
            monkeypatch.setattr(trainer, "ADAM_BLOCK", block)
            cfg = replace(small_cfg(31), dtype=dtype)
            params = init_params(cfg, seed=3)
            shapes = {k: x.shape for k, x in params.items()}
            rng = SplitMix64(11)

            def draw_grads():
                return {k: (normal_array(rng, x.size) * 0.1).astype(x.dtype).reshape(x.shape)
                        for k, x in params.items()}

            p = arena(params)
            ref_state = PlainState()
            if moments == "loaded":
                ckpt = tmp_path / f"{block}-{dtype}"
                plain_step(params, draw_grads(), ref_state, lr=0.01)
                saved = adam_moments(params, ref_state.m, ref_state.v)
                save_checkpoint(ckpt, params, cfg, saved, rng_state=0, step=1)
                m, v = load_optimizer(ckpt, load_checkpoint(ckpt)[2])
            else:
                m, v = np.zeros_like(p), np.zeros_like(p)
            reference = {k: x.copy() for k, x in params.items()}
            for _ in range(3):
                g = arena(draw_grads())
                snapshot = g.copy()
                optimizer_step(p, g, m, v, ref_state.step + 1, lr=0.01)
                plain_step(reference, views(snapshot, shapes), ref_state, lr=0.01)
                assert g.tobytes() == snapshot.tobytes(), case
                m_views, v_views = views(m, shapes), views(v, shapes)
                for name in params:
                    assert params[name].tobytes() == reference[name].tobytes(), (case, name)
                    assert m_views[name].tobytes() == ref_state.m[name].tobytes(), (case, name)
                    assert v_views[name].tobytes() == ref_state.v[name].tobytes(), (case, name)
            assert ref_state.step == 3 + (moments == "loaded"), case

    def test_updates_in_place_and_returns_none(self):
        # every step updates the arrays it is given, and so every view of them
        params = {"w": np.array([2.0]), "b": np.array([[1.0, -1.0]])}
        p = arena(params)
        laid_out = dict(params)
        g, m, v = np.array([0.5, -0.5, 1.0]), np.zeros(3), np.zeros(3)
        w = params["w"][0]
        for t in (1, 2, 3):
            assert optimizer_step(p, g, m, v, t, lr=0.1) is None
            assert all(params[name] is laid_out[name] and params[name].base is p for name in params)
        np.testing.assert_array_equal(g, [0.5, -0.5, 1.0])
        assert params["w"][0] < w and (m != 0).all() and (v > 0).all()

    def test_zero_lr_freezes_params(self):
        p = np.array([1.0])
        optimizer_step(p, np.array([3.0]), np.zeros(1), np.zeros(1), 1, lr=0.0)
        assert p[0] == 1.0

    @pytest.mark.parametrize("block", [trainer.ADAM_BLOCK, 2])
    def test_an_overflowing_second_moment_raises(self, monkeypatch, block):
        # g * g = 1e40 overflows float32: v is inf, though the update m / sqrt(v) is 0
        monkeypatch.setattr(trainer, "ADAM_BLOCK", block)
        p = np.arange(5, dtype=np.float32)
        g = np.array([0, 0, 0, 1e20, 1], dtype=np.float32)
        with pytest.raises(trainer.NonFiniteUpdate) as info:
            optimizer_step(p, g, np.zeros_like(p), np.zeros_like(p), 1, lr=0.01)
        assert info.value.at == 3 and isinstance(info.value, ModelError)
        np.testing.assert_array_equal(p[:4], np.arange(4))

    def test_a_non_finite_update_names_its_first_element(self):
        p = np.zeros(4, np.float32)
        g = np.array([1, 1, np.inf, np.nan], dtype=np.float32)
        with pytest.raises(trainer.NonFiniteUpdate) as info:
            optimizer_step(p, g, np.zeros_like(p), np.zeros_like(p), 1, lr=0.01)
        assert info.value.at == 2

    def test_a_finite_update_that_overflows_a_weight_raises(self):
        # an update of about 1e37 takes -3.4e38 past float32's range
        p = np.array([0, -3.4e38], dtype=np.float32)
        with pytest.raises(trainer.NonFiniteUpdate) as info:
            optimizer_step(p, np.ones(2, np.float32), np.zeros_like(p), np.zeros_like(p), 1, lr=1e37)
        assert info.value.at == 1

    def test_finite_values_whose_product_overflows_raise_nothing(self):
        # the update is about 2.5e23 and v 1e27, so their product overflows float32
        p, m, v = np.zeros(2, np.float32), np.zeros(2, np.float32), np.zeros(2, np.float32)
        optimizer_step(p, np.full(2, 1e15, np.float32), m, v, 1000, lr=1e23)
        assert np.isfinite(p).all() and (p < -1e23).all()


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

    def test_source_checks(self):
        v = word_vocab(["a"])
        cfg = small_cfg(v.size)
        with pytest.raises(ConfigError, match="^mixture must list at least one source$"):
            trainer._check_sources("mixture", [], v, cfg)
        with pytest.raises(ConfigError, match="^mixture: p and q share the name 'a'$"):
            trainer._check_sources("mixture", [MixtureEntry("a", "p"), MixtureEntry("a", "q")], v, cfg)
        with pytest.raises(ConfigError, match="^weight for task 'a' must be positive and finite$"):
            MixtureEntry("a", "p", weight=0.0)

    @pytest.mark.parametrize("weight", [-1.0, math.inf, math.nan])
    def test_a_corpus_weight_must_be_finite_and_non_negative(self, weight):
        with pytest.raises(ConfigError, match="^corpus weight for d/c.txt must be finite and non-negative$"):
            CorpusEntry("d/c.txt", weight)

    @pytest.mark.parametrize("weight", [0.0, math.inf, math.nan])
    def test_a_task_weight_must_be_finite_and_positive(self, weight):
        with pytest.raises(ConfigError, match="^weight for task 'a' must be positive and finite$"):
            MixtureEntry("a", "p", weight)

    def test_a_source_is_named_by_its_task_or_its_file_name(self):
        assert CorpusEntry("d/pubmed.txt", 0.0).name == "pubmed"
        assert MixtureEntry("ner", "d/train.jsonl").name == "ner"

    def test_the_vocabulary_must_be_the_model_s_size(self):
        v = word_vocab(["a"])
        with pytest.raises(ConfigError, match=f"^model.vocab_size {v.size + 1} is not the vocabulary's size {v.size}$"):
            trainer._check_sources("corpora", [CorpusEntry("c.txt")], v, small_cfg(v.size + 1))


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

    def test_a_next_line_character_stays_inside_its_document(self, tmp_path):
        v = word_vocab([f"w{i}" for i in range(30)])
        line = " ".join(f"w{i % 30}" for i in range(10)) + "\x85" + " ".join(f"w{i % 30}" for i in range(30))
        path = tmp_path / "c.txt"
        path.write_text(line + "\n", encoding="utf-8")
        ids = v.encode(line)
        windows = load_corpus_windows([CorpusEntry(str(path))], v, input_len=20)
        # one document of 40-odd tokens; as two, the 10-word one would be dropped
        assert windows == [[ids[:20], ids[20:40]]]

    def test_unreadable_corpus_fails_fast(self, tmp_path):
        v = word_vocab(["a"])
        path = str(tmp_path / "missing.txt")
        with pytest.raises(DataFormatError, match="cannot read file") as info:
            load_corpus_windows([CorpusEntry(path)], v, input_len=8)
        assert info.value.path == path

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
            SpanCorruptionConfig(),
            TrainConfig(num_steps=0, input_len=24, target_len=24, batch_size=2),
            v,
        )
        for name in before:
            np.testing.assert_array_equal(result.params[name], before[name])

    def test_a_config_that_can_run_out_of_sentinels_fails_before_step_0(self, tmp_path):
        # 64-token windows at rate 0.3 mask 19 tokens, which can make 19
        # spans; with the final sentinel they need 20, and the vocabulary
        # has 16. The check comes before any corpus is read.
        _, v = corpus_fixture(tmp_path)
        cfg = replace(small_cfg(v.size), max_seq_len=128)
        with pytest.raises(ConfigError) as info:
            pretrain(
                cfg,
                init_params(cfg, seed=0),
                [CorpusEntry(str(tmp_path / "absent.txt"))],
                SpanCorruptionConfig(corruption_rate=0.3, mean_span_length=1.0),
                TrainConfig(num_steps=20, input_len=64, batch_size=2, checkpoint_every=1),
                v,
                out_dir=str(tmp_path / "out"),
            )
        assert str(info.value) == (
            "corruption.corruption_rate 0.3 could mask 19 spans of a 64-token window, which with the final "
            "sentinel need 20 sentinels; the vocabulary has 16"
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("rate, fits", [(0.24, True), (0.25, False)])
    def test_the_sentinel_check_admits_a_window_that_fits_exactly(self, tmp_path, rate, fits):
        # at rate 0.24 a 64-token window can make 15 spans, which with the
        # final sentinel take all 16 sentinels; at 0.25 it can make 16
        path, v = corpus_fixture(tmp_path, words_per_line=70)
        cfg = replace(small_cfg(v.size), max_seq_len=128)
        corruption = SpanCorruptionConfig(corruption_rate=rate, mean_span_length=1.0)
        assert v.num_sentinels == 16 and max_spans(64, corruption) == (15 if fits else 16)
        args = (cfg, init_params(cfg, seed=0), [CorpusEntry(str(path))], corruption,
                TrainConfig(num_steps=1, input_len=64, batch_size=2), v)
        if fits:
            assert len(pretrain(*args).losses) == 1
        else:
            with pytest.raises(ConfigError, match="need 17 sentinels; the vocabulary has 16"):
                pretrain(*args)

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
            SpanCorruptionConfig(),
            TrainConfig(num_steps=6, input_len=24, target_len=24, batch_size=2),
            v,
        )
        assert len(result.loss_curves["corpus"]) == 6
        assert len(result.loss_curves["other"]) == 0

    def test_non_finite_logits_name_the_tensor_and_the_step(self, tmp_path):
        path, v = corpus_fixture(tmp_path)
        cfg = small_cfg(v.size)
        params = init_params(cfg, seed=0)
        params["dec.0.self.wk"][0] = np.inf
        with np.errstate(all="ignore"), pytest.raises(ModelError) as info:
            pretrain(
                cfg,
                params,
                [CorpusEntry(str(path))],
                SpanCorruptionConfig(),
                TrainConfig(num_steps=2, input_len=24, target_len=24, batch_size=2),
                v,
            )
        assert str(info.value) == (
            "step 0: numeric overflow: non-finite logits; first non-finite tensor: dec.0.self.k"
        )

    @pytest.mark.parametrize("lr", [1e38, 1e40])
    def test_an_overflowing_learning_rate_is_a_config_error(self, tmp_path, lr):
        # lr / (1 - beta1), the step-1 scale of Adam's update, is inf in float32
        path, v = corpus_fixture(tmp_path)
        cfg = small_cfg(v.size)
        with pytest.raises(ConfigError) as info:
            pretrain(
                cfg,
                init_params(cfg, seed=0),
                [CorpusEntry(str(path))],
                SpanCorruptionConfig(),
                TrainConfig(num_steps=1, input_len=24, target_len=24, batch_size=2, learning_rate=lr),
                v,
                out_dir=str(tmp_path / "out"),
            )
        assert str(info.value) == f"learning_rate {lr:g} overflows float32 in Adam's step size lr / (1 - beta1)"
        assert not (tmp_path / "out").exists()

    def test_the_overflow_check_follows_the_dtype(self, tmp_path):
        path, v = corpus_fixture(tmp_path)
        cfg = replace(small_cfg(v.size), dtype="float64")
        sources = [CorpusEntry(str(path))], SpanCorruptionConfig()
        train = TrainConfig(num_steps=1, input_len=24, target_len=24, batch_size=2, learning_rate=1e38)
        result = pretrain(cfg, init_params(cfg, seed=0), *sources, train, v)  # 1e39 is finite in float64
        assert all(np.isfinite(t).all() for t in result.params.values())
        with pytest.raises(ConfigError, match="learning_rate 1e\\+308 overflows float64"):
            pretrain(cfg, init_params(cfg, seed=0), *sources, replace(train, learning_rate=1e308), v)

    def test_a_non_finite_update_names_the_step_and_the_tensor(self, tmp_path):
        # a finite update of about lr = 1e37 takes a rel-bias of 3.35e38 past
        # float32's range; the bias is the same in every bucket, so attention
        # stays finite (and uniform)
        path, v = corpus_fixture(tmp_path)
        cfg = small_cfg(v.size)
        params = init_params(cfg, seed=0)
        params["enc.rel_bias"][:] = 3.35e38
        with pytest.raises(ModelError) as info:
            pretrain(
                cfg,
                params,
                [CorpusEntry(str(path))],
                SpanCorruptionConfig(),
                TrainConfig(num_steps=1, input_len=24, target_len=24, batch_size=2, learning_rate=1e37),
                v,
                out_dir=str(tmp_path / "out"),
            )
        assert str(info.value) == "step 0: non-finite Adam update in tensor enc.rel_bias"
        assert not (tmp_path / "out" / "final").exists()

    def test_duplicate_corpus_names_rejected(self, tmp_path):
        path, v = corpus_fixture(tmp_path)
        paths = []
        for sub in ("a", "b"):
            (tmp_path / sub).mkdir()
            paths.append(tmp_path / sub / "corpus.txt")
            paths[-1].write_text(path.read_text(encoding="utf-8"), encoding="utf-8")
        cfg = small_cfg(v.size)
        with pytest.raises(ConfigError) as info:
            pretrain(
                cfg,
                init_params(cfg, seed=0),
                [CorpusEntry(str(p)) for p in paths],
                SpanCorruptionConfig(),
                TrainConfig(num_steps=6, input_len=24, target_len=24, batch_size=2),
                v,
            )
        assert str(paths[0]) in str(info.value) and str(paths[1]) in str(info.value)

    def test_an_all_zero_mixture_is_rejected_before_any_corpus_is_read(self, tmp_path):
        _, v = corpus_fixture(tmp_path)
        cfg = small_cfg(v.size)
        missing = [CorpusEntry(str(tmp_path / "absent" / f"{name}.txt"), 0.0) for name in ("a", "b")]
        with pytest.raises(ConfigError, match="^corpora: every weight is 0; at least one must be positive$"):
            pretrain(
                cfg,
                init_params(cfg, seed=0),
                missing,
                SpanCorruptionConfig(),
                TrainConfig(num_steps=1, input_len=24, target_len=24, batch_size=2),
                v,
            )

    def test_deterministic_given_seed(self, tmp_path):
        path, v = corpus_fixture(tmp_path)
        cfg = small_cfg(v.size)
        t_cfg = TrainConfig(num_steps=4, input_len=24, target_len=24, batch_size=2, seed=3)
        results = []
        for _ in range(2):
            params = init_params(cfg, seed=1)
            r = pretrain(cfg, params, [CorpusEntry(str(path))], SpanCorruptionConfig(), t_cfg, v)
            results.append(r)
        assert results[0].losses == results[1].losses
        for name in results[0].params:
            np.testing.assert_array_equal(results[0].params[name], results[1].params[name])

    def test_losses_and_params_are_pinned(self, tmp_path):
        # each batch is the corrupted pairs with eos after the input; any change
        # to the sampling, the batches or the Adam step changes this digest
        path, v = corpus_fixture(tmp_path)
        cfg = ModelConfig(**{**small_cfg(v.size).to_dict(), "dtype": "float64"})
        t_cfg = TrainConfig(num_steps=4, input_len=24, target_len=24, batch_size=2, seed=3)
        r = pretrain(cfg, init_params(cfg, seed=1), [CorpusEntry(str(path))], SpanCorruptionConfig(),
                     t_cfg, v)
        digest = hashlib.sha256(json.dumps(r.losses).encode())
        for name in sorted(r.params):
            digest.update(r.params[name].tobytes())
        assert digest.hexdigest() == "50e15bd7b87b89c7cb21b5abe05bd859708c7c75b0ecfa4c13cbe528083bb617"

    def test_a_two_corpus_mixture_is_pinned(self, tmp_path):
        # the draw order across sources: per step a corpus by weight, per
        # sample a window of it and then the seed corrupt gets
        path, v = corpus_fixture(tmp_path)
        lines = path.read_text(encoding="utf-8").splitlines()
        other = tmp_path / "other.txt"
        other.write_text("".join(" ".join(reversed(line.split())) + "\n" for line in reversed(lines)),
                         encoding="utf-8")
        cfg = replace(small_cfg(v.size), dtype="float64")
        t_cfg = TrainConfig(num_steps=6, input_len=24, target_len=24, batch_size=2, seed=3)
        r = pretrain(cfg, init_params(cfg, seed=1), [CorpusEntry(str(path), 1.0), CorpusEntry(str(other), 3.0)],
                     SpanCorruptionConfig(), t_cfg, v)
        assert {name: len(curve) for name, curve in r.loss_curves.items()} == {"corpus": 1, "other": 5}
        assert run_digest(r) == "4258492e3c89c19ce7e8e393ef6eec66480f4a047b58f15636b62ca656dfde8c"


def run_digest(result) -> str:
    """sha256 of a run's losses as JSON and its final params in name order."""
    digest = hashlib.sha256(json.dumps(result.losses).encode())
    for name in sorted(result.params):
        digest.update(result.params[name].tobytes())
    return digest.hexdigest()


def task_entry(tmp_path, name, n=6, weight=1.0):
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
    return MixtureEntry(name, str(path), weight)


def phase_fixture(tmp_path, phase):
    """(model config, train) for one phase on a small fixture; ``train(params,
    train_cfg, out_name, resume=None)`` writes under ``tmp_path / out_name``."""
    if phase == "pretrain":
        path, v = corpus_fixture(tmp_path)
        cfg = small_cfg(v.size)

        def train(params, t_cfg, out_name, resume=None):
            return pretrain(cfg, params, [CorpusEntry(str(path))], SpanCorruptionConfig(),
                            t_cfg, v, out_dir=str(tmp_path / out_name), resume=resume)
    else:
        v = word_vocab([f"w{i}" for i in range(10)] + ["copy:", "other:"])
        cfg = small_cfg(v.size)
        mixture = [task_entry(tmp_path, "copy"), task_entry(tmp_path, "other", weight=2.0)]

        def train(params, t_cfg, out_name, resume=None):
            return finetune(params, mixture, cfg, t_cfg, v, out_dir=str(tmp_path / out_name), resume=resume)
    return cfg, train


class TestFinetune:
    def test_empty_mixture_rejected(self, tmp_path):
        v = word_vocab(["a"])
        cfg = small_cfg(v.size)
        with pytest.raises(ConfigError, match="^mixture must list at least one source$"):
            finetune(init_params(cfg, 0), [], cfg, TrainConfig(num_steps=1), v)

    def test_runs_and_logs_curves(self, tmp_path):
        words = [f"w{i}" for i in range(10)] + ["copy:", "other:"]
        v = word_vocab(words)
        cfg = small_cfg(v.size)
        mixture = [task_entry(tmp_path, "copy"), task_entry(tmp_path, "other")]
        t_cfg = TrainConfig(num_steps=8, batch_size=2, input_len=16, target_len=16, seed=0)
        result = finetune(init_params(cfg, 0), mixture, cfg, t_cfg, v)
        assert len(result.losses) == 8
        assert sum(map(len, result.loss_curves.values())) == 8
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

    def test_a_two_task_mixture_is_pinned(self, tmp_path):
        # the draw order across sources: per step a task by weight, per
        # sample a pair of it
        v = word_vocab([f"w{i}" for i in range(10)] + ["copy:", "other:"])
        cfg = replace(small_cfg(v.size), dtype="float64")
        mixture = [task_entry(tmp_path, "copy"), task_entry(tmp_path, "other", weight=2.0)]
        t_cfg = TrainConfig(num_steps=6, batch_size=2, input_len=16, target_len=16, seed=3)
        r = finetune(init_params(cfg, seed=1), mixture, cfg, t_cfg, v)
        assert {name: len(curve) for name, curve in r.loss_curves.items()} == {"copy": 3, "other": 3}
        assert run_digest(r) == "9b08e2f7aeaf4783f30c2d3f0a2d7552c32cf5c06ecc1c223e68b231a96f202f"


def opt_entry(manifest, name):
    return next(e for e in manifest["moments"] if e["name"] == name)


class TestCheckpointing:
    def test_save_load_bit_exact(self, tmp_path):
        cfg = small_cfg(31)
        params = init_params(cfg, seed=4)
        moments = adam_moments(params, {k: np.full_like(x, 0.5) for k, x in params.items()},
                               {k: np.full_like(x, 0.25) for k, x in params.items()})
        save_checkpoint(tmp_path / "ck", params, cfg, moments, rng_state=123, step=7)
        loaded, loaded_cfg, manifest = load_checkpoint(tmp_path / "ck")
        assert loaded_cfg == cfg
        for name in params:
            assert loaded[name].tobytes() == params[name].tobytes()
        assert (manifest.format, manifest.step, manifest.rng_state) == ("t2tbio-checkpoint v2", 7, 123)
        assert load_optimizer(tmp_path / "ck", manifest).tobytes() == moments.tobytes()
        assert sorted(p.name for p in (tmp_path / "ck").iterdir()) == ["manifest.json", "optimizer.bin", "weights.bin"]

    def test_blobs_are_tensor_bytes_in_name_order(self, tmp_path):
        cfg = small_cfg(31)
        params = init_params(cfg, seed=4)
        m = {k: np.full_like(x, 0.5) + x for k, x in params.items()}
        v = {k: x * x for k, x in params.items()}
        save_checkpoint(tmp_path / "ck", params, cfg, adam_moments(params, m, v), rng_state=123, step=2)
        opt = {f"m.{k}": x for k, x in m.items()} | {f"v.{k}": x for k, x in v.items()}
        for blob, tensors in (("weights.bin", params), ("optimizer.bin", opt)):
            expected = b"".join(tensors[name].astype("<f4").tobytes() for name in sorted(tensors))
            assert (tmp_path / "ck" / blob).read_bytes() == expected

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_the_moments_blob_is_the_one_array(self, tmp_path, dtype):
        """``optimizer.bin`` holds the little-endian bytes of the ``[2, n]``
        moments, listed by ``layout``'s moment entries; a step-0 save writes
        an empty blob and lists none."""
        cfg = replace(small_cfg(31), dtype=dtype)
        params = init_params(cfg, seed=4)
        moments = adam_moments(params, {k: x + 0.5 for k, x in params.items()}, {k: x * x for k, x in params.items()})
        save_checkpoint(tmp_path / "ck", params, cfg, moments, rng_state=123, step=2)
        manifest = json.loads((tmp_path / "ck" / "manifest.json").read_text(encoding="utf-8"))
        weights, moment_entries = checkpoint.layout(cfg)
        little_endian = moments.astype(moments.dtype.newbyteorder("<"))
        assert (tmp_path / "ck" / "optimizer.bin").read_bytes() == little_endian.tobytes()
        assert manifest["moments"] == moment_entries
        assert manifest["weights"] == weights
        save_checkpoint(tmp_path / "ck0", params, cfg, None, rng_state=123, step=0)
        manifest = json.loads((tmp_path / "ck0" / "manifest.json").read_text(encoding="utf-8"))
        assert (tmp_path / "ck0" / "optimizer.bin").read_bytes() == b""
        assert manifest["moments"] == []

    def test_float64_save_load_bit_exact(self, tmp_path):
        cfg = replace(small_cfg(31), dtype="float64")
        params = init_params(cfg, seed=4)
        m, v = {k: x * 0.5 for k, x in params.items()}, {k: x * x for k, x in params.items()}
        save_checkpoint(tmp_path / "ck", params, cfg, adam_moments(params, m, v), rng_state=123, step=3)
        loaded, loaded_cfg, manifest = load_checkpoint(tmp_path / "ck")
        assert loaded_cfg == cfg
        assert {e["dtype"] for e in manifest.weights} == {"<f8"}
        for name in params:
            assert loaded[name].dtype == np.float64
            assert loaded[name].tobytes() == params[name].tobytes()
        shapes = {k: x.shape for k, x in params.items()}
        rows = [views(row, shapes) for row in load_optimizer(tmp_path / "ck", manifest)]
        for name in params:
            assert rows[0][name].dtype == np.float64
            assert rows[0][name].tobytes() == m[name].tobytes()
            assert rows[1][name].tobytes() == v[name].tobytes()

    def test_manifest_records_the_runtime_once_per_process(self, tmp_path, capsys, monkeypatch):
        cfg = small_cfg(31)
        first = checkpoint.runtime()
        monkeypatch.setenv("OMP_NUM_THREADS", "7")  # BLAS read the variables when numpy loaded
        save_checkpoint(tmp_path / "ck", init_params(cfg, seed=4), cfg, None, rng_state=1, step=0)
        _, _, manifest = load_checkpoint(tmp_path / "ck")
        assert manifest.runtime == first
        assert first["numpy"] == np.__version__ and first["blas"]
        assert set(first["threads"]) == {"OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"}
        assert cli.run(["inspect-checkpoint", "--checkpoint", str(tmp_path / "ck")]) == 0
        assert json.loads(capsys.readouterr().out)["runtime"] == first

    def test_manifest_without_runtime_is_rejected(self, tmp_path, caplog):
        cfg = small_cfg(31)
        params = init_params(cfg, seed=4)
        moments = adam_moments(params, params, {k: x * x for k, x in params.items()})
        save_checkpoint(tmp_path / "ck", params, cfg, moments, rng_state=123, step=2)
        path = remove_checkpoint_part(tmp_path / "ck", "runtime")
        with pytest.raises(CheckpointError, match="needs 'runtime'") as info:
            load_checkpoint(tmp_path / "ck")
        assert str(path) in str(info.value)
        assert cli.run(["inspect-checkpoint", "--checkpoint", str(tmp_path / "ck")]) == cli.EXIT_DATA_ERROR
        assert caplog.records[-1].getMessage() == str(info.value)

    def test_non_finite_rejected_on_load(self, tmp_path):
        cfg = small_cfg(31)
        params = init_params(cfg, seed=4)
        params["enc.norm"][0] = np.inf
        save_checkpoint(tmp_path / "ck", params, cfg, None, rng_state=123, step=0)
        with pytest.raises(CheckpointError, match="non-finite"):
            load_checkpoint(tmp_path / "ck")

    @pytest.mark.parametrize(
        "mutate, file, names",
        [
            pytest.param(lambda m: m["model"].update(bogus=1), "manifest.json", "bogus", id="unknown-model-key"),
            pytest.param(lambda m: m.pop("model"), "manifest.json", "model", id="no-model"),
            pytest.param(lambda m: m["model"].update(vocab_size="31"), "manifest.json", "model.vocab_size",
                         id="string-vocab-size"),
            pytest.param(lambda m: m["model"].update(n_heads=2.0), "manifest.json", "model.n_heads",
                         id="float-n-heads"),
            pytest.param(lambda m: m["model"].update(max_seq_len=True), "manifest.json", "model.max_seq_len",
                         id="bool-max-seq-len"),
            pytest.param(lambda m: m["model"].update(dropout_rate=0.0), "manifest.json", "dropout_rate",
                         id="model-dropout-rate"),
            pytest.param(lambda m: m.update(format="t2tbio-checkpoint v3"), "manifest.json", "unknown format",
                         id="unknown-format"),
            pytest.param(lambda m: m.update(format="t2tbio-checkpoint v1"), "manifest.json",
                         "format: unknown format 't2tbio-checkpoint v1'", id="v1-format"),
            pytest.param(lambda m: m.update(format=2), "manifest.json", "format: unknown format 2",
                         id="int-format"),
            pytest.param(lambda m: m.pop("format"), "manifest.json", "needs 'format'", id="no-format"),
            pytest.param(lambda m: m.update(optimizer={"name": "adam"}), "manifest.json", "'optimizer'",
                         id="v1-key-in-a-v2-manifest"),
            pytest.param(lambda m: m.update(step=-1), "manifest.json", "step", id="negative-step"),
            pytest.param(lambda m: m.update(step="7"), "manifest.json", "step", id="string-step"),
            pytest.param(lambda m: m.pop("step"), "manifest.json", "needs 'step'", id="no-step"),
            pytest.param(lambda m: m.pop("rng_state"), "manifest.json", "needs 'rng_state'", id="no-rng-state"),
            pytest.param(lambda m: m.update(rng_state="123"), "manifest.json", "rng_state", id="string-rng-state"),
            pytest.param(lambda m: m.update(rng_state=True), "manifest.json", "rng_state", id="bool-rng-state"),
            pytest.param(lambda m: m.update(rng_state=-1), "manifest.json", "rng_state", id="negative-rng-state"),
            pytest.param(lambda m: m.update(rng_state=2**64), "manifest.json", "rng_state",
                         id="rng-state-past-64-bits"),
            pytest.param(lambda m: m.update(runtime=[1]), "manifest.json", "runtime", id="runtime-not-an-object"),
            pytest.param(lambda m: m.pop("weights"), "manifest.json", "needs 'weights'", id="no-weights"),
            pytest.param(lambda m: m.update(weights={}), "manifest.json", "weights", id="weights-not-a-list"),
            pytest.param(lambda m: m["weights"][3].update(shape=[17]), "weights.bin", "dec.0.cross.wq",
                         id="shape-disagrees-with-nbytes"),
            pytest.param(lambda m: m["weights"][3].update(shape=[16, -16]), "weights.bin", "dec.0.cross.wq",
                         id="negative-dim"),
            pytest.param(lambda m: m["weights"][3].update(offset="0"), "weights.bin", "dec.0.cross.wq",
                         id="string-offset"),
            pytest.param(lambda m: m["weights"][3].update(nbytes=True), "weights.bin", "dec.0.cross.wq",
                         id="bool-nbytes"),
            pytest.param(lambda m: m["weights"][3].update(dtype="<i4"), "weights.bin", "dec.0.cross.wq",
                         id="int-dtype"),
            pytest.param(lambda m: m["weights"][3].pop("name"), "weights.bin", "manifest entry", id="no-name"),
            pytest.param(lambda m: m["weights"].append(dict(m["weights"][3])), "weights.bin", "dec.0.cross.wq",
                         id="duplicate-tensor"),
            pytest.param(lambda m: m["moments"][0].update(offset=-4), "optimizer.bin",
                         "m.dec.0.cross.norm", id="negative-optimizer-offset"),
            pytest.param(lambda m: m.update(moments=[1]), "manifest.json", "moments[0]",
                         id="moments-not-a-list-of-objects"),
            pytest.param(lambda m: m.pop("moments"), "manifest.json", "needs 'moments'", id="no-moments"),
            pytest.param(lambda m: opt_entry(m, "m.enc.norm").update(shape=[4, 4]), "optimizer.bin",
                         "m.enc.norm", id="moment-reshaped"),
            pytest.param(lambda m: opt_entry(m, "v.enc.norm").update(name="v.enc.nrm"), "optimizer.bin",
                         "v.enc.nrm", id="moment-of-no-parameter"),
            pytest.param(lambda m: opt_entry(m, "v.enc.norm").update(name="w.enc.norm"), "optimizer.bin",
                         "w.enc.norm", id="tensor-neither-m-nor-v"),
            pytest.param(lambda m: m["moments"].remove(opt_entry(m, "v.enc.norm")), "optimizer.bin",
                         "enc.norm", id="m-without-v"),
            pytest.param(lambda m: m.update(moments=[e for e in m["moments"] if e["name"][2:] != "enc.norm"]),
                         "optimizer.bin", "enc.norm", id="no-moments-for-a-parameter-past-step-0"),
        ],
    )
    def test_mutated_manifest_raises_checkpoint_error(self, tmp_path, mutate, file, names):
        cfg = small_cfg(31)
        params = init_params(cfg, seed=4)
        moments = adam_moments(params, {k: x * 0.5 for k, x in params.items()}, {k: x * x for k, x in params.items()})
        save_checkpoint(tmp_path / "ck", params, cfg, moments, rng_state=123, step=7)
        path = tmp_path / "ck" / "manifest.json"
        manifest = json.loads(path.read_text(encoding="utf-8"))
        mutate(manifest)
        path.write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(CheckpointError) as info:
            _, _, loaded = load_checkpoint(tmp_path / "ck")
            load_optimizer(tmp_path / "ck", loaded)
        message = str(info.value)
        assert str(tmp_path / "ck" / file) in message and names in message, message

    def test_moment_of_another_dtype_raises_checkpoint_error(self, tmp_path):
        cfg = small_cfg(31)
        params = init_params(cfg, seed=4)
        moments = adam_moments(params, {k: x * 0.5 for k, x in params.items()}, {k: x * x for k, x in params.items()})
        save_checkpoint(tmp_path / "ck", params, cfg, moments, rng_state=123, step=1)
        tensors = optimizer_tensors(tmp_path / "ck")
        tensors["v.enc.norm"] = tensors["v.enc.norm"].astype(np.float64)
        write_optimizer(tmp_path / "ck", tensors)
        _, _, manifest = load_checkpoint(tmp_path / "ck")
        with pytest.raises(CheckpointError) as info:
            load_optimizer(tmp_path / "ck", manifest)
        assert str(tmp_path / "ck" / "optimizer.bin") in str(info.value)
        assert '"name": "v.enc.norm"' in str(info.value)
        assert '"dtype": "<f8"' in str(info.value) and '"dtype": "<f4"' in str(info.value)

    def test_step_0_state_without_moments_loads(self, tmp_path):
        cfg = small_cfg(31)
        save_checkpoint(tmp_path / "ck", init_params(cfg, seed=4), cfg, None, rng_state=123, step=0)
        _, _, manifest = load_checkpoint(tmp_path / "ck")
        assert (manifest.step, manifest.moments) == (0, [])
        assert load_optimizer(tmp_path / "ck", manifest) is None

    def test_step_0_state_with_some_moments_raises_checkpoint_error(self, tmp_path):
        cfg = small_cfg(31)
        params = init_params(cfg, seed=4)
        save_checkpoint(tmp_path / "ck", params, cfg, None, rng_state=123, step=0)
        write_optimizer(tmp_path / "ck", {f"{k}.enc.norm": params["enc.norm"] * 0 for k in "mv"})
        _, _, manifest = load_checkpoint(tmp_path / "ck")
        with pytest.raises(CheckpointError) as info:
            load_optimizer(tmp_path / "ck", manifest)
        assert str(tmp_path / "ck" / "optimizer.bin") in str(info.value) and "m.enc.norm" in str(info.value)

    def test_params_of_another_dtype_raise_checkpoint_error(self, tmp_path):
        cfg = small_cfg(31)
        params = {k: x.astype(np.float64) for k, x in init_params(cfg, seed=4).items()}
        with pytest.raises(CheckpointError) as info:
            save_checkpoint(tmp_path / "ck", params, cfg, None, rng_state=123, step=0)
        assert str(tmp_path / "ck" / "weights.bin") in str(info.value)
        assert '"name": "dec.0.cross.norm"' in str(info.value)
        assert '"dtype": "<f8"' in str(info.value) and '"dtype": "<f4"' in str(info.value)
        assert not (tmp_path / "ck").exists()

    # each case edits (params, moments) of a step-1 state; the blob and the text the error names
    UNLOADABLE = {
        "missing-tensor": (lambda p, m: ({k: x for k, x in p.items() if k != "enc.norm"}, m),
                           "weights.bin", '"name": "enc.norm"'),
        "tensor-of-another-shape": (lambda p, m: ({**p, "enc.norm": p["enc.norm"][:-1]}, m),
                                    "weights.bin", '"shape": [15]'),
        "extra-tensor": (lambda p, m: ({**p, "extra": p["enc.norm"]}, m), "weights.bin", '"name": "extra"'),
        "moments-of-another-size": (lambda p, m: (p, m[:, :5]), "optimizer.bin", "(2, 5)"),
        "moments-of-another-dtype": (lambda p, m: (p, m.astype(np.float64)), "optimizer.bin", "float64"),
        "moments-in-one-row": (lambda p, m: (p, m.reshape(-1)), "optimizer.bin", "dtype float32, expected (2, "),
    }

    @pytest.mark.parametrize("case", UNLOADABLE)
    def test_tensors_the_loader_rejects_raise_before_anything_is_written(self, tmp_path, case):
        cfg = small_cfg(31)
        params = init_params(cfg, seed=4)
        edit, blob, names = self.UNLOADABLE[case]
        params, moments = edit(params, np.zeros((2, sum(x.size for x in params.values())), np.float32))
        with pytest.raises(CheckpointError) as info:
            save_checkpoint(tmp_path / "ck", params, cfg, moments, rng_state=123, step=1)
        assert str(tmp_path / "ck" / blob) in str(info.value) and names in str(info.value), str(info.value)
        assert not (tmp_path / "ck").exists()

    @pytest.mark.parametrize("phase", ["pretrain", "finetune"])
    def test_resume_equivalence(self, tmp_path, phase):
        """Resuming from a step-6 checkpoint ends with the final blobs of an
        uninterrupted run, and its ``loss_curve.json`` holds that run's steps
        from 6 on, byte for byte as the writer writes them."""
        cfg, train = phase_fixture(tmp_path, phase)
        full_cfg = TrainConfig(num_steps=10, input_len=24, target_len=24, batch_size=2, seed=9)
        full = train(init_params(cfg, 2), full_cfg, "full")
        train(init_params(cfg, 2), replace(full_cfg, num_steps=6, checkpoint_every=6), "part")
        ckpt = tmp_path / "part" / "step_000006"
        resumed = train(None, full_cfg, "resumed", resume=str(ckpt))
        assert resumed.losses == full.losses[6:]
        for name in full.params:
            np.testing.assert_array_equal(full.params[name], resumed.params[name])
        for blob in ("weights.bin", "optimizer.bin"):
            full_bytes = (tmp_path / "full" / "final" / blob).read_bytes()
            assert (tmp_path / "resumed" / "final" / blob).read_bytes() == full_bytes, blob
        curve = json.loads((tmp_path / "full" / "loss_curve.json").read_text(encoding="utf-8"))
        tail = {"curves": {n: [x for x in c if x[0] >= 6] for n, c in curve["curves"].items()},
                "losses": curve["losses"][6:]}
        write_json(tmp_path / "tail.json", tail)
        assert (tmp_path / "resumed" / "loss_curve.json").read_bytes() == (tmp_path / "tail.json").read_bytes()

    @pytest.mark.parametrize("phase", ["pretrain", "finetune"])
    def test_params_unlike_the_config_raise_config_error(self, tmp_path, phase):
        cfg, train = phase_fixture(tmp_path, phase)
        params = init_params(cfg, 0)
        params["enc.norm"] = params["enc.norm"].astype(np.float64)
        t_cfg = TrainConfig(num_steps=2, input_len=24, target_len=24, batch_size=2)
        with pytest.raises(ConfigError, match="dtype mismatch for enc.norm: got float64, expected float32"):
            train(params, t_cfg, "run")
        assert not (tmp_path / "run" / "final").exists()

    @pytest.mark.parametrize("phase", ["pretrain", "finetune"])
    def test_resume_from_another_model_names_the_manifest_and_the_field(self, tmp_path, phase):
        cfg, train = phase_fixture(tmp_path, phase)
        other = replace(cfg, d_ff=2 * cfg.d_ff)
        save_checkpoint(tmp_path / "other", init_params(other, 0), other, None, rng_state=0, step=0)
        t_cfg = TrainConfig(num_steps=2, input_len=24, target_len=24, batch_size=2)
        with pytest.raises(ConfigError) as info:
            train(None, t_cfg, "again", resume=str(tmp_path / "other"))
        assert str(info.value) == (
            f"{tmp_path / 'other' / 'manifest.json'}: resume checkpoint was written with a different model config: "
            f"model.d_ff is {other.d_ff}, the configured model's is {cfg.d_ff}"
        )
        assert not (tmp_path / "again").exists()

    @pytest.mark.parametrize("phase", ["pretrain", "finetune"])
    def test_resume_past_num_steps_rejected(self, tmp_path, phase):
        cfg, train = phase_fixture(tmp_path, phase)
        t_cfg = TrainConfig(num_steps=8, input_len=24, target_len=24, batch_size=2, checkpoint_every=8)
        train(init_params(cfg, 0), t_cfg, "run")
        with pytest.raises(ConfigError, match="at step 8, past num_steps 3"):
            train(None, replace(t_cfg, num_steps=3), "again", resume=str(tmp_path / "run" / "step_000008"))
        assert not (tmp_path / "again" / "final").exists()

    @pytest.mark.parametrize("part", CHECKPOINT_PARTS)
    @pytest.mark.parametrize("phase", ["pretrain", "finetune"])
    def test_resume_without_a_part_raises_checkpoint_error(self, tmp_path, phase, part):
        cfg, train = phase_fixture(tmp_path, phase)
        t_cfg = TrainConfig(num_steps=6, input_len=24, target_len=24, batch_size=2, checkpoint_every=3)
        train(init_params(cfg, 0), t_cfg, "run")
        ckpt = tmp_path / "run" / "step_000003"
        path = remove_checkpoint_part(ckpt, part)
        with pytest.raises(CheckpointError) as info:
            train(None, t_cfg, "again", resume=str(ckpt))
        assert str(path) in str(info.value) and part in str(info.value), info.value
        assert not (tmp_path / "again" / "final").exists()

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
                SpanCorruptionConfig(),
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
            SpanCorruptionConfig(),
            TrainConfig(num_steps=3, input_len=24, target_len=24, batch_size=2),
            v,
            out_dir=str(out),
        )
        curve = json.loads((out / "loss_curve.json").read_text(encoding="utf-8"))
        assert len(curve["losses"]) == 3
        assert curve["curves"] == {"corpus": [[step, loss] for step, loss in enumerate(curve["losses"])]}


class FakeLibc:
    """Records the ``mallopt`` and ``malloc_trim`` calls made to it."""

    def __init__(self):
        self.calls = []

    def mallopt(self, param, value):
        self.calls.append(("mallopt", param, value))
        return 1

    def malloc_trim(self, pad):
        self.calls.append(("malloc_trim", pad))
        return 1


class TestFreedMemoryKept:
    """``_freed_memory_kept`` sets glibc's mmap threshold to 32 MiB and its
    trim threshold to 256 MiB, and on any exit sets the trim threshold back to
    glibc's 128 KiB and trims the heap. With another C library, ``_glibc`` is
    None and the block calls nothing."""

    ENTER = [("mallopt", -3, 32 << 20), ("mallopt", -1, 256 << 20)]
    EXIT = [("mallopt", -1, 128 << 10), ("malloc_trim", 0)]

    def test_the_block_sets_the_thresholds_and_restores_the_trim_threshold(self, monkeypatch):
        libc = FakeLibc()
        monkeypatch.setattr(trainer, "_glibc", lambda: libc)
        with trainer._freed_memory_kept():
            assert libc.calls == self.ENTER
        assert libc.calls == self.ENTER + self.EXIT

    def test_a_raising_block_restores_the_trim_threshold(self, monkeypatch):
        libc = FakeLibc()
        monkeypatch.setattr(trainer, "_glibc", lambda: libc)
        with pytest.raises(RuntimeError, match="in the block"):
            with trainer._freed_memory_kept():
                raise RuntimeError("in the block")
        assert libc.calls == self.ENTER + self.EXIT

    @staticmethod
    def raising(error):
        def confstr(name):
            raise error

        return confstr

    @pytest.mark.parametrize(
        "confstr",
        [raising(ValueError("unrecognized configuration name")), raising(OSError(22, "Invalid argument")),
         lambda name: "musl 1.2.4", lambda name: None],
        ids=["unknown-name", "os-error", "another-libc", "no-value"],
    )
    def test_another_c_library_is_left_alone(self, monkeypatch, confstr):
        opened = []
        monkeypatch.setattr(trainer.os, "confstr", confstr)
        monkeypatch.setattr(trainer.ctypes, "CDLL", lambda *args: opened.append(args))
        assert trainer._glibc() is None
        with trainer._freed_memory_kept():
            pass
        assert opened == []

    def test_no_confstr_is_another_c_library(self, monkeypatch):
        monkeypatch.delattr(trainer.os, "confstr")
        monkeypatch.setattr(trainer.ctypes, "CDLL", lambda *args: pytest.fail("the C library was opened"))
        assert trainer._glibc() is None
        with trainer._freed_memory_kept():
            pass


class TestTracedNames:
    """perfbench's tracer times a layer by replacing these ``trainer``
    attributes, so the trainer must look each one up where it calls it."""

    TRACED = ("make_batch", "loss_and_grads", "optimizer_step", "save_checkpoint", "corrupt",
              "load_corpus_windows", "load_task_pairs")

    def counted_run(self, tmp_path, monkeypatch, phase, t_cfg) -> dict[str, int]:
        cfg, train = phase_fixture(tmp_path, phase)
        calls = dict.fromkeys(self.TRACED, 0)
        for name in self.TRACED:
            def counted(*args, _name=name, _original=getattr(trainer, name), **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(trainer, name, counted)
        train(init_params(cfg, 0), t_cfg, "run")
        return calls

    def test_pretrain_calls_each_name_once_per_step_save_and_sample(self, tmp_path, monkeypatch):
        t_cfg = TrainConfig(num_steps=4, input_len=24, target_len=24, batch_size=3, checkpoint_every=2)
        assert self.counted_run(tmp_path, monkeypatch, "pretrain", t_cfg) == {
            "make_batch": 4, "loss_and_grads": 4, "optimizer_step": 4,
            "save_checkpoint": 3,  # step_000002, step_000004 and final
            "corrupt": 4 * 3, "load_corpus_windows": 1, "load_task_pairs": 0,
        }

    def test_finetune_calls_each_name_once_per_step_save_and_mixture_entry(self, tmp_path, monkeypatch):
        t_cfg = TrainConfig(num_steps=3, input_len=24, target_len=24, batch_size=2)
        assert self.counted_run(tmp_path, monkeypatch, "finetune", t_cfg) == {
            "make_batch": 3, "loss_and_grads": 3, "optimizer_step": 3, "save_checkpoint": 1,
            "corrupt": 0, "load_corpus_windows": 0, "load_task_pairs": 2,
        }


def arena_faults(params, arenas, ckpt) -> list[str]:
    """Names of the tensors of checkpoint ``ckpt`` that are not where the
    arenas ``(p, m, v)`` of an Adam step hold them: a ``params`` tensor that
    is not the view of ``p`` at its manifest entry's byte offset divided by
    the itemsize, or a moment ``m.*`` or ``v.*`` whose bytes in
    ``optimizer.bin`` are not those of ``m`` or ``v`` at that offset (for
    ``v``, counted from the first ``v`` tensor)."""
    manifest = json.loads((ckpt / "manifest.json").read_text(encoding="utf-8"))
    p, m, v = arenas
    assert m.dtype == v.dtype == p.dtype and m.size == v.size == p.size
    faults = []
    for e in manifest["weights"]:
        t = params[e["name"]]
        if not (t.base is p and t.shape == tuple(e["shape"])
                and t.ctypes.data == p[e["offset"] // t.itemsize :].ctypes.data):
            faults.append(e["name"])
    blob = (ckpt / "optimizer.bin").read_bytes()
    for e in manifest["moments"]:
        flat, start = (m, e["offset"]) if e["name"].startswith("m.") else (v, e["offset"] - m.nbytes)
        if blob[e["offset"] : e["offset"] + e["nbytes"]] != flat.tobytes()[start : start + e["nbytes"]]:
            faults.append(e["name"])
    return faults


class TestArenas:
    @staticmethod
    def run(tmp_path, monkeypatch, phase, start, after_step=None) -> list[str]:
        """A 6-step run from ``init_params`` or resumed from step 3; returns
        ``arena_faults`` of its params and its last Adam step's arenas against
        its ``final/`` checkpoint. ``after_step(params)`` runs after every
        optimizer step."""
        cfg, train = phase_fixture(tmp_path, phase)
        loss_and_grads, step = trainer.loss_and_grads, trainer.optimizer_step
        seen = {}

        def recording_loss_and_grads(params, *args, **kwargs):
            seen["params"] = params
            return loss_and_grads(params, *args, **kwargs)

        def recording_step(p, g, m, v, t, lr):
            step(p, g, m, v, t, lr)
            seen["arenas"] = (p, m, v)
            if after_step is not None:
                after_step(seen["params"])

        monkeypatch.setattr(trainer, "loss_and_grads", recording_loss_and_grads)
        monkeypatch.setattr(trainer, "optimizer_step", recording_step)
        t_cfg = TrainConfig(num_steps=6, input_len=24, target_len=24, batch_size=2, checkpoint_every=3)
        if start == "resumed":
            train(init_params(cfg, 0), t_cfg, "first")
            result = train(None, t_cfg, "run", resume=str(tmp_path / "first" / "step_000003"))
        else:
            result = train(init_params(cfg, 0), t_cfg, "run")
        assert seen["params"] is result.params
        return arena_faults(result.params, seen["arenas"], tmp_path / "run" / "final")

    @pytest.mark.parametrize("start", ["fresh", "resumed"])
    @pytest.mark.parametrize("phase", ["pretrain", "finetune"])
    def test_every_tensor_is_its_arena_view(self, tmp_path, monkeypatch, phase, start):
        assert self.run(tmp_path, monkeypatch, phase, start) == []

    @pytest.mark.parametrize("phase", ["pretrain", "finetune"])
    def test_a_rebound_tensor_is_detected(self, tmp_path, monkeypatch, phase):
        def rebind(params):
            params["enc.0.ff.w1"] = params["enc.0.ff.w1"] - 0

        assert self.run(tmp_path, monkeypatch, phase, "fresh", after_step=rebind) == ["enc.0.ff.w1"]


    def test_views_of_a_flat_array_in_another_order_are_copied_into_the_layout(self, tmp_path):
        # the values cover one flat array, but in reverse name order: the
        # gradients' views, laid out by checkpoint.views, would not line up
        # with them, so arena copies them and the step is the step from
        # separate arrays
        cfg, train = phase_fixture(tmp_path, "finetune")
        params = init_params(cfg, 0)
        names = sorted(params, reverse=True)
        flat = np.concatenate([params[name].ravel() for name in names])
        ends = np.cumsum([params[name].size for name in names])
        reordered = {name: flat[end - params[name].size : end].reshape(params[name].shape)
                     for name, end in zip(names, ends)}
        before = flat.copy()
        assert arena(dict(reordered)) is not flat
        t_cfg = TrainConfig(num_steps=1, input_len=24, target_len=24, batch_size=2)
        want = train({name: t.copy() for name, t in params.items()}, t_cfg, "separate").params
        got = train(reordered, t_cfg, "reordered").params
        assert got is reordered and got.keys() == want.keys()
        assert all(got[name].tobytes() == want[name].tobytes() for name in want)
        assert flat.tobytes() == before.tobytes()  # the caller's array is not written


class TestLoadedLayout:
    def test_each_blob_is_one_buffer_whose_arrays_are_the_arenas(self, tmp_path):
        """``load_checkpoint``'s params are views of one array over
        ``weights.bin``, which ``arena`` returns as it is, rebinding no tensor;
        ``load_optimizer`` returns ``optimizer.bin``'s one buffer as one
        writable ``[2, n]`` array whose rows are ``m`` and ``v``, each laid out
        by ``views`` as the weights are."""
        cfg = small_cfg(31)
        params = init_params(cfg, seed=4)
        m, v = {k: x * 0.5 for k, x in params.items()}, {k: x * x for k, x in params.items()}
        save_checkpoint(tmp_path / "ck", params, cfg, adam_moments(params, m, v), rng_state=123, step=2)
        loaded, _, manifest = load_checkpoint(tmp_path / "ck")
        tensors = dict(loaded)
        flat = next(iter(loaded.values())).base
        assert flat.ndim == 1 and flat.flags.writeable
        assert all(t.base is flat for t in loaded.values())
        assert arena(loaded) is flat
        assert all(loaded[name] is tensors[name] for name in loaded)
        assert flat.tobytes() == (tmp_path / "ck" / "weights.bin").read_bytes()
        moments = load_optimizer(tmp_path / "ck", manifest)
        assert moments.shape == (2, flat.size) and moments.dtype == flat.dtype
        assert moments.flags.writeable and moments.flags.c_contiguous
        assert moments.tobytes() == (tmp_path / "ck" / "optimizer.bin").read_bytes()
        shapes = {k: x.shape for k, x in params.items()}
        for row, want in zip(moments, (m, v)):
            assert all(t.tobytes() == want[name].tobytes() for name, t in views(row, shapes).items())
