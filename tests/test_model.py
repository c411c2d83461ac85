import math

import numpy as np
import pytest

from t2tbio import model
from t2tbio.errors import ConfigError, ModelError
from t2tbio.model import (
    Batch,
    ModelConfig,
    cross_entropy,
    expected_shapes,
    forward,
    greedy_decode,
    init_params,
    loss_and_grads,
    make_batch,
    param_count,
    param_count_formula,
    relative_position_bucket,
    validate_params,
)
from t2tbio.rng import SplitMix64

from reference_model import bucket_scalar, einsum_weight_grad, reference_forward, scalar_init_params

SMOKE = ModelConfig(
    vocab_size=256,
    d_model=64,
    n_heads=4,
    d_ff=128,
    rel_pos_buckets=16,
    rel_pos_max_distance=32,
    max_seq_len=64,
)

TINY = ModelConfig(
    vocab_size=23,
    d_model=8,
    n_heads=2,
    d_ff=16,
    n_encoder_layers=2,
    n_decoder_layers=2,
    rel_pos_buckets=8,
    rel_pos_max_distance=16,
    max_seq_len=16,
    dtype="float64",
)


def tiny_batch(seed=0, b=2, s=4, t=5, cfg=TINY) -> Batch:
    rng = SplitMix64(seed)
    pairs = []
    for _ in range(b):
        enc = [3 + rng.next_below(cfg.vocab_size - 3) for _ in range(1 + rng.next_below(s - 1))]
        tgt = [3 + rng.next_below(cfg.vocab_size - 3) for _ in range(1 + rng.next_below(t - 1))]
        pairs.append((enc, tgt))
    return make_batch(pairs)


def randomized_params(cfg, seed=0):
    params = init_params(cfg, seed=seed)
    rng = SplitMix64(seed + 999)
    for name in ("enc.rel_bias", "dec.rel_bias"):
        params[name] = params[name] + 0.1 * np.array(
            [[rng.next_normal() for _ in range(params[name].shape[1])] for _ in range(params[name].shape[0])],
            dtype=params[name].dtype,
        )
    return params


class TestRelativePositionBucket:
    def test_distance_zero_bidirectional(self):
        assert relative_position_bucket(0, 32, 128, True) == 0

    def test_signs_get_distinct_buckets(self):
        for d in (1, 3, 17, 100):
            plus = relative_position_bucket(d, 32, 128, True)
            minus = relative_position_bucket(-d, 32, 128, True)
            assert plus != minus

    def test_matches_scalar_recomputation(self):
        for bidirectional in (True, False):
            for n_buckets, max_distance in ((32, 128), (8, 16), (16, 64)):
                distances = np.arange(-64, 65)
                got = relative_position_bucket(distances, n_buckets, max_distance, bidirectional)
                want = [bucket_scalar(int(d), n_buckets, max_distance, bidirectional) for d in distances]
                assert got.tolist() == want

    def test_clamps_beyond_max_distance(self):
        far = relative_position_bucket(-10_000, 32, 128, False)
        farther = relative_position_bucket(-100_000, 32, 128, False)
        assert far == farther == 31


class TestForward:
    def test_matches_reference_recomputation(self):
        params = randomized_params(TINY, seed=4)
        batch = tiny_batch(seed=4)
        ours = forward(params, TINY, batch)
        ref = reference_forward(params, TINY, batch)
        np.testing.assert_allclose(ours, ref, rtol=1e-9, atol=1e-11)

    def test_single_layer_small_model_matches_reference(self):
        cfg = ModelConfig(
            vocab_size=11,
            d_model=4,
            n_heads=1,
            d_ff=8,
            n_encoder_layers=1,
            n_decoder_layers=1,
            rel_pos_buckets=4,
            rel_pos_max_distance=8,
            max_seq_len=8,
            dtype="float64",
        )
        params = randomized_params(cfg, seed=5)
        batch = make_batch([([3, 4], [5, 6])])
        np.testing.assert_allclose(
            forward(params, cfg, batch), reference_forward(params, cfg, batch), rtol=1e-9, atol=1e-11
        )

    def test_causal_mask(self):
        params = randomized_params(TINY, seed=1)
        base = Batch(
            encoder_ids=np.array([[3, 4, 5]]),
            decoder_ids=np.array([[0, 7, 8, 9]]),
            target_ids=np.array([[7, 8, 9, 10]]),
        )
        changed = Batch(
            encoder_ids=base.encoder_ids.copy(),
            decoder_ids=base.decoder_ids.copy(),
            target_ids=base.target_ids.copy(),
        )
        changed.decoder_ids[0, 3] = 12  # only position 3 differs
        a = forward(params, TINY, base)
        b = forward(params, TINY, changed)
        np.testing.assert_array_equal(a[0, :3], b[0, :3])
        assert not np.array_equal(a[0, 3], b[0, 3])

    def test_padding_does_not_change_real_logits(self):
        params = randomized_params(TINY, seed=2)
        short = make_batch([([3, 4, 5], [6, 7])])
        padded = Batch(
            encoder_ids=np.pad(short.encoder_ids, ((0, 0), (0, 3))),
            decoder_ids=np.pad(short.decoder_ids, ((0, 0), (0, 2))),
            target_ids=np.pad(short.target_ids, ((0, 0), (0, 2))),
        )
        a = forward(params, TINY, short)
        b = forward(params, TINY, padded)
        np.testing.assert_allclose(a[0, : short.target_ids.shape[1]], b[0, : short.target_ids.shape[1]], atol=1e-12)

    def test_masked_attention_weight_is_exact_zero(self):
        from t2tbio.model import _forward_with_cache

        params = randomized_params(TINY, seed=3)
        batch = make_batch([([3, 4], [5]), ([3, 4, 5, 6], [5, 6])])
        assert not batch.encoder_valid.all()  # row 0 has pad columns
        _, (enc_cache, dec_cache) = _forward_with_cache(params, TINY, batch)
        pad_cols = ~batch.encoder_valid
        for c_n1, c_attn, c_n2, c_ff in enc_cache["layers"]:
            attn = c_attn[5]  # softmax probabilities [B, H, Q, K]
            for b in range(attn.shape[0]):
                assert np.all(attn[b][:, :, pad_cols[b]] == 0.0)
        for layer in dec_cache["layers"]:
            cross_attn = layer[3][5]
            for b in range(cross_attn.shape[0]):
                assert np.all(cross_attn[b][:, :, pad_cols[b]] == 0.0)

    def test_rejects_out_of_range_ids(self):
        params = init_params(TINY, seed=0)
        batch = make_batch([([3], [TINY.vocab_size])])
        with pytest.raises(ConfigError, match="out of range"):
            forward(params, TINY, batch)

    def test_rejects_over_length(self):
        params = init_params(TINY, seed=0)
        batch = make_batch([(list(range(3, 3 + TINY.max_seq_len)), [3])])
        with pytest.raises(ConfigError, match="max_seq_len"):
            forward(params, TINY, batch)


class TestLoss:
    def test_uniform_logits_loss_is_log_vocab(self):
        logits = np.zeros((2, 3, 23))
        targets = np.full((2, 3), 5)
        mask = np.ones((2, 3), dtype=bool)
        loss, _ = cross_entropy(logits, targets, mask)
        assert abs(loss - math.log(23)) < 1e-12

    def test_zero_embedding_model_hits_log_vocab(self):
        params = init_params(TINY, seed=0)
        params["embedding"] = np.zeros_like(params["embedding"])
        batch = tiny_batch(seed=9)
        loss, _ = loss_and_grads(params, TINY, batch)
        assert abs(loss - math.log(TINY.vocab_size)) < 1e-6

    def test_all_pad_row_contributes_zero(self):
        params = randomized_params(TINY, seed=6)
        batch = tiny_batch(seed=6, b=2)
        loss_before, _ = loss_and_grads(params, TINY, batch)
        t = batch.target_ids.shape[1]
        widened = Batch(
            encoder_ids=np.vstack([batch.encoder_ids, batch.encoder_ids[:1]]),
            decoder_ids=np.vstack([batch.decoder_ids, np.zeros((1, t), dtype=np.int64)]),
            target_ids=np.vstack([batch.target_ids, np.zeros((1, t), dtype=np.int64)]),
        )
        loss_after, _ = loss_and_grads(params, TINY, widened)
        assert abs(loss_before - loss_after) < 1e-12

    def test_all_pad_batch_is_an_error(self):
        params = init_params(TINY, seed=0)
        batch = Batch(
            encoder_ids=np.array([[3]]),
            decoder_ids=np.array([[0]]),
            target_ids=np.array([[0]]),
        )
        with pytest.raises(ModelError, match="empty loss"):
            loss_and_grads(params, TINY, batch)

    def test_duplicating_rows_preserves_loss(self):
        params = randomized_params(TINY, seed=7)
        batch = tiny_batch(seed=7, b=2)
        loss, _ = loss_and_grads(params, TINY, batch)
        doubled = Batch(
            encoder_ids=np.vstack([batch.encoder_ids] * 2),
            decoder_ids=np.vstack([batch.decoder_ids] * 2),
            target_ids=np.vstack([batch.target_ids] * 2),
        )
        loss2, _ = loss_and_grads(params, TINY, doubled)
        assert abs(loss - loss2) < 1e-12


class TestGreedyDecode:
    def test_deterministic(self):
        params = randomized_params(TINY, seed=8)
        a = greedy_decode(params, TINY, [3, 4, 5], max_len=6)
        b = greedy_decode(params, TINY, [3, 4, 5], max_len=6)
        assert a == b

    def test_max_len_one(self):
        params = randomized_params(TINY, seed=8)
        out = greedy_decode(params, TINY, [3, 4], max_len=1)
        assert len(out) <= 1

    def test_never_longer_than_max_len(self):
        params = randomized_params(TINY, seed=10)
        for max_len in (1, 2, 5):
            assert len(greedy_decode(params, TINY, [4, 5], max_len=max_len)) <= max_len


class TestParams:
    def test_param_count_matches_formula(self):
        for cfg in (
            TINY,
            ModelConfig(vocab_size=101, d_model=16, n_heads=4, d_ff=32),
            ModelConfig(
                vocab_size=50,
                d_model=12,
                n_heads=3,
                d_ff=20,
                n_encoder_layers=1,
                n_decoder_layers=3,
            ),
        ):
            params = init_params(cfg, seed=0)
            assert param_count(params) == param_count_formula(cfg)

    def test_validate_catches_shape_mismatch(self):
        params = init_params(TINY, seed=0)
        params["embedding"] = params["embedding"][:, :4]
        with pytest.raises(ConfigError, match="shape mismatch"):
            validate_params(params, TINY)

    def test_validate_catches_non_finite(self):
        params = init_params(TINY, seed=0)
        params["enc.norm"][0] = np.nan
        with pytest.raises(ConfigError, match="non-finite"):
            validate_params(params, TINY)

    def test_init_is_deterministic(self):
        a = init_params(TINY, seed=3)
        b = init_params(TINY, seed=3)
        for name in a:
            np.testing.assert_array_equal(a[name], b[name])

    def test_shapes_cover_all_names(self):
        params = init_params(TINY, seed=0)
        assert set(params) == set(expected_shapes(TINY))

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_float32_init_bit_equal_to_scalar_draws(self, seed):
        params = init_params(SMOKE, seed=seed)
        reference = scalar_init_params(expected_shapes(SMOKE), SMOKE, seed)
        assert params.keys() == reference.keys()
        for name in params:
            assert params[name].dtype == reference[name].dtype
            assert params[name].tobytes() == reference[name].tobytes(), name


class TestWeightGradients:
    # BLAS and einsum sum the same products in different orders; the bounds
    # allow that reordering at each dtype's precision and nothing more
    @pytest.mark.parametrize("cfg, tol", [(TINY, 1e-12), (SMOKE, 1e-5)])
    def test_matches_einsum_contraction(self, cfg, tol, monkeypatch):
        params = randomized_params(cfg, seed=5)
        batch = tiny_batch(seed=5, b=4, s=12, t=9, cfg=cfg)
        loss, grads = loss_and_grads(params, cfg, batch)
        monkeypatch.setattr(model, "_weight_grad", einsum_weight_grad)
        ref_loss, ref_grads = loss_and_grads(params, cfg, batch)
        assert loss == ref_loss
        for name, g in grads.items():
            err = np.linalg.norm(g - ref_grads[name]) / max(np.linalg.norm(ref_grads[name]), 1e-30)
            assert err < tol, (name, err)


class TestConfigValidation:
    def test_heads_must_divide(self):
        with pytest.raises(ConfigError):
            ModelConfig(vocab_size=10, d_model=10, n_heads=3)

    def test_dropout_must_be_zero(self):
        with pytest.raises(ConfigError):
            ModelConfig(vocab_size=10, dropout_rate=0.1)

    def test_dtype_checked(self):
        with pytest.raises(ConfigError):
            ModelConfig(vocab_size=10, dtype="float16")
