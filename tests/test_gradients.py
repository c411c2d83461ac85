"""Finite-difference verification of the analytic gradients.

Central differences over every element of every parameter tensor on a 2-layer
toy model in double precision; per-tensor relative error must stay below 1e-4.
"""

import numpy as np
import pytest

from t2tbio.model import ModelConfig, cross_entropy, forward, loss_and_grads, make_batch

from test_model import randomized_params, tiny_batch, TINY


def loss_only(params, cfg, batch) -> float:
    logits = forward(params, cfg, batch)
    loss, _ = cross_entropy(logits, batch.target_ids, batch.loss_mask)
    return loss


def central_difference(params, cfg, batch, name, eps=1e-5) -> np.ndarray:
    grad = np.zeros_like(params[name])
    flat_param = params[name].reshape(-1)
    flat_grad = grad.reshape(-1)
    for i in range(flat_param.size):
        original = flat_param[i]
        flat_param[i] = original + eps
        up = loss_only(params, cfg, batch)
        flat_param[i] = original - eps
        down = loss_only(params, cfg, batch)
        flat_param[i] = original
        flat_grad[i] = (up - down) / (2.0 * eps)
    return grad


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    denom = max(np.linalg.norm(analytic), np.linalg.norm(numeric), 1e-12)
    return float(np.linalg.norm(analytic - numeric) / denom)


def test_every_tensor_matches_central_differences():
    assert TINY.dtype == "float64"
    params = randomized_params(TINY, seed=12)
    batch = tiny_batch(seed=12, b=2, s=4, t=5)
    _, grads = loss_and_grads(params, TINY, batch)
    failures = []
    for name in sorted(params):
        numeric = central_difference(params, TINY, batch, name)
        err = relative_error(grads[name], numeric)
        if err >= 1e-4:
            failures.append((name, err))
    assert not failures, f"gradient mismatches: {failures}"


def test_gradients_cover_every_parameter():
    params = randomized_params(TINY, seed=1)
    batch = tiny_batch(seed=1)
    _, grads = loss_and_grads(params, TINY, batch)
    # in the parameters' order, which the optimizer state and its file follow
    assert list(grads) == list(params)
    for name, g in grads.items():
        assert g.shape == params[name].shape and g.dtype == params[name].dtype, name
    # every tensor that feeds the loss should receive some signal
    silent = [n for n, g in grads.items() if np.all(g == 0.0)]
    assert silent == []


def test_gradients_zero_for_pad_only_differences():
    # two batches identical except for extra pad columns produce identical grads
    params = randomized_params(TINY, seed=2)
    short = make_batch([([3, 4, 5], [6, 7])])
    import numpy as np

    from t2tbio.model import Batch

    padded = Batch(
        encoder_ids=np.pad(short.encoder_ids, ((0, 0), (0, 2))),
        target_ids=np.pad(short.target_ids, ((0, 0), (0, 2))),
    )
    _, g1 = loss_and_grads(params, TINY, short)
    _, g2 = loss_and_grads(params, TINY, padded)
    for name in g1:
        np.testing.assert_allclose(g1[name], g2[name], atol=1e-12)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_loss_finite_in_both_precisions(dtype):
    cfg = ModelConfig(
        vocab_size=TINY.vocab_size,
        d_model=8,
        n_heads=2,
        d_ff=16,
        n_encoder_layers=1,
        n_decoder_layers=1,
        rel_pos_buckets=8,
        rel_pos_max_distance=16,
        max_seq_len=16,
        dtype=dtype,
    )
    params = randomized_params(cfg, seed=3)
    loss, grads = loss_and_grads(params, cfg, tiny_batch(seed=3, cfg=cfg))
    assert np.isfinite(loss)
    for g in grads.values():
        assert np.all(np.isfinite(g))
