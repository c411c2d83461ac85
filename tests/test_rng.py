import numpy as np
import pytest

from t2tbio.model import _NORMAL_BLOCK
from t2tbio.rng import SplitMix64, jump

from oracles import next_normal, normal_array, u64_array


@pytest.mark.parametrize("seed", [0, 12345, 2**64 - 3])
def test_u64_array_matches_scalar_stream(seed):
    # 2**64 - 3 wraps the counter on the first draw
    scalar = SplitMix64(seed)
    expected = [scalar.next_u64() for _ in range(10_000)]
    vector = SplitMix64(seed)
    head = u64_array(vector, 7_000)
    tail = u64_array(vector, 3_000)
    assert head.dtype == np.uint64
    assert [int(x) for x in np.concatenate([head, tail])] == expected
    assert vector.getstate() == scalar.getstate()


def test_normal_array_follows_scalar_draws():
    scalar = SplitMix64(9)
    expected = np.array([next_normal(scalar) for _ in range(2_000)])
    vector = SplitMix64(9)
    got = normal_array(vector, 2_000)
    # numpy's log and cos may round differently from libm in the last ulp
    np.testing.assert_allclose(got, expected, rtol=4 * np.finfo(np.float64).eps, atol=0)
    assert vector.getstate() == scalar.getstate()


@pytest.mark.parametrize("seed", [0, -1, 2**64 - 5])
@pytest.mark.parametrize("n", [0, 1, 2 * _NORMAL_BLOCK - 1, 2 * _NORMAL_BLOCK, 2 * _NORMAL_BLOCK + 1])
def test_jump_equals_drawing_and_discarding(seed, n):
    # n around the draws of one block of normals; from these seeds the
    # counter passes 2**64 within the first draws
    drawn = SplitMix64(seed)
    for _ in range(n):
        drawn.next_u64()
    jumped = SplitMix64(jump(SplitMix64(seed).getstate(), n))
    assert jumped.getstate() == drawn.getstate()
    assert u64_array(jumped, 3).tolist() == [drawn.next_u64() for _ in range(3)]
