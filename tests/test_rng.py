import numpy as np
import pytest

from t2tbio.rng import SplitMix64


@pytest.mark.parametrize("seed", [0, 12345, 2**64 - 3])
def test_u64_array_matches_scalar_stream(seed):
    # 2**64 - 3 wraps the counter on the first draw
    scalar = SplitMix64(seed)
    expected = [scalar.next_u64() for _ in range(10_000)]
    vector = SplitMix64(seed)
    head = vector.next_u64_array(7_000)
    tail = vector.next_u64_array(3_000)
    assert head.dtype == np.uint64
    assert [int(x) for x in np.concatenate([head, tail])] == expected
    assert vector.getstate() == scalar.getstate()


def test_normal_array_follows_scalar_draws():
    scalar = SplitMix64(9)
    expected = np.array([scalar.next_normal() for _ in range(2_000)])
    vector = SplitMix64(9)
    got = vector.next_normal_array(2_000)
    # numpy's log and cos may round differently from libm in the last ulp
    np.testing.assert_allclose(got, expected, rtol=4 * np.finfo(np.float64).eps, atol=0)
    assert vector.getstate() == scalar.getstate()
