"""Seedable 64-bit PRNG used everywhere randomness must be reproducible.

SplitMix64 (Steele, Lea & Flood's mix function) is fully specified by a handful
of integer operations, so any implementation seeded with the same 64-bit value
produces the identical stream. All sampling in this package (span placement,
mixture draws, weight init) goes through this class; nothing draws from global
random state.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """Deterministic 64-bit generator; whole state is one integer."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def next_u64_array(self, count: int) -> np.ndarray:
        """The next ``count`` outputs of ``next_u64`` as a uint64 array.

        The state after n draws is seed + n * gamma (mod 2**64), so the whole
        stream is one vector of counters pushed through the mix function;
        uint64 arithmetic wraps exactly like the masked Python integers.
        """
        z = np.arange(1, count + 1, dtype=np.uint64)
        z *= np.uint64(_GAMMA)
        z += np.uint64(self.state)
        self.state = (self.state + count * _GAMMA) & _MASK64
        z ^= z >> np.uint64(30)
        z *= np.uint64(_MIX1)
        z ^= z >> np.uint64(27)
        z *= np.uint64(_MIX2)
        z ^= z >> np.uint64(31)
        return z

    def next_below(self, n: int) -> int:
        """Uniform integer in [0, n). Plain modulo; bias is negligible for desk-scale n."""
        if n <= 0:
            raise ValueError("next_below requires n > 0")
        return self.next_u64() % n

    def next_float(self) -> float:
        """Uniform float in [0, 1) with 53 bits of randomness."""
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))

    def next_geometric(self, mean: float) -> int:
        """Geometric length >= 1 with the given mean (inverse-CDF sampling)."""
        if mean <= 1.0:
            return 1
        p = 1.0 / mean
        u = self.next_float()
        # u == 0 maps to length 1; log1p keeps precision for small p
        return 1 + int(math.log1p(-u) / math.log1p(-p))

    def next_normal(self) -> float:
        """Standard normal via Box-Muller (one value per two uniforms)."""
        u1 = self.next_float()
        u2 = self.next_float()
        # avoid log(0)
        u1 = max(u1, 5e-324)
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)

    def next_normal_array(self, count: int) -> np.ndarray:
        """``count`` draws of ``next_normal`` as a float64 array, from the same
        stream. numpy's log and cos may differ from ``math``'s in the last ulp."""
        u = (self.next_u64_array(2 * count) >> np.uint64(11)) * (1.0 / (1 << 53))
        u1 = np.maximum(u[0::2], 5e-324)
        return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * math.pi * u[1::2])

    def getstate(self) -> int:
        return self.state

    def setstate(self, state: int) -> None:
        self.state = state & _MASK64
