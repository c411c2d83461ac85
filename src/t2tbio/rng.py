"""Seedable 64-bit PRNG used everywhere randomness must be reproducible.

SplitMix64 (Steele, Lea & Flood's mix function) is fully specified by a handful
of integer operations, so any implementation seeded with the same 64-bit value
produces the identical stream. All sampling in this package (span placement,
mixture draws, weight init) goes through this class; nothing draws from global
random state.

The state after n draws is seed + n * gamma (mod 2**64): SplitMix64 is a
counter pushed through a mix function, so ``jump`` finds the state at any
offset of a stream at once, and separate blocks of one stream can be drawn in
any order, on any thread, with the bits of drawing them in turn.
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

    def getstate(self) -> int:
        return self.state

    def setstate(self, state: int) -> None:
        self.state = state & _MASK64


def jump(state: int, count: int) -> int:
    """The state of a generator at ``state`` after ``count`` draws."""
    return (state + count * _GAMMA) & _MASK64


def _mix(z: np.ndarray, scratch: np.ndarray) -> None:
    """SplitMix64's mix function, in place on the uint64 counters ``z``;
    ``scratch`` is a uint64 array of the same size."""
    np.right_shift(z, np.uint64(30), out=scratch)
    z ^= scratch
    z *= np.uint64(_MIX1)
    np.right_shift(z, np.uint64(27), out=scratch)
    z ^= scratch
    z *= np.uint64(_MIX2)
    np.right_shift(z, np.uint64(31), out=scratch)
    z ^= scratch


def draw_normals(blocks) -> None:
    """Fill each ``(out, state, std)`` of ``blocks`` with ``std`` times the
    standard normal draws of a generator at ``state``, by Box-Muller: normal
    k takes ``next_float``'s uniforms 2k and 2k+1, the first kept above 0.
    ``out`` is a 1-D array of any float dtype; each value is scaled in
    float64 and cast as it is stored.

    All blocks share one set of scratch arrays, sized to the largest, so a
    caller drawing many blocks allocates them once. The stream of each block
    depends on its ``state`` alone, so blocks may be drawn on several threads."""
    blocks = list(blocks)
    n = max((out.size for out, _, _ in blocks), default=0)
    steps = np.arange(1, 2 * n + 1, dtype=np.uint64)
    steps *= np.uint64(_GAMMA)
    z = np.empty_like(steps)
    f = np.empty(2 * n)  # the mix's scratch, then the uniforms
    for out, state, std in blocks:
        k = out.size
        zk = z[: 2 * k]
        np.add(steps[: 2 * k], np.uint64(state), out=zk)
        _mix(zk, f[: 2 * k].view(np.uint64))
        np.right_shift(zk, np.uint64(11), out=zk)  # 53-bit uniforms, exact in float64
        u1, u2 = f[:k], f[k : 2 * k]
        np.multiply(zk[0::2], 1.0 / (1 << 53), out=u1)
        np.maximum(u1, 5e-324, out=u1)
        np.multiply(zk[1::2], 1.0 / (1 << 53), out=u2)
        u2 *= 2.0 * math.pi
        r, c = zk.view(np.float64)[:k], zk.view(np.float64)[k:]  # the counters are spent
        np.log(u1, out=r)
        r *= -2.0
        np.sqrt(r, out=r)
        np.cos(u2, out=c)
        r *= c
        np.multiply(r, std, out=out)
