"""Deterministic counter-based random generator (SplitMix64).

Every random choice in this package flows from an explicit 64-bit seed
through this generator, so identical seeds reproduce identical runs
bit-for-bit on any platform.  The k-th output is mix64(seed + k * golden):
``next_u64s`` computes a block of outputs at once, as one uint64 column."""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def mix64(z: int) -> int:
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


class SplitMix64:
    """Counter-based PRNG: state advances by a fixed increment, output is a
    bijective mix of the counter."""

    def __init__(self, seed: int):
        self.seed = seed & _MASK
        self._counter = self.seed

    def next_u64(self) -> int:
        self._counter = (self._counter + _GOLDEN) & _MASK
        return mix64(self._counter)

    def next_u64s(self, count: int) -> np.ndarray:
        start, self._counter = self._counter, (self._counter + count * _GOLDEN) & _MASK
        return mix64(np.arange(1, count + 1, dtype=np.uint64) * _GOLDEN + start)

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound), unbiased via rejection."""
        if not 0 < bound <= 1 << 64:
            raise ValueError(f"bound must be in (0, 2**64], got {bound}")
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % bound

    def randrange(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi] inclusive."""
        return lo + self.below(hi - lo + 1)

    def spawn(self, tag: int) -> "SplitMix64":
        """Independent child stream; depends only on (seed, tag)."""
        return SplitMix64(mix64(self.seed ^ mix64((tag & _MASK) + _GOLDEN)))
