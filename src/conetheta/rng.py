"""Deterministic 64-bit PRNG (splitmix64) used for all seeded sampling.

The generator is fixed here rather than taken from numpy so that reports
are byte-identical across platforms and library versions.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1

DEFAULT_SEED = 0x7E7A

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)

#: outputs computed per refill (a suite's stream draws up to 30, or about
#: 2,000 in the reduced and Koszul suites)
_BLOCK = 256
_STEPS = np.arange(1, _BLOCK + 1, dtype=np.uint64) * _GAMMA


class SplitMix64:
    """splitmix64 stream: output i (from 1) is mix(seed + i * gamma) mod 2**64.

    The outputs do not depend on each other, so they are computed _BLOCK at
    a time with numpy uint64 array arithmetic, which wraps mod 2**64 exactly
    as the scalar recurrence does (arrays only: numpy warns on a scalar
    uint64 overflow)."""

    def __init__(self, seed: int):
        self._state = np.array([seed & _MASK], dtype=np.uint64)  # seed + (outputs computed) * gamma
        self._block: list[int] = []  # computed outputs not yet drawn, last one next

    def _refill(self) -> None:
        z = self._state + _STEPS
        self._state = z[-1:]
        z = (z ^ (z >> np.uint64(30))) * _MIX1
        z = (z ^ (z >> np.uint64(27))) * _MIX2
        self._block = (z ^ (z >> np.uint64(31))).tolist()[::-1]

    def next_u64(self) -> int:
        if not self._block:
            self._refill()
        return self._block.pop()

    def next_float(self) -> float:
        # 53 high bits, uniform in [0, 1)
        return (self.next_u64() >> 11) * 2.0 ** -53

    def next_int(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi] (inclusive); modulo bias is irrelevant
        at the ranges used here (spans of a few units)."""
        span = hi - lo + 1
        return lo + self.next_u64() % span

    def choice(self, seq):
        return seq[self.next_int(0, len(seq) - 1)]
