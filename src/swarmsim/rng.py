"""Deterministic random streams built on SplitMix64.

Every source of randomness in a run is a SplitMix64 stream: one master
stream (spawning) plus one derived stream per robot. Streams are plain
64-bit integer state, so runs replay bit-exactly on any platform and
per-robot sequences do not depend on how many robots exist.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

MASK64 = (1 << 64) - 1

# SplitMix64 constants: golden-ratio increment and the two mixing multipliers.
GOLDEN_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

_INV_2_64 = 1.0 / 2.0**64


class RngStream:
    """SplitMix64 generator with a single 64-bit word of state."""

    __slots__ = ("state",)

    def __init__(self, seed: int) -> None:
        self.state = seed & MASK64

    def next_u64(self) -> int:
        """Advance one step and return the next 64-bit output."""
        self.state = (self.state + GOLDEN_GAMMA) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & MASK64
        return z ^ (z >> 31)

    def uniform(self) -> float:
        """One draw mapped to [0, 1)."""
        return self.next_u64() * _INV_2_64

    def copy(self) -> RngStream:
        return RngStream(self.state)

    def jump(self, steps: int) -> None:
        """Advance `steps` steps at once: SplitMix64 is counter-based, so
        its state after k steps is the seed plus k increments."""
        self.state = (self.state + steps * GOLDEN_GAMMA) & MASK64


def uniform_batch(streams: Sequence[RngStream]) -> np.ndarray:
    """One `uniform` draw from each stream, bit-identical to the scalar form:
    SplitMix64 on a uint64 array, whose arithmetic wraps mod 2**64."""
    state = np.fromiter((s.state for s in streams), dtype=np.uint64, count=len(streams))
    state += np.uint64(GOLDEN_GAMMA)
    for stream, value in zip(streams, state.tolist()):
        stream.state = value
    return _uniform_of_states(state)


def uniform_run(stream: RngStream, first: int, count: int) -> np.ndarray:
    """Draws first + 1 .. first + count of `stream` from its current state,
    as `uniform` would return them, without advancing it: draw k is the
    output for state + k * GOLDEN_GAMMA (mod 2**64)."""
    state = np.arange(first + 1, first + count + 1, dtype=np.uint64)
    state *= np.uint64(GOLDEN_GAMMA)
    state += np.uint64(stream.state)
    return _uniform_of_states(state)


def _uniform_of_states(state: np.ndarray) -> np.ndarray:
    """The `uniform` output of each already-advanced uint64 state."""
    z = state ^ (state >> np.uint64(30))
    z *= np.uint64(_MIX1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX2)
    z ^= z >> np.uint64(31)
    return z.astype(np.float64) * _INV_2_64


def stream_seed(master_seed: int, robot_id: int) -> int:
    """Seed for robot `robot_id`'s private stream, independent of robot count.
    Also takes a uint64 array of ids, whose arithmetic wraps as `& MASK64`
    does, and returns the seeds as a uint64 array."""
    return (master_seed ^ ((robot_id + 1) * GOLDEN_GAMMA)) & MASK64


def mix64(x: int) -> int:
    """One-shot SplitMix64 output for state `x` (stateless convenience)."""
    return RngStream(x).next_u64()
