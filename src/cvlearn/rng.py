"""Deterministic, cross-platform pseudo-random numbers.

Counter-mode splitmix64: draw i of a stream seeded with ``s`` is
``mix64(s + (i+1) * GOLDEN)``, so any block of draws is a pure uint64
computation that vectorizes and reproduces bit-identically everywhere.
Named substreams derive fresh seeds from the parent seed and a label,
so independent consumers (init, shuffling, noise) never share draws.
Gaussians come from Box-Muller; shuffles sort random 64-bit keys.
"""

from __future__ import annotations

import math

import numpy as np

GOLDEN = np.uint64(0x9E3779B97F4A7C15)

_U64 = np.uint64
_MASK = 0xFFFFFFFFFFFFFFFF


def _mix64(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer on a uint64 array (wrapping arithmetic)."""
    z = (z ^ (z >> _U64(30))) * _U64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> _U64(27))) * _U64(0x94D049BB133111EB)
    return z ^ (z >> _U64(31))


def _fnv1a64(name: str) -> int:
    h = 0xCBF29CE484222325
    for byte in name.encode("utf-8"):
        h = ((h ^ byte) * 0x100000001B3) & _MASK
    return h


def _count(size) -> int:
    """Entries of an int or tuple ``size``, multiplied as Python ints so
    the count cannot wrap."""
    return math.prod(map(int, size)) if isinstance(size, tuple) else int(size)


class Rng:
    """Stateful counter over the splitmix64 output sequence for one seed."""

    def __init__(self, seed: int):
        self._seed = _U64(seed & _MASK)
        self._counter = 0

    @property
    def seed(self) -> int:
        return int(self._seed)

    def substream(self, name: str) -> "Rng":
        """Independent child stream; same (seed, name) always gives the same stream."""
        mixed = _mix64(np.array([self._seed ^ _U64(_fnv1a64(name))], dtype=np.uint64))
        child = Rng(0)
        child._seed = mixed[0]
        return child

    def u64(self, n: int) -> np.ndarray:
        """Next n raw 64-bit draws; MemoryError when n * 8 bytes exceeds
        what numpy can address, before anything is allocated."""
        if n * 8 > np.iinfo(np.intp).max:
            raise MemoryError(f"{n} draws of 8 bytes cannot be allocated")
        idx = np.arange(self._counter + 1, self._counter + n + 1, dtype=np.uint64)
        self._counter += n
        return _mix64(self._seed + idx * GOLDEN)

    def uniform(self, low: float, high: float, size) -> np.ndarray:
        """Uniform floats in [low, high) from the top 53 bits of each draw."""
        u = (self.u64(_count(size)) >> _U64(11)).astype(np.float64) * 2.0**-53
        return (low + (high - low) * u).reshape(size)

    def normal(self, size) -> np.ndarray:
        """Standard normals via Box-Muller (two draws per pair)."""
        n = _count(size)
        m = (n + 1) // 2
        raw = self.u64(2 * m)
        # u1 in (0, 1] so log() is finite; u2 in [0, 1)
        u1 = ((raw[:m] >> _U64(11)) + _U64(1)).astype(np.float64) * 2.0**-53
        u2 = (raw[m:] >> _U64(11)).astype(np.float64) * 2.0**-53
        r = np.sqrt(-2.0 * np.log(u1))
        theta = 2.0 * np.pi * u2
        z = np.concatenate([r * np.cos(theta), r * np.sin(theta)])[:n]
        return z.reshape(size)

    def permutation(self, n: int) -> np.ndarray:
        """Permutation of range(n) by stable argsort of random keys."""
        return np.argsort(self.u64(n), kind="stable")
