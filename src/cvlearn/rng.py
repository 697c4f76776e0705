"""Deterministic, cross-platform pseudo-random numbers.

Counter-mode splitmix64: draw i of a stream seeded with ``s`` is
``mix64(s + (i+1) * GOLDEN)``, so any block of draws is a pure uint64
computation that vectorizes and reproduces bit-identically everywhere.
Draws are made in blocks of at most ``_BLOCK``, each finished in place
into its slice of the output, so a draw of any size allocates its output
and a few block-sized scratch arrays, nothing more. Every operation acts
on each draw alone, so the block size never changes a bit.
Named substreams derive fresh seeds from the parent seed and a label,
so independent consumers (init, shuffling, noise) never share draws.
Gaussians come from Box-Muller, so their bits also rest on numpy's
float64 log, cos and sin; shuffles sort random 64-bit keys.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .errors import ContractError

GOLDEN = 0x9E3779B97F4A7C15

_MASK = 0xFFFFFFFFFFFFFFFF
_MAX_DRAWS = np.iinfo(np.intp).max // 8
# draws per block: the scratch arrays of one block stay in cache
_BLOCK = 1 << 14


def _const(value, dtype=np.uint64) -> np.ndarray:
    """A read-only 0-d array: numpy applies one without the per-call
    conversion a Python number or numpy scalar operand costs."""
    a = np.array(value, dtype=dtype)
    a.flags.writeable = False
    return a


# i * GOLDEN for each draw i of a block (wrapping)
_STEPS = _const(np.arange(_BLOCK, dtype=np.uint64) * np.uint64(GOLDEN))
_M1, _M2 = _const(0xBF58476D1CE4E5B9), _const(0x94D049BB133111EB)
_S11, _S27, _S30, _S31, _ONE = (_const(v) for v in (11, 27, 30, 31, 1))
_ULP, _NEG2, _TWO_PI = (_const(v, np.float64) for v in (2.0**-53, -2.0, 2.0 * np.pi))


def _mix64(z: np.ndarray, t: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer, in place on the uint64 array ``z`` (wrapping
    arithmetic), with ``t`` (same shape) as scratch; returns ``z``."""
    np.right_shift(z, _S30, out=t)
    z ^= t
    z *= _M1
    np.right_shift(z, _S27, out=t)
    z ^= t
    z *= _M2
    np.right_shift(z, _S31, out=t)
    z ^= t
    return z


def _fnv1a64(name: str) -> int:
    h = 0xCBF29CE484222325
    for byte in name.encode("utf-8"):
        h = ((h ^ byte) * 0x100000001B3) & _MASK
    return h


def _count(size) -> int:
    """Entries of an int or tuple ``size``, multiplied as Python ints so
    the count cannot wrap. Raises ContractError for a negative, bool or
    non-integer dimension and MemoryError when the entries cannot be
    addressed, before anything is allocated or drawn."""
    dims = size if isinstance(size, tuple) else (size,)
    try:  # operator.index takes a bool, but numpy's reshape does not
        dims = [operator.index(None if isinstance(d, bool) else d) for d in dims]
    except TypeError:
        raise ContractError(f"draw size {size!r} must be a non-negative integer "
                            "or a tuple of them") from None
    if min(dims, default=0) < 0:
        raise ContractError(f"draw size {size!r} has a negative dimension")
    n = math.prod(dims)
    if n > _MAX_DRAWS:
        raise MemoryError(f"{n} draws of 8 bytes cannot be allocated")
    return n


class Rng:
    """Stateful counter over the splitmix64 output sequence for one seed."""

    def __init__(self, seed: int):
        self._seed = operator.index(seed) & _MASK
        self._counter = 0

    @property
    def seed(self) -> int:
        return self._seed

    def substream(self, name: str) -> "Rng":
        """Independent child stream; same (seed, name) always gives the same stream."""
        z = np.array([self._seed ^ _fnv1a64(name)], dtype=np.uint64)
        return Rng(int(_mix64(z, np.empty_like(z))[0]))

    def _counters(self, z: np.ndarray, start: int) -> np.ndarray:
        """The splitmix64 inputs of draws ``start + 1 .. start + len(z)``,
        written into ``z``; the counter does not move. The base is summed in
        Python ints and masked, so no uint64 scalar can overflow."""
        base = (self._seed + (start + 1) * GOLDEN) & _MASK
        return np.add(_STEPS[:len(z)], np.array(base, dtype=np.uint64), out=z)

    def u64(self, n: int) -> np.ndarray:
        """Next n raw 64-bit draws; ContractError for a negative or
        non-integer n, MemoryError when n * 8 bytes exceeds what numpy can
        address, both before anything is allocated or drawn."""
        n = _count((n,))  # a count, not a shape
        out = np.empty(n, dtype=np.uint64)
        t = np.empty(min(n, _BLOCK), dtype=np.uint64)
        for lo in range(0, n, _BLOCK):
            z = out[lo:lo + _BLOCK]
            _mix64(self._counters(z, self._counter + lo), t[:len(z)])
        self._counter += n
        return out

    def uniform(self, low: float, high: float, size) -> np.ndarray:
        """Uniform floats in [low, high) from the top 53 bits of each draw."""
        n = _count(size)
        out = np.empty(n)
        z = np.empty(min(n, _BLOCK), dtype=np.uint64)
        t = np.empty_like(z)
        span = high - low
        for lo in range(0, n, _BLOCK):
            o = out[lo:lo + _BLOCK]
            k = len(o)
            zk = _mix64(self._counters(z[:k], self._counter + lo), t[:k])
            zk >>= _S11
            np.multiply(zk, _ULP, out=o)
            o *= span
            o += low
        self._counter += n
        return out.reshape(size)

    def normal(self, size) -> np.ndarray:
        """Standard normals via Box-Muller. Draws j and m + j (m = ceil(n/2))
        form pair j, whose cos half is entry j and whose sin half is entry
        m + j, truncated at n."""
        n = _count(size)
        m = (n + 1) // 2
        out = np.empty(n)
        z = np.empty(2 * min(m, _BLOCK // 2), dtype=np.uint64)
        t = np.empty_like(z)
        u = np.empty(len(z))
        for lo in range(0, m, _BLOCK // 2):
            k = min(m - lo, _BLOCK // 2)
            # a block holds pairs lo .. lo + k - 1: their first draws, then
            # their second
            self._counters(z[:k], self._counter + lo)
            self._counters(z[k:2 * k], self._counter + m + lo)
            zk = _mix64(z[:2 * k], t[:2 * k])
            zk >>= _S11
            zk[:k] += _ONE  # u1 in (0, 1] so log() is finite; u2 in [0, 1)
            uk = np.multiply(zk, _ULP, out=u[:2 * k])
            r, theta = uk[:k], uk[k:]
            np.log(r, out=r)
            r *= _NEG2
            np.sqrt(r, out=r)
            theta *= _TWO_PI
            o = np.cos(theta, out=out[lo:lo + k])
            o *= r
            ks = min(k, n - m - lo)  # the last sin half is dropped when n is odd
            o = np.sin(theta[:ks], out=out[m + lo:m + lo + ks])
            o *= r[:ks]
        self._counter += 2 * m
        return out.reshape(size)

    def permutation(self, n: int) -> np.ndarray:
        """Permutation of range(n) by stable argsort of random keys."""
        return np.argsort(self.u64(n), kind="stable")
