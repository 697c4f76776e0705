"""DFT/IDFT and the discrete Hilbert transform, in two independent forms.

The spectral path multiplies DFT bins by -i (positive frequencies) or +i
(negative frequencies) while passing the DC and Nyquist bins through
unchanged; it is the canonical transform. The training penalty applies
it as one matmul against its dense n x n matrix, built once per n by the
spectral path itself (``hilbert_rows``). The cotangent-kernel path is a
direct time-domain evaluation kept as a cross-check; the two agree on
signals with zero DC and Nyquist content.

Power-of-two lengths run through an iterative radix-2 FFT with
bit-reversal ordering; every other length uses direct summation against
a cached kernel matrix.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .autodiff import Tensor, record_op
from .errors import ContractError, DataError


class ComplexVector:
    """Paired real/imaginary float64 arrays of equal length."""

    __slots__ = ("re", "im")

    def __init__(self, re, im):
        self.re = np.ascontiguousarray(re, dtype=np.float64)
        self.im = np.ascontiguousarray(im, dtype=np.float64)
        if self.re.ndim != 1 or self.re.shape != self.im.shape:
            raise ContractError(
                f"ComplexVector parts must be equal-length 1-D arrays, "
                f"got {self.re.shape} and {self.im.shape}")
        if self.re.size < 1:
            raise ContractError("ComplexVector must have length >= 1")
        if not (np.isfinite(self.re).all() and np.isfinite(self.im).all()):
            raise DataError("ComplexVector: non-finite entries")

    def __len__(self) -> int:
        return self.re.size

    def to_complex(self) -> np.ndarray:
        return self.re + 1j * self.im

    @classmethod
    def from_complex(cls, z: np.ndarray) -> "ComplexVector":
        return cls(z.real, z.imag)


class HilbertMultiplier:
    """Per-bin spectral factors: 1 at DC and Nyquist, -i then +i elsewhere."""

    __slots__ = ("n", "multipliers")

    def __init__(self, n: int):
        if n < 2 or n % 2 != 0:
            raise ContractError(f"Hilbert multiplier requires even n >= 2, got {n}")
        m = np.empty(n, dtype=np.complex128)
        m[0] = 1.0
        m[n // 2] = 1.0
        m[1:n // 2] = -1j
        m[n // 2 + 1:] = 1j
        self.n = n
        self.multipliers = m


@lru_cache(maxsize=32)
def _multiplier(n: int) -> np.ndarray:
    return HilbertMultiplier(n).multipliers


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@lru_cache(maxsize=32)
def _bit_reversal(n: int) -> np.ndarray:
    bits = n.bit_length() - 1
    rev = np.zeros(n, dtype=np.intp)
    for i in range(n):
        r = 0
        x = i
        for _ in range(bits):
            r = (r << 1) | (x & 1)
            x >>= 1
        rev[i] = r
    return rev


def _fft_pow2(z: np.ndarray, sign: int) -> np.ndarray:
    """Iterative radix-2 transform along the last axis (no normalization)."""
    n = z.shape[-1]
    out = np.ascontiguousarray(z[..., _bit_reversal(n)], dtype=np.complex128)
    size = 2
    while size <= n:
        half = size // 2
        tw = np.exp(sign * 2j * np.pi * np.arange(half) / size)
        shaped = out.reshape(out.shape[:-1] + (n // size, size))
        even = shaped[..., :half]
        odd = shaped[..., half:] * tw
        upper = even + odd
        lower = even - odd
        shaped[..., :half] = upper
        shaped[..., half:] = lower
        size *= 2
    return out


@lru_cache(maxsize=8)
def _dft_kernel(n: int, sign: int) -> np.ndarray:
    idx = np.arange(n)
    return np.exp(sign * 2j * np.pi * np.outer(idx, idx) / n)


def dft_array(z: np.ndarray, inverse: bool = False) -> np.ndarray:
    """DFT along the last axis; FFT for power-of-two n, direct sum otherwise.

    Forward: X[b] = sum_n z[n] exp(-2i pi b n / N).
    Inverse: z[n] = (1/N) sum_b X[b] exp(+2i pi b n / N).
    """
    z = np.asarray(z, dtype=np.complex128)
    n = z.shape[-1]
    sign = 1 if inverse else -1
    if _is_pow2(n):
        out = _fft_pow2(z, sign)
    else:
        out = z @ _dft_kernel(n, sign).T
    if inverse:
        out = out / n
    return out


def dft_direct_array(z: np.ndarray, inverse: bool = False) -> np.ndarray:
    """Direct O(n^2) summation along the last axis; oracle for the FFT path."""
    z = np.asarray(z, dtype=np.complex128)
    n = z.shape[-1]
    sign = 1 if inverse else -1
    out = z @ _dft_kernel(n, sign).T
    return out / n if inverse else out


def dft(x: ComplexVector) -> ComplexVector:
    return ComplexVector.from_complex(dft_array(x.to_complex()))


def idft(x: ComplexVector) -> ComplexVector:
    return ComplexVector.from_complex(dft_array(x.to_complex(), inverse=True))


def _check_hilbert_input(z: np.ndarray, op: str) -> np.ndarray:
    z = np.ascontiguousarray(z, dtype=np.float64)
    n = z.shape[-1]
    if n % 2 != 0 or n < 2:
        raise ContractError(f"{op} requires an even signal length >= 2, got {n}")
    if not np.isfinite(z).all():
        raise DataError(f"{op}: non-finite input")
    return z


def _hilbert_core(z: np.ndarray, multipliers: np.ndarray) -> np.ndarray:
    spec = dft_array(z) * multipliers
    out = dft_array(spec, inverse=True)
    # residue bound scaled by input magnitude; a symmetric multiplier keeps
    # the inverse transform real to rounding error
    limit = 1e-9 * max(1.0, float(np.abs(z).max(initial=0.0)))
    if not np.abs(out.imag).max(initial=0.0) <= limit:
        raise ContractError("inverse transform produced a non-real result")
    return np.ascontiguousarray(out.real)


def hilbert_freq(z: np.ndarray) -> np.ndarray:
    """Spectral discrete Hilbert transform of a real 1-D signal (even length)."""
    z = _check_hilbert_input(z, "hilbert_freq")
    if z.ndim != 1:
        raise ContractError("hilbert_freq takes a 1-D signal; see hilbert_rows_array")
    return _hilbert_core(z, _multiplier(z.shape[-1]))


def hilbert_rows_array(z: np.ndarray) -> np.ndarray:
    """Row-wise spectral Hilbert transform of a [batch, n] real array."""
    z = _check_hilbert_input(z, "hilbert_rows_array")
    return _hilbert_core(z, _multiplier(z.shape[-1]))


def hilbert_adjoint_rows_array(g: np.ndarray) -> np.ndarray:
    """Transpose of the row-wise transform (conjugated multiplier)."""
    g = _check_hilbert_input(g, "hilbert_adjoint_rows_array")
    return _hilbert_core(g, np.conj(_multiplier(g.shape[-1])))


@lru_cache(maxsize=32)
def _cotangent_kernel(n: int) -> np.ndarray:
    diff = np.arange(n)[:, None] - np.arange(n)[None, :]
    odd = (diff % 2) != 0
    k = np.zeros((n, n))
    k[odd] = (2.0 / n) / np.tan(diff[odd] * np.pi / n)
    return k


def dht_cotangent(x: np.ndarray) -> np.ndarray:
    """Time-domain Hilbert transform via the cotangent kernel.

    H{x}[n] = (2/N) sum_u x[u] cot((n-u) pi / N) over u of parity opposite
    to n. Agrees with hilbert_freq on zero-DC, zero-Nyquist signals; kept
    as an independent verification path.
    """
    x = _check_hilbert_input(x, "dht_cotangent")
    if x.ndim != 1:
        raise ContractError("dht_cotangent takes a 1-D signal")
    return _cotangent_kernel(x.shape[-1]) @ x


def analytic_signal(x: np.ndarray) -> ComplexVector:
    """Complex signal whose imaginary part is the Hilbert transform of x."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    return ComplexVector(x, hilbert_freq(x))


@lru_cache(maxsize=8)
def _hilbert_operator(n: int) -> np.ndarray:
    """Read-only [n, n] matrix M with ``z @ M == hilbert_rows_array(z)`` up
    to rounding: row i is the transform of the i-th unit signal."""
    op = hilbert_rows_array(np.eye(n))
    op.setflags(write=False)
    return op


def hilbert_rows(x: Tensor) -> Tensor:
    """Differentiable row-wise Hilbert transform on the autodiff tape.

    One matmul against the cached dense operator; the map is linear, so
    the gradient is the upstream gradient times its transpose.
    """
    if x.ndim < 2:
        raise ContractError(f"hilbert_rows needs a 2-D or stacked tensor, got {x.shape}")
    op = _hilbert_operator(x.shape[-1])
    return record_op("hilbert_rows", x.data @ op, (x,), (lambda g: g @ op.T,))


__all__ = [
    "ComplexVector", "HilbertMultiplier", "dft", "idft", "dft_array",
    "dft_direct_array", "hilbert_freq", "hilbert_rows_array",
    "hilbert_adjoint_rows_array", "dht_cotangent", "analytic_signal",
    "hilbert_rows",
]
