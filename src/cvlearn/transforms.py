"""DFT/IDFT and the discrete Hilbert transform, in two independent forms.

The spectral path multiplies DFT bins by -i (positive frequencies) or +i
(negative frequencies) while passing the DC and Nyquist bins through
unchanged; it is the canonical transform, ``hilbert_rows_array`` (also
bound as ``hilbert_freq``). The training penalty's tape op
(``hilbert_rows``) applies it as one matmul against its dense n x n
matrix, built once per n by the spectral path. The cotangent kernel, one
matrix-vector product per row, is a direct time-domain cross-check; the
two agree on signals with zero DC and Nyquist content. Each array
transform maps the last axis, whatever the leading shape.

``dft_array`` binds a real input (bool, int or float) as float64 and a
complex one as complex128, and evaluates a length n in one of two ways:

- composite n, powers of two included: the Cooley-Tukey four-step split
  n = n1 * n2, with n1 the largest divisor of n not above sqrt(n)
  (784 = 28 * 28, 64 = 8 * 8). Two batched products against the cached
  n1- and n2-point kernels, joined by a cached twiddle table, cost about
  8 n (n1 + n2) real flops per row instead of 8 n^2. A real input's first
  stage is one real product against the n1-point kernel's float64 view,
  with the bytes of the complex product, save the sign of an exactly zero
  bin of a whole-zero row. Rows go through in ``row_blocks`` of about
  1 MiB, so the only large allocation is the output, for real input too;
- prime n, n = 0 and n = 1: direct summation against the cached n-point
  kernel, of the input as complex128.

``dft_direct_array`` is the direct sum for every n and stays the
independent oracle for the split. Kernel and twiddle exponents are
reduced modulo n in integers before ``exp``, so both paths agree with
each other and with a reference FFT to about 1e-15 relative to the
largest output bin.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .autodiff import Tensor, real_array, record_op
from .errors import ContractError


@lru_cache(maxsize=32)
def _multiplier(n: int) -> np.ndarray:
    """Per-bin spectral factors: 1 at DC and Nyquist, -i then +i elsewhere."""
    if n < 2 or n % 2 != 0:
        raise ContractError(f"Hilbert multiplier requires even n >= 2, got {n}")
    m = np.empty(n, dtype=np.complex128)
    m[0] = 1.0
    m[n // 2] = 1.0
    m[1:n // 2] = -1j
    m[n // 2 + 1:] = 1j
    m.setflags(write=False)
    return m


def _roots_table(n: int, sign: int, rows: int, cols: int) -> np.ndarray:
    """Read-only [rows, cols] table exp(sign 2i pi (j k mod n) / n): the n
    roots of unity, gathered by j k reduced modulo n in integers. An entry
    is the same scalar operations on the same integer as the n^2 formula,
    so it has its bytes, at n ``exp`` calls instead of rows * cols; and the
    reduced exponent keeps the phase exact for every n."""
    roots = np.exp(sign * 2j * np.pi * np.arange(n) / n)
    index = np.outer(np.arange(rows), np.arange(cols))
    index %= n
    t = roots[index]
    t.setflags(write=False)
    return t


@lru_cache(maxsize=8)
def _dft_kernel(n: int, sign: int) -> np.ndarray:
    """Read-only [n, n] kernel exp(sign 2i pi (j k mod n) / n)."""
    return _roots_table(n, sign, n, n)


def _split(n: int) -> int:
    """Largest divisor of n (n >= 2) not above sqrt(n); 1 when n is prime."""
    return next(d for d in range(math.isqrt(n), 0, -1) if n % d == 0)


@lru_cache(maxsize=8)
def _twiddles(n1: int, n2: int, sign: int) -> np.ndarray:
    """Read-only [n2, n1] table exp(sign 2i pi (j2 k1 mod n) / n), n = n1 n2."""
    return _roots_table(n1 * n2, sign, n2, n1)


# complex values per block of ``row_blocks`` (1 MiB)
_ROW_BLOCK = 1 << 16


def row_blocks(m: int, n: int):
    """Yield the (lo, hi) bounds of consecutive blocks of m rows of width n,
    about ``_ROW_BLOCK`` values each. A block holds at least two rows, where
    a one-row product would round differently at prime n, so a transform
    applied block by block gives every bit of the whole-array transform."""
    step, lo = max(2, _ROW_BLOCK // n), 0
    while lo < m:
        hi = m if m - lo <= step + 1 else lo + step  # never a one-row block
        yield lo, hi
        lo = hi


def _dft_split(z: np.ndarray, n1: int, n2: int, sign: int) -> np.ndarray:
    """Four-step transform along the last axis of length n1 * n2.

    With input index j = n2 j1 + j2 and output index k = k1 + n1 k2:
    n1-point transforms over j1, a twiddle by w_n^(j2 k1), then n2-point
    transforms over j2. The result's [k2, k1] layout is already output
    order, so each block of rows is written straight into the output.
    A float64 ``z`` takes its first stage as one real product against the
    kernel's [n1, 2 n1] float64 view, whose columns interleave the real and
    imaginary parts; read as complex128, it has the complex product's bytes
    but for the sign of an exactly zero bin (see the module docstring).
    """
    k1, k2, tw = _dft_kernel(n1, sign), _dft_kernel(n2, sign), _twiddles(n1, n2, sign)
    if z.dtype == np.float64:
        k1 = k1.view(np.float64)  # [n1, 2 n1]: real and imaginary columns interleaved
    rows = z.reshape((-1, n1, n2))
    out = np.empty((len(rows), n2, n1), dtype=np.complex128)
    for lo, hi in row_blocks(len(rows), n1 * n2):
        y = (rows[lo:hi].swapaxes(-1, -2) @ k1).view(np.complex128)
        y *= tw
        np.matmul(k2, y, out=out[lo:hi])
    return out.reshape(z.shape)


def dft_array(z: np.ndarray, inverse: bool = False) -> np.ndarray:
    """DFT along the last axis: the four-step n1 * n2 split for composite
    n (powers of two included), direct summation for prime n, n = 0 and
    n = 1.

    Forward: X[b] = sum_n z[n] exp(-2i pi b n / N).
    Inverse: z[n] = (1/N) sum_b X[b] exp(+2i pi b n / N).
    Agrees with ``dft_direct_array`` to about 1e-15 relative to the
    largest output bin.
    """
    z = _signal(z, "dft_array")
    n = z.shape[-1]
    if n < 2 or (n1 := _split(n)) == 1:
        return dft_direct_array(z, inverse)
    sign = 1 if inverse else -1
    out = _dft_split(z, n1, n // n1, sign)
    if inverse:
        out /= n
    return out


def dft_direct_array(z: np.ndarray, inverse: bool = False) -> np.ndarray:
    """Direct O(n^2) summation along the last axis; oracle for the split path."""
    z = _signal(z, "dft_direct_array", np.complex128)
    n = z.shape[-1]
    sign = 1 if inverse else -1
    out = z @ _dft_kernel(n, sign).T
    return out / n if inverse else out


def _signal(z, what: str, real=np.float64) -> np.ndarray:
    """The DFTs' ``z`` through ``real_array``, and not 0-d: complex128 when
    it holds complex numbers, ``real`` when it holds real ones (bool, int
    or float)."""
    try:
        kind = np.asarray(z).dtype.kind
    except ValueError:  # ragged nesting: the rule refuses it below
        kind = "c"
    z = real_array(z, "z", real if kind in "biuf" else np.complex128)
    if z.ndim == 0:
        raise ContractError(f"{what} needs a signal axis, got a 0-d input")
    return z


def _check_hilbert_input(z, name: str) -> np.ndarray:
    z = real_array(z, name)
    n = z.shape[-1] if z.ndim else 1  # a 0-d input is one sample
    if n % 2 != 0 or n < 2:
        raise ContractError(f"Hilbert transform needs an even row length of at least 2, got {n}")
    return z


def _hilbert_core(z: np.ndarray, multipliers: np.ndarray) -> np.ndarray:
    """Each row of ``z`` through its spectrum times ``multipliers`` and back,
    a block of rows at a time: the complex temporaries are one block's."""
    n = z.shape[-1]
    rows, out = z.reshape(-1, n), np.empty(z.shape)
    top, residue = 0.0, 0.0
    for lo, hi in row_blocks(len(rows), n):
        block = dft_array(dft_array(rows[lo:hi]) * multipliers, inverse=True)
        out.reshape(-1, n)[lo:hi] = block.real
        top = max(top, float(np.abs(rows[lo:hi]).max(initial=0.0)))
        residue = np.maximum(residue, np.abs(block.imag).max(initial=0.0))  # keeps NaN
    # residue bound scaled by input magnitude; a symmetric multiplier keeps
    # the inverse transform real to rounding error
    if not residue <= 1e-9 * max(1.0, top):
        raise ContractError("inverse transform produced a non-real result")
    return out


def hilbert_rows_array(z: np.ndarray) -> np.ndarray:
    """Spectral Hilbert transform of each row of a real [..., n] array, n even."""
    z = _check_hilbert_input(z, "z")
    return _hilbert_core(z, _multiplier(z.shape[-1]))


hilbert_freq = hilbert_rows_array


def hilbert_adjoint_rows_array(g: np.ndarray) -> np.ndarray:
    """Transpose of the row-wise transform (conjugated multiplier)."""
    g = _check_hilbert_input(g, "g")
    return _hilbert_core(g, np.conj(_multiplier(g.shape[-1])))


@lru_cache(maxsize=32)
def _cotangent_kernel(n: int) -> np.ndarray:
    diff = np.arange(n)[:, None] - np.arange(n)[None, :]
    odd = (diff % 2) != 0
    k = np.zeros((n, n))
    k[odd] = (2.0 / n) / np.tan(diff[odd] * np.pi / n)
    return k


def dht_cotangent(x: np.ndarray) -> np.ndarray:
    """Time-domain Hilbert transform of each row of a real [..., n] array.

    H{x}[n] = (2/N) sum_u x[u] cot((n-u) pi / N) over u of parity opposite
    to n: one matrix-vector product per row. Agrees with hilbert_freq on
    zero-DC, zero-Nyquist signals; kept as an independent verification path.
    """
    x = _check_hilbert_input(x, "x")
    return np.matmul(_cotangent_kernel(x.shape[-1]), x[..., None])[..., 0]


def analytic_signal(x: np.ndarray) -> np.ndarray:
    """Complex128 signal whose imaginary part is the Hilbert transform of x."""
    x = real_array(x, "x")
    return x + 1j * hilbert_freq(x)


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
    "dft_array", "dft_direct_array", "hilbert_freq", "hilbert_rows_array",
    "hilbert_adjoint_rows_array", "dht_cotangent", "analytic_signal",
    "hilbert_rows",
]
