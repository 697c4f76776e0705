import tracemalloc

import numpy as np
import pytest

import cvlearn as cv
from cvlearn import transforms as tr
from cvlearn.errors import ContractError, DataError

from helpers import same_bytes, weighted_sum, zero_dc_nyquist

POW2 = [2, 4, 8, 16, 32, 64, 128, 256, 512, 1024]


def _rand_complex(n, seed):
    g = np.random.default_rng(seed)
    return g.standard_normal(n) + 1j * g.standard_normal(n)


def test_dft_zero_vector():
    out = tr.dft_array(np.zeros(8, dtype=complex))
    assert np.all(out.real == 0) and np.all(out.imag == 0)


def test_dft_impulse_is_flat():
    z = np.zeros(8, dtype=complex)
    z[0] = 1.0
    out = tr.dft_array(z)
    assert np.allclose(out.real, 1.0, atol=1e-12)
    assert np.allclose(out.imag, 0.0, atol=1e-12)


def test_dft_known_value():
    out = tr.dft_array(np.array([1, 2, 3, 4], dtype=complex))
    expected = np.array([10, -2 + 2j, -2, -2 - 2j])
    assert np.abs(out - expected).max() < 1e-12


def test_idft_known_value():
    spectrum = np.array([10, -2 + 2j, -2, -2 - 2j])
    out = tr.dft_array(spectrum, inverse=True)
    assert np.abs(out - np.array([1, 2, 3, 4])).max() < 1e-12


def test_idft_flat_spectrum_is_impulse():
    out = tr.dft_array(np.ones(8, dtype=complex), inverse=True)
    expected = np.zeros(8, dtype=complex)
    expected[0] = 1.0
    assert np.abs(out - expected).max() < 1e-12


@pytest.mark.parametrize("n", [3, 5, 16, 27, 100])
def test_roundtrip_identity(n):
    z = _rand_complex(n, n)
    back = tr.dft_array(tr.dft_array(z), inverse=True)
    assert np.abs(back - z).max() <= 1e-10 * max(1.0, np.abs(z).max())


@pytest.mark.parametrize("n", POW2)
def test_fft_matches_direct_summation(n):
    z = _rand_complex(n, 100 + n)
    fast = tr.dft_array(z)
    direct = tr.dft_direct_array(z)
    scale = np.abs(direct).max()
    assert np.abs(fast - direct).max() <= 1e-9 * scale
    # inverse path too
    fast_inv = tr.dft_array(z, inverse=True)
    direct_inv = tr.dft_direct_array(z, inverse=True)
    assert np.abs(fast_inv - direct_inv).max() <= 1e-9 * max(1.0, np.abs(direct_inv).max())


SPLIT = [4, 6, 8, 9, 12, 15, 28, 49, 64, 100, 194, 784, 1024, 2048]


def _assert_oracle_close(got, want):
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("n", SPLIT)
def test_split_path_matches_direct_oracle(n):
    g = np.random.default_rng(300 + n)
    # the last shape spans more than one block of rows
    for lead in [(), (3,), (2, 3), (tr._ROW_BLOCK // n + 2,)]:
        z = g.standard_normal(lead + (n,)) + 1j * g.standard_normal(lead + (n,))
        _assert_oracle_close(tr.dft_array(z), tr.dft_direct_array(z))
        _assert_oracle_close(tr.dft_array(z, inverse=True),
                             tr.dft_direct_array(z, inverse=True))


@pytest.mark.parametrize("n", [2, 7, 97])
def test_prime_lengths_use_direct_sum(n):
    z = _rand_complex(n, 400 + n).reshape(1, n)
    assert np.array_equal(tr.dft_array(z), tr.dft_direct_array(z))
    assert np.array_equal(tr.dft_array(z, inverse=True), tr.dft_direct_array(z, inverse=True))


def test_empty_and_unit_lengths_keep_shape():
    for inverse in (False, True):
        assert tr.dft_array(np.zeros((3, 0)), inverse).shape == (3, 0)
        z = np.array([[1.5 - 2j], [0.25j]])
        assert np.array_equal(tr.dft_array(z, inverse), z)


@pytest.mark.parametrize("n", [784, 997])
def test_pure_tone_maps_to_scaled_delta(n):
    # 1e-14 relative: a kernel whose phase 2 pi j k / n is formed from the
    # unreduced product j k reads about 1e-13 here
    j = np.arange(n)
    for f in (0, 1, 5, n // 2, n - 1):
        tone = np.exp(2j * np.pi * ((f * j) % n) / n)
        expected = np.zeros(n, dtype=complex)
        expected[f] = n
        assert np.abs(tr.dft_array(tone) - expected).max() <= 1e-14 * n
        assert np.abs(tr.dft_direct_array(tone) - expected).max() <= 1e-14 * n


@pytest.mark.parametrize("n, n1", [(784, 28), (64, 8)])
def test_split_path_builds_no_full_length_kernel(monkeypatch, n, n1):
    built = []
    kernel = tr._dft_kernel

    def spy(size, sign):
        built.append(size)
        return kernel(size, sign)

    def forbidden(*args, **kwargs):
        raise AssertionError(f"{n}-point transform fell back to the direct sum")

    monkeypatch.setattr(tr, "_dft_kernel", spy)
    monkeypatch.setattr(tr, "dft_direct_array", forbidden)
    z = _rand_complex(n, 500).reshape(1, n)
    tr.dft_array(z)
    tr.dft_array(z, inverse=True)
    assert built and set(built) == {n1}


@pytest.mark.parametrize("n", POW2[1:] + [2048])
def test_power_of_two_lengths_take_the_split_path(n):
    z = _rand_complex(2 * n, 600 + n).reshape(2, n)
    n1 = tr._split(n)
    assert n1 > 1
    assert np.array_equal(tr.dft_array(z), tr._dft_split(z, n1, n // n1, -1))
    assert np.array_equal(tr.dft_array(z, inverse=True), tr._dft_split(z, n1, n // n1, 1) / n)


# split factors n1 at which the forward spectrum of a whole-zero row takes
# a different sign of zero from real input than from complex input; its
# values are equal, and every other row keeps every byte. Found with
# numpy's OpenBLAS 0.3.31 on its SkylakeX kernels (the same set to
# n = 4096): the real and complex kernels add zero products differently,
# so another BLAS kernel may give another set.
SIGNED_ZERO_N1 = {3, 6, 7, 11}


REAL_ROWS = [lambda g, n: g.standard_normal(n),
             lambda g, n: g.uniform(-1.0, 1.0, n),
             lambda g, n: g.standard_normal(n) * (g.random(n) < 0.5),
             lambda g, n: np.eye(1, n, g.integers(n))[0],
             lambda g, n: np.eye(1, n)[0]]  # the impulse at 0: zero imaginary parts in its spectrum


def test_real_input_gives_the_bytes_of_complex_input():
    # every composite n to 1100 (the split's real first stage) and a few
    # primes (the direct sum): 1 to 3 rows of normal, uniform, mixed-zero,
    # unit and impulse data, the kinds taking turns, then a whole-zero row
    g = np.random.default_rng(32)
    signed_zero = []
    for n in [n for n in range(4, 1101) if tr._split(n) > 1] + [5, 97, 997]:
        rows = [REAL_ROWS[(n + r) % 5](g, n) for r in range(1 + n % 3)]
        x = np.stack(rows + [np.zeros(n)])
        for inverse in (False, True):
            got = tr.dft_array(x, inverse)
            want = tr.dft_array(x.astype(np.complex128), inverse)
            assert same_bytes(got[:-1], want[:-1]), (n, inverse)
            assert np.array_equal(got[-1], want[-1]), (n, inverse)
            if not same_bytes(got[-1], want[-1]):
                signed_zero.append((n, inverse))
    assert signed_zero == [(n, False) for n in range(4, 1101)
                           if tr._split(n) in SIGNED_ZERO_N1]


@pytest.mark.parametrize("n", [4, 8, 64, 256, 100, 6])
def test_parseval(n):
    z = _rand_complex(n, 200 + n)
    x_energy = np.sum(np.abs(z) ** 2)
    f_energy = np.sum(np.abs(tr.dft_array(z)) ** 2) / n
    assert abs(x_energy - f_energy) <= 1e-9 * x_energy


def test_multiplier_layout():
    m = tr._multiplier(8)
    assert m[0] == 1.0 and m[4] == 1.0
    assert np.all(m[1:4] == -1j) and np.all(m[5:] == 1j)


def test_multiplier_odd_length_rejected():
    with pytest.raises(ContractError):
        tr._multiplier(7)


def test_hilbert_constant_passes_through():
    z = np.full(16, 3.25)
    assert np.abs(tr.hilbert_freq(z) - z).max() < 1e-12


def test_hilbert_cos_to_sin():
    n = 8
    grid = 2 * np.pi * np.arange(n) / n
    out = tr.hilbert_freq(np.cos(grid))
    assert np.abs(out - np.sin(grid)).max() < 1e-9


def test_hilbert_anti_involution_off_dc_nyquist():
    for seed in range(10):
        z = zero_dc_nyquist(np.random.default_rng(seed).standard_normal(64))[0]
        back = -tr.hilbert_freq(tr.hilbert_freq(z))
        assert np.abs(back - z).max() <= 1e-9 * max(1.0, np.abs(z).max())


def test_hilbert_spectral_rotation_exact():
    # every non-DC, non-Nyquist bin is rotated by exactly +/-90 degrees
    z = np.random.default_rng(5).standard_normal(32)
    before = tr.dft_array(z.astype(complex))
    after = tr.dft_array(tr.hilbert_freq(z).astype(complex))
    mult = tr._multiplier(32)
    assert np.abs(after - before * mult).max() <= 1e-9 * np.abs(before).max()


def test_hilbert_preserves_energy_off_dc_nyquist():
    z = zero_dc_nyquist(np.random.default_rng(6).standard_normal(128))[0]
    assert abs(np.linalg.norm(tr.hilbert_freq(z)) - np.linalg.norm(z)) \
        <= 1e-9 * np.linalg.norm(z)


def test_hilbert_odd_length_rejected():
    with pytest.raises(ContractError):
        tr.hilbert_freq(np.ones(7))
    with pytest.raises(ContractError):
        tr.dht_cotangent(np.ones(9))


@pytest.mark.parametrize("transform", ["hilbert_freq", "dht_cotangent"])
def test_hilbert_zero_width_names_the_minimum(transform):
    # 0 is even: the message names the other half of the rule too
    with pytest.raises(ContractError, match="even row length of at least 2, got 0"):
        getattr(tr, transform)(np.zeros((3, 0)))


def test_hilbert_non_finite_rejected():
    bad = np.ones(8)
    bad[3] = np.nan
    with pytest.raises(DataError):
        tr.hilbert_freq(bad)


def test_cotangent_zero_vector():
    assert np.all(tr.dht_cotangent(np.zeros(12)) == 0)


def test_cotangent_cos_to_sin_direct_kernel():
    # independent double-loop evaluation of the opposite-parity kernel sum
    n = 8
    grid = 2 * np.pi * np.arange(n) / n
    x = np.cos(grid)
    expected = np.zeros(n)
    for i in range(n):
        acc = 0.0
        for u in range(n):
            if (u - i) % 2 == 1:
                acc += x[u] / np.tan((i - u) * np.pi / n)
        expected[i] = 2.0 / n * acc
    assert np.abs(expected - np.sin(grid)).max() < 1e-12
    assert np.abs(tr.dht_cotangent(x) - expected).max() < 1e-12


@pytest.mark.parametrize("n", [8, 16, 64, 256])
def test_cotangent_matches_spectral_path(n):
    for seed in range(5):
        z = zero_dc_nyquist(np.random.default_rng(seed).standard_normal(n))[0]
        a, b = tr.hilbert_freq(z), tr.dht_cotangent(z)
        assert np.abs(a - b).max() <= 1e-9 * max(1.0, np.abs(a).max())


def test_hilbert_rows_784_match_cotangent_plus_dc_and_nyquist():
    n = 784
    rows = np.random.default_rng(n).standard_normal((4, n))
    out = tr.hilbert_rows_array(rows)
    alt = (-1.0) ** np.arange(n)
    for row, got in zip(rows, out):
        want = tr.dht_cotangent(row) + row.mean() + (row @ alt) / n * alt
        assert np.abs(got - want).max() <= 1e-12 * n * max(1.0, np.abs(row).max())


def test_analytic_signal_of_cos():
    n = 16
    grid = 2 * np.pi * np.arange(n) / n
    out = tr.analytic_signal(np.cos(grid))
    assert out.dtype == np.complex128
    assert np.abs(out.real - np.cos(grid)).max() < 1e-12
    assert np.abs(out.imag - np.sin(grid)).max() < 1e-9


def test_analytic_signal_zero():
    out = tr.analytic_signal(np.zeros(8))
    assert np.all(out.real == 0) and np.all(out.imag == 0)


def test_analytic_signal_orthogonality():
    for seed in range(20):
        z = zero_dc_nyquist(np.random.default_rng(seed).standard_normal(64))[0]
        sig = tr.analytic_signal(z)
        assert abs(np.dot(sig.real, sig.imag)) <= 1e-9 * np.dot(z, z)


def test_hilbert_length_two_is_identity():
    # with n = 2 every bin is DC or Nyquist, so the transform passes through
    z = np.array([1.5, -0.25])
    assert np.array_equal(tr.hilbert_freq(z), z)


def test_hilbert_freq_is_hilbert_rows_array():
    assert tr.hilbert_freq is tr.hilbert_rows_array


@pytest.mark.parametrize("shape", [(5,), (2, 3)])
@pytest.mark.parametrize("n", [2, 8, 16, 64, 100, 784])
@pytest.mark.parametrize("transform", ["hilbert_freq", "dht_cotangent", "analytic_signal"])
def test_hilbert_transforms_take_any_leading_shape(transform, n, shape):
    # a batch gives the bits of its rows transformed one at a time
    f = getattr(tr, transform)
    x = np.random.default_rng(n).standard_normal(shape + (n,))
    per_row = np.stack([f(row) for row in x.reshape(-1, n)]).reshape(x.shape)
    assert np.array_equal(f(x), per_row)


@pytest.mark.parametrize("transform", [
    "dft_array", "dft_direct_array", "hilbert_freq", "hilbert_adjoint_rows_array",
    "dht_cotangent", "analytic_signal"])
def test_transforms_refuse_a_0d_input(transform):
    with pytest.raises(ContractError):
        getattr(tr, transform)(np.float64(1.0))


def test_hilbert_rows_tape_gradient_is_adjoint():
    # build the explicit matrix of the transform and of its adjoint
    n = 8
    basis = np.eye(n)
    h_matrix = np.stack([tr.hilbert_freq(basis[i]) for i in range(n)], axis=1)
    g = np.random.default_rng(9)
    x = g.standard_normal((3, n))
    upstream_target = g.standard_normal((3, n))

    tape = cv.Tape()
    tx = tape.param(x, "x")
    out = tr.hilbert_rows(tx)
    assert np.abs(out.data - x @ h_matrix.T).max() < 1e-12
    grads = tape.backward(weighted_sum(out, upstream_target))
    assert np.abs(grads["x"] - upstream_target @ h_matrix).max() < 1e-10


# n: 2 (the direct DFT) and composite widths (the split); m around one
# block of rows, where the last block could hold one row
@pytest.mark.parametrize("n", [2, 26, 62, 64, 784])
def test_hilbert_rows_in_blocks_bit_identical_to_whole_array_transform(n):
    block = max(2, tr._ROW_BLOCK // n)
    for m in sorted({1, 2, block - 1, block, block + 1, 2000}):
        x = np.random.default_rng(n + m).standard_normal((m, n))
        for transform, mult in ((tr.hilbert_rows_array, tr._multiplier(n)),
                                (tr.hilbert_adjoint_rows_array, np.conj(tr._multiplier(n)))):
            whole = tr.dft_array(tr.dft_array(x) * mult, inverse=True).real
            assert same_bytes(transform(x), whole), (transform.__name__, n, m)


def test_hilbert_rows_array_peak_is_its_output():
    # 2000 x 784: the float64 output is 12.5 MB. Each block of rows goes
    # through its complex spectrum and back, and its real part is written
    # into the output; measured 4.1 MiB above it (the input's finiteness
    # mask and one block's complex temporaries), where the whole array's
    # complex input, spectrum, inverse and absolute values took 47.9 MiB.
    x = np.random.default_rng(5).standard_normal((2000, 784))
    tr.hilbert_rows_array(x)  # fills the kernel and twiddle caches
    tracemalloc.start()
    try:
        tr.hilbert_rows_array(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= x.nbytes + (6 << 20), peak


def test_dft_array_of_real_rows_peak_is_its_output():
    # 2000 x 784: the complex output is 23.9 MiB. Real rows are bound as
    # float64 and each block's first stage is one real product, so measured
    # 1.99 MiB above the output (the input's finiteness mask, then one
    # block's temporaries), where the input's complex copy took 25.9 MiB.
    # 0.5 MiB is half of one block's complex values.
    x = np.random.default_rng(5).standard_normal((2000, 784))
    tr.dft_array(x)  # fills the kernel and twiddle caches
    tracemalloc.start()
    try:
        tr.dft_array(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * x.nbytes + 2.5 * 2**20, peak


def test_hilbert_core_rejects_non_real_result():
    # an asymmetric multiplier makes the inverse transform complex; the
    # check is an explicit raise, so it also holds under python -O
    z = np.random.default_rng(10).standard_normal((2, 8))
    with pytest.raises(ContractError, match="non-real"):
        tr._hilbert_core(z, np.full(8, 1j))


@pytest.mark.parametrize("n", [2, 8, 64, 784])
def test_hilbert_rows_dense_operator_matches_spectral_path(n):
    x = np.random.default_rng(n).standard_normal((5, n))
    tape = cv.Tape()
    out = tr.hilbert_rows(tape.param(x, "x"))
    scale = max(1.0, float(np.abs(x).max()))
    assert np.abs(out.data - tr.hilbert_rows_array(x)).max() <= 1e-12 * scale
    upstream = np.random.default_rng(n + 1).standard_normal((5, n))
    grads = tape.backward(weighted_sum(out, upstream))
    assert np.abs(grads["x"] - tr.hilbert_adjoint_rows_array(upstream)).max() <= 1e-12 * n


def test_hilbert_rows_makes_no_transform_call_once_cached(monkeypatch):
    tr.hilbert_rows(cv.Tape().param(np.ones((2, 16)), "x"))  # builds the n = 16 operator

    def forbidden(*args, **kwargs):
        raise AssertionError("spectral transform called on the tape path")

    monkeypatch.setattr(tr, "dft_array", forbidden)
    monkeypatch.setattr(tr, "hilbert_rows_array", forbidden)
    monkeypatch.setattr(tr, "hilbert_adjoint_rows_array", forbidden)
    tape = cv.Tape()
    x = tape.param(np.random.default_rng(11).standard_normal((3, 16)), "x")
    out = tr.hilbert_rows(x)
    tape.backward(weighted_sum(out, np.ones(out.shape)))
