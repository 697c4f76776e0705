import numpy as np
import pytest

import cvlearn as cv
from cvlearn import transforms as tr
from cvlearn.errors import ContractError, DataError

from helpers import zero_dc_nyquist

POW2 = [2, 4, 8, 16, 32, 64, 128, 256, 512, 1024]


def _rand_complex(n, seed):
    g = np.random.default_rng(seed)
    return g.standard_normal(n) + 1j * g.standard_normal(n)


def test_dft_zero_vector():
    out = tr.dft(tr.ComplexVector(np.zeros(8), np.zeros(8)))
    assert np.all(out.re == 0) and np.all(out.im == 0)


def test_dft_impulse_is_flat():
    re = np.zeros(8)
    re[0] = 1.0
    out = tr.dft(tr.ComplexVector(re, np.zeros(8)))
    assert np.allclose(out.re, 1.0, atol=1e-12)
    assert np.allclose(out.im, 0.0, atol=1e-12)


def test_dft_known_value():
    out = tr.dft(tr.ComplexVector([1, 2, 3, 4], [0, 0, 0, 0])).to_complex()
    expected = np.array([10, -2 + 2j, -2, -2 - 2j])
    assert np.abs(out - expected).max() < 1e-12


def test_idft_known_value():
    spectrum = tr.ComplexVector([10, -2, -2, -2], [0, 2, 0, -2])
    out = tr.idft(spectrum).to_complex()
    assert np.abs(out - np.array([1, 2, 3, 4])).max() < 1e-12


def test_idft_flat_spectrum_is_impulse():
    out = tr.idft(tr.ComplexVector(np.ones(8), np.zeros(8))).to_complex()
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


@pytest.mark.parametrize("n", [4, 8, 64, 256, 100, 6])
def test_parseval(n):
    z = _rand_complex(n, 200 + n)
    x_energy = np.sum(np.abs(z) ** 2)
    f_energy = np.sum(np.abs(tr.dft_array(z)) ** 2) / n
    assert abs(x_energy - f_energy) <= 1e-9 * x_energy


def test_multiplier_layout():
    m = tr.HilbertMultiplier(8).multipliers
    assert m[0] == 1.0 and m[4] == 1.0
    assert np.all(m[1:4] == -1j) and np.all(m[5:] == 1j)


def test_multiplier_odd_length_rejected():
    with pytest.raises(ContractError):
        tr.HilbertMultiplier(7)


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
    mult = tr.HilbertMultiplier(32).multipliers
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


def test_analytic_signal_of_cos():
    n = 16
    grid = 2 * np.pi * np.arange(n) / n
    out = tr.analytic_signal(np.cos(grid))
    assert np.abs(out.re - np.cos(grid)).max() < 1e-12
    assert np.abs(out.im - np.sin(grid)).max() < 1e-9


def test_analytic_signal_zero():
    out = tr.analytic_signal(np.zeros(8))
    assert np.all(out.re == 0) and np.all(out.im == 0)


def test_analytic_signal_orthogonality():
    for seed in range(20):
        z = zero_dc_nyquist(np.random.default_rng(seed).standard_normal(64))[0]
        sig = tr.analytic_signal(z)
        assert abs(np.dot(sig.re, sig.im)) <= 1e-9 * np.dot(z, z)


def test_complex_vector_validation():
    with pytest.raises(ContractError):
        tr.ComplexVector([1, 2], [1, 2, 3])
    with pytest.raises(DataError):
        tr.ComplexVector([np.inf, 1], [0, 0])


def test_hilbert_length_two_is_identity():
    # with n = 2 every bin is DC or Nyquist, so the transform passes through
    z = np.array([1.5, -0.25])
    assert np.array_equal(tr.hilbert_freq(z), z)


def test_hilbert_rows_matches_per_row():
    rows = np.random.default_rng(8).standard_normal((5, 16))
    batched = tr.hilbert_rows_array(rows)
    for i in range(5):
        assert np.abs(batched[i] - tr.hilbert_freq(rows[i])).max() < 1e-12


def test_hilbert_rows_tape_gradient_is_adjoint():
    # build the explicit matrix of the transform and of its adjoint
    n = 8
    basis = np.eye(n)
    h_matrix = np.stack([tr.hilbert_freq(basis[i]) for i in range(n)], axis=1)
    g = np.random.default_rng(9)
    x = g.standard_normal((3, n))
    upstream_target = g.standard_normal((3, n))

    tape = cv.Tape()
    tx = tape.leaf(x, name="x")
    out = tr.hilbert_rows(tx)
    assert np.abs(out.data - x @ h_matrix.T).max() < 1e-12
    loss = cv.autodiff.sum_all(cv.autodiff.mul(out, cv.autodiff.constant(upstream_target)))
    grads = tape.backward(loss)
    assert np.abs(grads["x"] - upstream_target @ h_matrix).max() < 1e-10


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
    out = tr.hilbert_rows(tape.leaf(x, name="x"))
    scale = max(1.0, float(np.abs(x).max()))
    assert np.abs(out.data - tr.hilbert_rows_array(x)).max() <= 1e-12 * scale
    upstream = np.random.default_rng(n + 1).standard_normal((5, n))
    grads = tape.backward(cv.autodiff.sum_all(
        cv.autodiff.mul(out, cv.autodiff.constant(upstream))))
    assert np.abs(grads["x"] - tr.hilbert_adjoint_rows_array(upstream)).max() <= 1e-12 * n


def test_hilbert_rows_makes_no_transform_call_once_cached(monkeypatch):
    tr.hilbert_rows(cv.Tape().leaf(np.ones((2, 16))))  # builds the n = 16 operator

    def forbidden(*args, **kwargs):
        raise AssertionError("spectral transform called on the tape path")

    monkeypatch.setattr(tr, "dft_array", forbidden)
    monkeypatch.setattr(tr, "hilbert_rows_array", forbidden)
    monkeypatch.setattr(tr, "hilbert_adjoint_rows_array", forbidden)
    tape = cv.Tape()
    x = tape.leaf(np.random.default_rng(11).standard_normal((3, 16)), name="x")
    tape.backward(cv.autodiff.sum_all(tr.hilbert_rows(x)))
