import math
import warnings

import numpy as np
import pytest

from cvlearn import diagnostics as dg
from cvlearn import transforms as tr
from cvlearn.errors import DataError

from helpers import zero_dc_nyquist


def test_accuracy_all_correct_and_all_wrong():
    logits = np.eye(4) * 5.0
    assert dg.accuracy(logits, np.arange(4)) == 100.0
    assert dg.accuracy(logits, (np.arange(4) + 1) % 4) == 0.0


def test_accuracy_counting():
    logits = np.array([[1, 0], [1, 0], [0, 1], [1, 0]], dtype=float)
    assert dg.accuracy(logits, np.array([0, 0, 1, 1])) == 75.0


def test_accuracy_ties_break_to_lowest_index():
    logits = np.zeros((2, 3))
    assert dg.accuracy(logits, np.array([0, 0])) == 100.0
    assert dg.accuracy(logits, np.array([1, 2])) == 0.0


def test_accuracy_invariant_to_row_shift():
    g = np.random.default_rng(0)
    logits = g.standard_normal((20, 5))
    labels = g.integers(0, 5, 20)
    shifted = logits + g.standard_normal((20, 1))
    assert dg.accuracy(logits, labels) == dg.accuracy(shifted, labels)


def test_mag_phase_zero_error():
    pred = np.array([[1.0, 2.0, 0.5, -0.5]])
    out = dg.mag_phase_mse(pred, pred.copy())
    assert out.mag_mse == 0.0 and out.phase_mse == 0.0


def test_mag_phase_quarter_turn():
    # magnitude preserved, every phase off by pi/2
    target = np.array([[2.0, 0.0]])  # 2 + 0j
    pred = np.array([[0.0, 2.0]])    # 0 + 2j
    out = dg.mag_phase_mse(pred, target)
    assert out.mag_mse == pytest.approx(0.0, abs=1e-15)
    assert out.phase_mse == pytest.approx((np.pi / 2) ** 2, rel=1e-12)


def test_mag_phase_wraps_around_pi():
    theta_hat, theta = np.pi - 0.1, -np.pi + 0.1
    pred = np.array([[np.cos(theta_hat), np.sin(theta_hat)]])
    target = np.array([[np.cos(theta), np.sin(theta)]])
    out = dg.mag_phase_mse(pred, target)
    assert out.phase_mse == pytest.approx(0.2 ** 2, rel=1e-9)


def test_mag_phase_invariant_to_full_turns():
    g = np.random.default_rng(1)
    mags = g.uniform(0.5, 2.0, (10, 1))
    angles = g.uniform(-np.pi, np.pi, (10, 1))
    def encode(m, a):
        return np.concatenate([m * np.cos(a), m * np.sin(a)], axis=1)
    out1 = dg.mag_phase_mse(encode(mags, angles), encode(mags, angles * 0))
    out2 = dg.mag_phase_mse(encode(mags, angles + 2 * np.pi), encode(mags, angles * 0))
    assert out1.phase_mse == pytest.approx(out2.phase_mse, rel=1e-9)


def test_mag_phase_degenerate_tally():
    pred = np.array([[0.0, 0.0], [1.0, 0.0]])
    target = np.array([[1.0, 0.0], [1.0, 0.0]])
    out = dg.mag_phase_mse(pred, target)
    assert out.degenerate_phases == 1


@pytest.mark.parametrize("metric, name, pred, target", [
    ("mse_metric", "mse", np.full((2, 2), 1e200), np.zeros((2, 2))),
    ("mse_metric", "mse", np.full((2, 2), 1e308), np.full((2, 2), -1e308)),
    ("mag_phase_mse", "mag_mse", np.full((2, 2), 1e200), np.zeros((2, 2))),
    # both magnitudes overflow in hypot, and inf - inf is NaN
    ("mag_phase_mse", "mag_mse", np.full((2, 2), 1.5e308), np.full((2, 2), 1.5e308))])
def test_a_metric_that_overflows_raises_naming_itself_without_a_warning(metric, name, pred,
                                                                       target):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match=f"^{name} of these predictions and targets "
                                            "overflows float64$"):
            getattr(dg, metric)(pred, target)


def test_orthogonality_of_hilbert_pairs():
    z_re = zero_dc_nyquist(np.random.default_rng(2).standard_normal((6, 32)))
    z_im = tr.hilbert_rows_array(z_re)
    assert dg.latent_orthogonality(z_re, z_im) <= 1e-9


def test_orthogonality_of_parallel_vectors():
    z = np.random.default_rng(3).standard_normal((4, 8))
    assert dg.latent_orthogonality(z, z) == pytest.approx(1.0)
    assert dg.latent_orthogonality(z, -z) == pytest.approx(1.0)


def test_orthogonality_scaling_invariance():
    g = np.random.default_rng(4)
    a, b = g.standard_normal((5, 8)), g.standard_normal((5, 8))
    scales = g.uniform(0.1, 10.0, (5, 1))
    assert dg.latent_orthogonality(a * scales, b) == \
        pytest.approx(dg.latent_orthogonality(a, b), rel=1e-12)


def test_orthogonality_skips_zero_rows():
    a = np.array([[1.0, 0.0], [0.0, 0.0]])
    b = np.array([[1.0, 0.0], [1.0, 1.0]])
    assert dg.latent_orthogonality(a, b) == pytest.approx(1.0)
    counted = dg.latent_orthogonality_counted(a, b)
    assert counted.skipped_rows == 1
    with pytest.raises(DataError):
        dg.latent_orthogonality(np.zeros((2, 2)), b)


# 2^-540 (about 1e-163) squares below the smallest float, 2^520 above the
# largest; each row is scaled back by a power of two, so the value is the
# unscaled one bit for bit, with no warning (tier-1 makes warnings errors)
@pytest.mark.parametrize("k", [-540, -30, 7, 520])
def test_orthogonality_of_scaled_latents_is_unscaled_value(k):
    g = np.random.default_rng(5)
    a, b = g.standard_normal((30, 5)), g.standard_normal((30, 5))
    want = dg.latent_orthogonality_counted(a, b)
    assert dg.latent_orthogonality_counted(np.ldexp(a, k), np.ldexp(b, k)) == want
    assert dg.latent_orthogonality_counted(np.ldexp(a, k), b) == want


def _cov_oracle(z_re, z_im) -> tuple[float, float]:
    """Frobenius norms of np.cov of the joined latents, with the cross
    block kept and with it zeroed."""
    ln = z_re.shape[1]
    full = np.cov(np.concatenate([z_re, z_im], axis=1).T)
    separate = full.copy()
    separate[:ln, ln:] = 0.0
    separate[ln:, :ln] = 0.0
    return np.linalg.norm(full), np.linalg.norm(separate)


@pytest.mark.parametrize("b,ln", [(2, 1), (2, 5), (7, 1), (50, 4), (33, 17), (200, 64)])
def test_covariance_comparison_matches_numpy_cov(b, ln):
    g = np.random.default_rng(7 + b * ln)
    z_re = g.standard_normal((b, ln))
    z_im = 0.5 * z_re + g.standard_normal((b, ln))   # correlated channels
    out = dg.covariance_comparison(z_re, z_im)
    norm_j, norm_s = _cov_oracle(z_re, z_im)
    assert out.norm_j == pytest.approx(norm_j, rel=1e-13, abs=0)
    assert out.norm_s == pytest.approx(norm_s, rel=1e-13, abs=0)
    assert out.ratio == pytest.approx(norm_j / norm_s, rel=1e-13, abs=0)


@pytest.mark.parametrize("k", [-600, -30, 7, 450])
def test_covariance_comparison_power_of_two_scaling_is_exact(k):
    # latents scaled by 2^k give norms scaled by 4^k and the same ratio, bit
    # for bit; at 2^-600 the norms underflow to 0.0 and the ratio stays
    g = np.random.default_rng(12)
    z_re, z_im = g.standard_normal((40, 6)), g.standard_normal((40, 6))
    base = dg.covariance_comparison(z_re, z_im)
    out = dg.covariance_comparison(np.ldexp(z_re, k), np.ldexp(z_im, k))
    assert out == (math.ldexp(base.norm_j, 2 * k), math.ldexp(base.norm_s, 2 * k), base.ratio)


def test_covariance_norm_beyond_float_range_is_a_data_error():
    g = np.random.default_rng(14)
    z_re, z_im = g.standard_normal((30, 5)), g.standard_normal((30, 5))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy warning before the error
        with pytest.raises(DataError, match="latent covariance norm is not finite"):
            dg.covariance_comparison(np.ldexp(z_re, 520), np.ldexp(z_im, 520))
        for bad in (np.inf, np.nan):
            z = z_re.copy()
            z[3, 2] = bad
            with pytest.raises(DataError, match="z_re contains non-finite values"):
                dg.covariance_comparison(z, z_im)


def test_covariance_comparison_monotone():
    g = np.random.default_rng(9)
    for _ in range(10):
        out = dg.covariance_comparison(g.standard_normal((30, 5)),
                                       g.standard_normal((30, 5)))
        assert out.norm_j >= out.norm_s
        assert out.ratio >= 1.0


def test_covariance_comparison_identical_channels():
    z = np.random.default_rng(10).standard_normal((30, 5))
    out = dg.covariance_comparison(z, z)
    assert out.norm_j > out.norm_s


def test_covariance_comparison_independent_ratio_near_one():
    g = np.random.default_rng(11)
    out = dg.covariance_comparison(g.standard_normal((10_000, 8)),
                                   g.standard_normal((10_000, 8)))
    assert abs(out.ratio - 1.0) <= 0.05


def test_covariance_comparison_degenerate_batch():
    with pytest.raises(DataError, match="at least 2 samples"):
        dg.covariance_comparison(np.ones((1, 4)), np.ones((1, 4)))
    for z_re, z_im in [(np.ones((5, 4)), np.ones((5, 4))),        # constant
                       (np.full((5, 4), 3.0), np.zeros((5, 4))),
                       (np.zeros((5, 4)), np.zeros((5, 4))),      # all zero
                       (np.zeros((5, 0)), np.zeros((5, 0)))]:     # zero width
        with pytest.raises(DataError, match="degenerate batch"):
            dg.covariance_comparison(z_re, z_im)
