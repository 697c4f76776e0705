"""Evaluation metrics and structural latent-space diagnostics.

Beyond accuracy and MSE, this module measures two structural properties
of a latent pair: how orthogonal the real and imaginary channels are
(0 = orthogonal on average), and how much cross-channel covariance the
batch carries, summarized by comparing the Frobenius norm of the full
latent covariance against the same norm with the cross-covariance block
zeroed out.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .autodiff import real_array
from .errors import DataError, ShapeError


def accuracy(pred_logits: np.ndarray, labels: np.ndarray) -> float:
    """Percentage of rows whose argmax matches the label.

    Ties break toward the lowest class index.
    """
    pred_logits, labels = _rows(pred_logits, "pred_logits"), real_array(labels, "labels", None)
    if pred_logits.ndim != 2 or labels.shape != (pred_logits.shape[0],):
        raise ShapeError(
            f"accuracy shapes incompatible: {pred_logits.shape} vs {labels.shape}")
    return float((pred_logits.argmax(axis=1) == labels).mean() * 100.0)


def mse_metric(pred: np.ndarray, target: np.ndarray) -> float:
    pred, target = _rows(pred, "pred"), real_array(target, "target")
    if pred.shape != target.shape:
        raise ShapeError(f"mse shapes differ: {pred.shape} vs {target.shape}")
    with np.errstate(over="ignore"):
        return _finite(float(np.mean((pred - target) ** 2)), "mse")


def _finite(value: float, metric: str) -> float:
    """``value``, or DataError naming ``metric`` when it left float range:
    finite predictions and targets can still overflow on the way."""
    if not math.isfinite(value):
        raise DataError(f"{metric} of these predictions and targets overflows float64")
    return value


def _rows(pred, name: str) -> np.ndarray:
    """A metric's predictions through ``real_array``; DataError when empty."""
    pred = real_array(pred, name)
    if pred.size == 0:
        raise DataError(f"{name} is empty (shape {pred.shape}): the metric is undefined")
    return pred


def _wrap_angle(d: np.ndarray) -> np.ndarray:
    """Principal-value angular difference in (-pi, pi]."""
    out = np.mod(d + np.pi, 2.0 * np.pi) - np.pi
    out[out == -np.pi] = np.pi
    return out


class MagPhaseResult(NamedTuple):
    mag_mse: float
    phase_mse: float
    degenerate_phases: int  # exactly-zero complex values whose phase was taken as 0


def mag_phase_mse(pred: np.ndarray, target: np.ndarray) -> MagPhaseResult:
    """Squared errors of magnitudes and of wrapped phase differences.

    Rows hold k real parts followed by k imaginary parts. Phases use
    atan2; a zero complex value gets phase 0 and is tallied rather than
    dropped.
    """
    pred, target = _rows(pred, "pred"), real_array(target, "target")
    if pred.shape != target.shape or pred.ndim != 2 or pred.shape[1] % 2 != 0:
        raise ShapeError(
            f"mag_phase_mse expects matching [batch, 2k] arrays, got "
            f"{pred.shape} and {target.shape}")
    k = pred.shape[1] // 2
    pr, pi = pred[:, :k], pred[:, k:]
    tr, ti = target[:, :k], target[:, k:]
    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf of two huge magnitudes
        mag_mse = _finite(float(np.mean((np.hypot(pr, pi) - np.hypot(tr, ti)) ** 2)),
                          "mag_mse")
    degenerate = int(np.sum((pr == 0) & (pi == 0)) + np.sum((tr == 0) & (ti == 0)))
    phase_err = _wrap_angle(np.arctan2(pi, pr) - np.arctan2(ti, tr))
    return MagPhaseResult(mag_mse, float(np.mean(phase_err ** 2)), degenerate)


def _latent_arrays(z_re, z_im) -> tuple[np.ndarray, np.ndarray]:
    z_re, z_im = real_array(z_re, "z_re"), real_array(z_im, "z_im")
    if z_re.shape != z_im.shape or z_re.ndim != 2:
        raise ShapeError(
            f"latent channels must be matching 2-D arrays, got "
            f"{z_re.shape} and {z_im.shape}")
    return z_re, z_im


class OrthogonalityResult(NamedTuple):
    value: float
    skipped_rows: int  # rows where either channel was exactly zero


def latent_orthogonality_counted(z_re, z_im) -> OrthogonalityResult:
    """Mean |cos| between paired latent rows plus the skipped-row tally.

    Each row of each channel is first scaled by the power of two 2^-e that
    brings its largest |entry| below 1; a cosine does not change under a
    positive scale of either row, and a power of two rounds nothing, so
    tiny and huge latents neither underflow to a zero row nor overflow.
    """
    z_re, z_im = (np.ldexp(z, -np.frexp(np.abs(z).max(axis=1, initial=0.0))[1][:, None])
                  for z in _latent_arrays(z_re, z_im))
    dots = np.abs(np.sum(z_re * z_im, axis=1))
    norms = np.linalg.norm(z_re, axis=1) * np.linalg.norm(z_im, axis=1)
    valid = norms > 0
    if not valid.any():
        raise DataError("all latent rows are zero; orthogonality undefined")
    return OrthogonalityResult(float(np.mean(dots[valid] / norms[valid])),
                               int(np.sum(~valid)))


def latent_orthogonality(z_re, z_im) -> float:
    """Mean |cos| between paired latent rows; 0 means orthogonal channels.

    Rows where either channel is exactly zero are skipped; if every row
    is degenerate this raises DataError.
    """
    return latent_orthogonality_counted(z_re, z_im).value


class CovComparison(NamedTuple):
    norm_j: float  # Frobenius norm with the cross block included
    norm_s: float  # same norm with the cross block zeroed
    ratio: float


def covariance_comparison(z_re, z_im) -> CovComparison:
    """Frobenius norms of the latent sample covariance (1/(batch-1)
    normalized) with and without its cross-channel block, and their ratio.

    From the blocks K_rr, K_ii and K_ri: norm_s^2 = |K_rr|^2 + |K_ii|^2 and
    norm_j^2 = norm_s^2 + 2 |K_ri|^2, so norm_j >= norm_s, with equality
    when the channels are uncorrelated. Both latents are first scaled by
    the power of two 2^-e that brings every |entry| below 1, which rounds
    no entry within 2^1022 of the largest; the covariance is homogeneous
    of degree 2, so the norms scale back exactly by 4^e and the ratio is
    that of the scaled norms. Norms beyond float range (latents of about
    1e154) and non-finite latents raise DataError.
    """
    z_re, z_im = _latent_arrays(z_re, z_im)
    b = z_re.shape[0]
    if b < 2:
        raise DataError("covariance needs a batch of at least 2 samples")
    e = math.frexp(max(np.abs(z_re).max(initial=0.0), np.abs(z_im).max(initial=0.0)))[1]
    cr, ci = np.ldexp(z_re, -e), np.ldexp(z_im, -e)
    cr -= cr.mean(axis=0, keepdims=True)
    ci -= ci.mean(axis=0, keepdims=True)
    scale = 1.0 / (b - 1)
    sq_rr, sq_ii, sq_ri = (float(np.sum(np.square((x.T @ y) * scale)))
                           for x, y in ((cr, cr), (ci, ci), (cr, ci)))
    norm_s, norm_j = math.sqrt(sq_rr + sq_ii), math.sqrt(sq_rr + sq_ii + 2.0 * sq_ri)
    if norm_s == 0.0:
        raise DataError("degenerate batch: covariance norm is zero")
    try:
        return CovComparison(math.ldexp(norm_j, 2 * e), math.ldexp(norm_s, 2 * e),
                             norm_j / norm_s)
    except OverflowError:
        raise DataError(f"latent covariance norm is not finite (norm_j {norm_j:.6g} x 4^{e} "
                        f"is beyond float range): the latents overflow") from None
