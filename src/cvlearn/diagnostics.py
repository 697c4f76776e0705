"""Evaluation metrics and structural latent-space diagnostics.

Beyond accuracy and MSE, this module measures two structural properties
of a latent pair: how orthogonal the real and imaginary channels are
(0 = orthogonal on average), and how much cross-channel covariance the
batch carries, summarized by comparing a row-wise L_{p,q} mixed norm of
the full covariance block matrix against the same norm with the
cross-covariance block zeroed out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ContractError, DataError, ShapeError


def accuracy(pred_logits: np.ndarray, labels: np.ndarray) -> float:
    """Percentage of rows whose argmax matches the label.

    Ties break toward the lowest class index.
    """
    pred_logits = np.asarray(pred_logits)
    labels = np.asarray(labels)
    if pred_logits.ndim != 2 or labels.shape != (pred_logits.shape[0],):
        raise ShapeError(
            f"accuracy shapes incompatible: {pred_logits.shape} vs {labels.shape}")
    return float((pred_logits.argmax(axis=1) == labels).mean() * 100.0)


def mse_metric(pred: np.ndarray, target: np.ndarray) -> float:
    pred, target = np.asarray(pred), np.asarray(target)
    if pred.shape != target.shape:
        raise ShapeError(f"mse shapes differ: {pred.shape} vs {target.shape}")
    return float(np.mean((pred - target) ** 2))


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
    pred, target = np.asarray(pred, dtype=np.float64), np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape or pred.ndim != 2 or pred.shape[1] % 2 != 0:
        raise ShapeError(
            f"mag_phase_mse expects matching [batch, 2k] arrays, got "
            f"{pred.shape} and {target.shape}")
    k = pred.shape[1] // 2
    pr, pi = pred[:, :k], pred[:, k:]
    tr, ti = target[:, :k], target[:, k:]
    mag_err = np.hypot(pr, pi) - np.hypot(tr, ti)
    degenerate = int(np.sum((pr == 0) & (pi == 0)) + np.sum((tr == 0) & (ti == 0)))
    phase_err = _wrap_angle(np.arctan2(pi, pr) - np.arctan2(ti, tr))
    return MagPhaseResult(float(np.mean(mag_err ** 2)),
                          float(np.mean(phase_err ** 2)), degenerate)


def _latent_arrays(z_re, z_im) -> tuple[np.ndarray, np.ndarray]:
    z_re, z_im = np.asarray(z_re, dtype=np.float64), np.asarray(z_im, dtype=np.float64)
    if z_re.shape != z_im.shape or z_re.ndim != 2:
        raise ShapeError(
            f"latent channels must be matching 2-D arrays, got "
            f"{z_re.shape} and {z_im.shape}")
    return z_re, z_im


class OrthogonalityResult(NamedTuple):
    value: float
    skipped_rows: int  # rows where either channel was exactly zero


def latent_orthogonality_counted(z_re, z_im) -> OrthogonalityResult:
    """Mean |cos| between paired latent rows plus the skipped-row tally."""
    z_re, z_im = _latent_arrays(z_re, z_im)
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


def lpq_norm(matrix: np.ndarray, p: float, q: float) -> float:
    """Row-wise mixed norm: (sum_i (sum_j |a_ij|^q)^(p/q))^(1/p).

    p = q = 2 is the Frobenius norm.
    """
    if p < 1 or q < 1:
        raise ContractError(f"lpq_norm requires p, q >= 1, got p={p}, q={q}")
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise ShapeError(f"lpq_norm expects a matrix, got shape {matrix.shape}")
    row_norms = np.sum(np.abs(matrix) ** q, axis=1) ** (1.0 / q)
    return float(np.sum(row_norms ** p) ** (1.0 / p))


@dataclass
class CovBlocks:
    """Sample covariance blocks of a latent pair (1/(batch-1) normalized)."""
    k_rr: np.ndarray
    k_ii: np.ndarray
    k_ri: np.ndarray

    def joint(self) -> np.ndarray:
        return np.block([[self.k_rr, self.k_ri], [self.k_ri.T, self.k_ii]])

    def separate(self) -> np.ndarray:
        zero = np.zeros_like(self.k_ri)
        return np.block([[self.k_rr, zero], [zero.T, self.k_ii]])


def covariance_blocks(z_re, z_im) -> CovBlocks:
    z_re, z_im = _latent_arrays(z_re, z_im)
    b = z_re.shape[0]
    if b < 2:
        raise DataError("covariance needs a batch of at least 2 samples")
    cr = z_re - z_re.mean(axis=0, keepdims=True)
    ci = z_im - z_im.mean(axis=0, keepdims=True)
    scale = 1.0 / (b - 1)
    k_rr = (cr.T @ cr) * scale
    k_ii = (ci.T @ ci) * scale
    # exact symmetry for the auto blocks
    return CovBlocks(k_rr=(k_rr + k_rr.T) / 2.0, k_ii=(k_ii + k_ii.T) / 2.0,
                     k_ri=(cr.T @ ci) * scale)


class CovComparison(NamedTuple):
    norm_j: float  # mixed norm with the cross block included
    norm_s: float  # same norm with the cross block zeroed
    ratio: float


def covariance_comparison(z_re, z_im) -> CovComparison:
    """L_{2,2} mixed-norm comparison of the latent covariance with and
    without the cross-channel block; norm_j >= norm_s always, with equality
    when the channels are uncorrelated. Latents so large that a norm
    overflows raise DataError."""
    with np.errstate(over="ignore", invalid="ignore"):
        blocks = covariance_blocks(z_re, z_im)
        norm_j = lpq_norm(blocks.joint(), 2.0, 2.0)
        norm_s = lpq_norm(blocks.separate(), 2.0, 2.0)
    if not (math.isfinite(norm_j) and math.isfinite(norm_s)):
        raise DataError(f"latent covariance norm is not finite (norm_j {norm_j}, "
                        f"norm_s {norm_s}): the latents overflow")
    if norm_s == 0.0:
        raise DataError("degenerate batch: covariance norm is zero")
    return CovComparison(norm_j, norm_s, norm_j / norm_s)
