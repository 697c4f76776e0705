"""Task losses, the Hilbert consistency penalty, and the Adam optimizer.

The penalty measures, per sample, the mean squared error between the
Hilbert transform of the real latent row and the imaginary latent row,
averaged over the batch; it is zero exactly when every imaginary latent
equals the transform of its real counterpart. The training objective is
``task_loss + beta * penalty``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import MISSING, asdict, dataclass, fields
from typing import Optional

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, record_op
from .errors import (ContractError, DataError, DivergenceError, ShapeError,
                     ValidationError)
from .models import LatentPair
from .transforms import hilbert_rows


def finite(value) -> bool:
    """A finite real; an integer too large for a float is not."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


@dataclass(frozen=True)
class TrainConfig:
    """Optimization settings of a run. Construction is the one validation
    pass: every field's type (JSON booleans are not numbers), finiteness
    and range, each error naming the field."""
    learning_rate: float
    beta: float = 0.0
    epochs: int = 100
    batch_size: int = 32
    seed: int = 0
    adam_b1: float = 0.9
    adam_b2: float = 0.999
    adam_eps: float = 1e-8

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "int":
                if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                    raise ValidationError(f"config field {f.name} must be an integer")
                object.__setattr__(self, f.name, int(value))
                continue
            if not isinstance(value, numbers.Real) or isinstance(value, bool):
                raise ValidationError(f"config field {f.name} must be a number")
            if not finite(value):
                raise ValidationError(f"config field {f.name} must be finite")
            object.__setattr__(self, f.name, float(value))
        if not self.learning_rate > 0:
            raise ValidationError("learning_rate must be positive")
        if self.beta < 0:
            raise ValidationError("beta must be non-negative")
        if self.epochs < 0:
            raise ValidationError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ValidationError("batch_size must be >= 1")
        if not (0 < self.adam_b1 < 1 and 0 < self.adam_b2 < 1):
            raise ValidationError("adam_b1 and adam_b2 must lie in (0, 1)")
        if not self.adam_eps > 0:
            raise ValidationError("adam_eps must be positive")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        unknown = set(d) - {f.name for f in fields(cls)}
        if unknown:
            raise ValidationError(f"unknown config fields: {sorted(unknown)}")
        for f in fields(cls):
            if f.default is MISSING and f.name not in d:
                raise ValidationError(f"missing config field: {f.name}")
        return cls(**d)


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean of -log softmax(logits)[label], with max-subtraction for stability.

    Logits [b, k] with labels [b] give a scalar; stacked logits [E, b, k]
    with labels [E, b] give one mean per member.
    """
    labels = np.asarray(labels)
    if logits.ndim < 2:
        raise ShapeError(f"cross_entropy expects [batch, classes] logits, got {logits.shape}")
    b, k = logits.shape[-2:]
    if labels.shape != logits.shape[:-1]:
        raise ShapeError(f"labels shape {labels.shape} does not match batch {logits.shape[:-1]}")
    if labels.dtype.kind not in "iu":
        raise DataError("labels must be integers")
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= k:
        raise DataError(f"label out of range [0, {k})")
    x = logits.data
    shifted = x - x.max(axis=-1, keepdims=True)
    expx = np.exp(shifted)
    z = expx.sum(axis=-1, keepdims=True)
    softmax = expx / z
    rows, cols = np.arange(labels.size), labels.ravel()
    picked = shifted.reshape(-1, k)[rows, cols].reshape(labels.shape)
    logprob = picked - np.log(z[..., 0])
    value = np.asarray(-logprob.mean(axis=-1))

    def vjp(g):
        grad = softmax.copy()
        grad.reshape(-1, k)[rows, cols] -= 1.0
        return grad * (g / b)[..., None, None]

    return record_op("cross_entropy", value, (logits,), (vjp,))


def mse(pred: Tensor, target) -> Tensor:
    """Mean over all entries of the squared difference."""
    tgt = target if isinstance(target, Tensor) else ad.constant(np.asarray(target))
    if pred.shape != tgt.shape:
        raise ShapeError(f"mse shapes differ: {pred.shape} vs {tgt.shape}")
    diff = ad.sub(pred, tgt)
    return ad.mean_all(ad.mul(diff, diff))


def hilbert_penalty(latent: LatentPair) -> Tensor:
    """Batch-average per-sample MSE between H{z_re} rows and z_im rows.

    Zero iff z_im == H{z_re} for every sample. Differentiable through
    both latent channels.
    """
    if latent.z_re.shape != latent.z_im.shape:
        raise ShapeError(
            f"latent shapes differ: {latent.z_re.shape} vs {latent.z_im.shape}")
    hz = hilbert_rows(latent.z_re)
    diff = ad.sub(hz, latent.z_im)
    return ad.mean_all(ad.mul(diff, diff))


def total_loss(task_loss: Tensor, penalty: Optional[Tensor], beta: float) -> Tensor:
    """task_loss + beta * penalty; beta = 0 (or no penalty) is plain training."""
    if beta < 0:
        raise ContractError("beta must be non-negative")
    if penalty is None or beta == 0.0:
        return task_loss
    return ad.add(task_loss, ad.scale(penalty, beta))


@dataclass
class AdamState:
    """Moment estimates as flat buffers in parameter declaration order."""
    m: np.ndarray
    v: np.ndarray
    t: int = 0


def adam_init(params: dict[str, np.ndarray]) -> AdamState:
    size = sum(np.size(p) for p in params.values())
    return AdamState(m=np.zeros(size), v=np.zeros(size), t=0)


def adam_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
              state: AdamState, config: TrainConfig) -> tuple[dict, AdamState]:
    """One bias-corrected Adam update over all parameters as one flat
    vector; functional (inputs untouched).

    The new parameters are read-only views into one fresh buffer. Raises
    DivergenceError when any of them is non-finite.
    """
    if set(params) != set(grads):
        raise ContractError("gradient keys do not match parameter keys")
    for name, p in params.items():
        if grads[name].shape != p.shape:
            raise ShapeError(f"gradient shape {grads[name].shape} != param shape "
                             f"{p.shape} for {name}")
    b1, b2, eps, lr = config.adam_b1, config.adam_b2, config.adam_eps, config.learning_rate
    t = state.t + 1
    # the per-tensor formulas, evaluated in place on fresh buffers in the
    # same operation order, so every element rounds exactly as before
    g = np.concatenate([grads[name] for name in params], axis=None)
    tmp = np.multiply(g, 1 - b1)
    m = np.multiply(state.m, b1)
    m += tmp                                    # b1 * m + (1 - b1) * g
    np.multiply(g, g, out=tmp)
    tmp *= 1 - b2
    v = np.multiply(state.v, b2)
    v += tmp                                    # b2 * v + (1 - b2) * g^2
    denom = np.divide(v, 1 - b2 ** t)
    np.sqrt(denom, out=denom)
    denom += eps                                # sqrt(v_hat) + eps
    np.divide(m, 1 - b1 ** t, out=tmp)
    tmp *= lr
    tmp /= denom                                # lr * m_hat / denom
    flat = np.concatenate(list(params.values()), axis=None)
    flat -= tmp
    if not np.isfinite(flat).all():
        raise DivergenceError(t)
    flat.setflags(write=False)
    new_params = {}
    offset = 0
    for name, p in params.items():
        new_params[name] = flat[offset:offset + p.size].reshape(p.shape)
        offset += p.size
    return new_params, AdamState(m=m, v=v, t=t)
