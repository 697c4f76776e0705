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
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, record_op
from .errors import (ContractError, DataError, DivergenceError, ShapeError,
                     ValidationError)
from .models import LatentPair, param_views
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
    """Mean squared difference over the last two axes (per stacked member)."""
    tgt = target if isinstance(target, Tensor) else ad.constant(target, "target")
    return ad.mean_sq_diff(pred, tgt)


def hilbert_penalty(latent: LatentPair) -> Tensor:
    """Batch-average per-sample MSE between H{z_re} rows and z_im rows.

    Zero iff z_im == H{z_re} for every sample. Differentiable through
    both latent channels.
    """
    return ad.mean_sq_diff(hilbert_rows(latent.z_re), latent.z_im)


def total_loss(task_loss: Tensor, penalty: Optional[Tensor], beta: float) -> Tensor:
    """task_loss + beta * penalty as one tape node, with VJPs ``g`` and
    ``g * beta``; beta = 0 (or no penalty) is plain training."""
    if beta < 0:
        raise ContractError("beta must be non-negative")
    if penalty is None or beta == 0.0:
        return task_loss
    if penalty.shape != task_loss.shape:
        raise ShapeError(f"total_loss shapes differ: {task_loss.shape} vs {penalty.shape}")
    return record_op("total_loss", task_loss.data + penalty.data * beta,
                     (task_loss, penalty), (lambda g: g, lambda g: g * beta))


@dataclass
class AdamState:
    """Every buffer Adam touches, allocated once by ``adam_init``.

    ``m`` and ``v`` are the flat moment estimates in the declaration order
    and shape of ``shapes``; ``grad``, ``denom`` and ``ok`` are per-step
    scratch. The parameters live in the two flat buffers of ``flats``,
    which take turns: ``flats[active]`` holds the last accepted values, the
    idle one is a step's other scratch until the update is written into it,
    and ``views`` holds each buffer's read-only C-order views in the
    declared shapes, cut once. ``refused`` is set once an update was
    refused, since ``m`` and ``v`` have moved.
    """
    shapes: dict[str, tuple]
    m: np.ndarray
    v: np.ndarray
    grad: np.ndarray
    denom: np.ndarray
    ok: np.ndarray
    flats: tuple[np.ndarray, np.ndarray]
    views: tuple[dict, dict]
    active: int = 0
    t: int = 0
    refused: bool = False


def adam_init(params: dict[str, np.ndarray]) -> AdamState:
    """Allocate an Adam run's buffers for parameters shaped like
    ``params``; their values are copied in by the first step."""
    shapes = {name: np.shape(p) for name, p in params.items()}
    size = sum(math.prod(shape) for shape in shapes.values())
    flats = (np.empty(size), np.empty(size))
    return AdamState(shapes=shapes, m=np.zeros(size), v=np.zeros(size),
                     grad=np.empty(size), denom=np.empty(size),
                     ok=np.empty(size, dtype=bool), flats=flats,
                     views=tuple(param_views(f.view(), shapes) for f in flats))


def _check_keys(arrays: dict, shapes: dict, what: str) -> None:
    if set(arrays) != set(shapes):
        raise ContractError(f"{what} keys do not match the Adam state's parameter keys")
    for name, shape in shapes.items():
        if np.shape(arrays[name]) != shape:
            raise ShapeError(f"{what} shape {np.shape(arrays[name])} != the Adam "
                             f"state's shape {shape} for {name}")


def adam_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
              state: AdamState, config: TrainConfig) -> tuple[dict, AdamState]:
    """One bias-corrected Adam update over all parameters as one flat
    vector, computed in place in ``state``'s buffers; returns the new
    parameters and ``state``.

    ``params`` is normally the dict the last step returned. Any other dict
    (at step 1 always) is first copied into the active buffer. The update
    is written into the idle buffer and, when every entry is finite, the
    two swap and that buffer's read-only views are returned: a returned
    dict keeps its values until the step after next, so copy it to keep
    it. Otherwise the last accepted values stay as they are, and
    DivergenceError carries the refused values as its ``params``; the
    moments have moved, so the state then refuses every further step.
    """
    if state.refused:
        raise ContractError("this Adam state refused an update and cannot step again")
    _check_keys(grads, state.shapes, "gradient")
    active, idle = state.flats[state.active], state.flats[1 - state.active]
    if params is not state.views[state.active]:
        _check_keys(params, state.shapes, "parameter")
        np.concatenate([params[name] for name in state.shapes], axis=None, out=active)
    b1, b2, eps, lr = config.adam_b1, config.adam_b2, config.adam_eps, config.learning_rate
    t = state.t = state.t + 1
    g, m, v, denom = state.grad, state.m, state.v, state.denom
    # the per-tensor formulas in their operation order, so every element
    # rounds as it would in a per-tensor update; the idle buffer, which the
    # update overwrites anyway, holds the intermediates
    np.concatenate([grads[name] for name in state.shapes], axis=None, out=g)
    np.multiply(g, 1 - b1, out=idle)
    np.multiply(m, b1, out=m)
    m += idle                                   # b1 * m + (1 - b1) * g
    np.square(g, out=idle)
    idle *= 1 - b2
    np.multiply(v, b2, out=v)
    v += idle                                   # b2 * v + (1 - b2) * g^2
    np.divide(v, 1 - b2 ** t, out=denom)
    np.sqrt(denom, out=denom)
    denom += eps                                # sqrt(v_hat) + eps
    np.divide(m, 1 - b1 ** t, out=idle)
    idle *= lr
    idle /= denom                               # lr * m_hat / denom
    np.subtract(active, idle, out=idle)
    if not np.isfinite(idle, out=state.ok).all():
        state.refused = True
        raise DivergenceError(t, params=state.views[1 - state.active])
    state.active = 1 - state.active
    return state.views[state.active], state
