"""Shared test utilities: finite-difference oracles and tiny datasets."""

from __future__ import annotations

import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import cvlearn as cv

FD_STEP = 1e-5


# hidden-layer ReLU nodes of one forward pass: rvnn's two layers; two
# layers of two parts (cvnn) or of two branches (steinmetz, analytic)
RELU_NODES = {"rvnn": 2, "cvnn": 4, "steinmetz": 4, "analytic": 4}


def spy_split_threads(monkeypatch) -> list:
    """For the test, let ``autodiff.on_two_cpus`` split as on a host with
    two CPUs (pinning its thread to the caller's own mask), and replace
    ``threading.Thread`` by a subclass that appends each thread it starts
    for a product's upper rows or a row-block walk's upper blocks to the
    returned list; other threads (a pool's workers) pass unrecorded. Skips
    where there is no CPU affinity."""
    if not hasattr(os, "sched_setaffinity"):
        pytest.skip("no CPU affinity calls: products never split")
    monkeypatch.setattr(cv.autodiff, "_other_cpus", lambda: os.sched_getaffinity(0))
    started = []

    class Spy(threading.Thread):
        def start(self):
            if self.name in ("cvlearn.autodiff.matmul", "cvlearn.transforms.walk_row_blocks"):
                started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Spy)
    return started


def same_bytes(a, b) -> bool:
    """Bit-for-bit equality: dtype, shape and bytes. ``np.array_equal``
    holds -0.0 and +0.0 equal, so it cannot back a bit-identity claim."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def in_out(w):
    """A weight drawn [.., out, in], the order the fixtures draw in, stored
    in C order in its declared [.., in, out] layout."""
    return np.ascontiguousarray(np.swapaxes(w, -1, -2))


def relu_preactivations(tape) -> list:
    """The pre-activation of every node on the tape that applies a ReLU in
    place, recomputed from the node's parents with plain numpy rather than
    by the op's own code: ``x @ w + b`` over a ``linear`` node's joined
    input blocks, ``x1 @ wr + b -/+ x2 @ wi`` for a hidden
    ``complex_affine`` part, and both parts side by side for cvnn's head,
    the ``complex_affine`` node with ten parents (the imaginary part's
    five, then the real part's) and no ReLU. A hidden layer records its
    real part (minus) before its imaginary part (plus), so the parts
    alternate. Each recomputed value must give the node's output, under
    ``max(., 0)`` where the node applies a ReLU.
    """
    def part(x1, x2, wr, wi, b, sign):
        return x1 @ wr + b[..., None, :] + sign * (x2 @ wi)

    pres, parts = [], 0
    for n in tape.nodes:
        if n.op == "linear":
            *xs, w, b = (p.data for p in n.parents)
            pre = np.concatenate(xs, axis=-1) @ w + b[..., None, :]
        elif n.op == "complex_affine" and len(n.parents) == 10:
            im, re = (p.data for p in n.parents[:5]), (p.data for p in n.parents[5:])
            pre = np.concatenate([part(*re, -1.0), part(*im, 1.0)], axis=-1)
        elif n.op == "complex_affine":
            pre = part(*(p.data for p in n.parents), 1.0 if parts % 2 else -1.0)
            parts += 1
        else:
            continue
        assert np.allclose(np.maximum(pre, 0.0) if n.relu else pre, n.data,
                           rtol=1e-9, atol=1e-12)
        if n.relu:
            pres.append(pre)
    return pres


def relu_margin(tape) -> float:
    """Smallest |pre-activation| of any ReLU on the tape.

    Finite differences are meaningless within a step of a relu kink, so
    gradient tests regenerate instances until the margin is comfortable.
    """
    return min((float(np.abs(pre).min()) for pre in relu_preactivations(tape)),
               default=np.inf)


def central_diff(loss_fn, params: dict, h: float = FD_STEP) -> dict:
    """Central finite differences of a scalar loss over a parameter dict."""
    grads = {}
    for name, p in params.items():
        g = np.zeros_like(p)
        for idx in np.ndindex(*p.shape):
            bumped = {k: v.copy() for k, v in params.items()}
            bumped[name][idx] += h
            up = loss_fn(bumped)
            bumped[name][idx] -= 2 * h
            dn = loss_fn(bumped)
            g[idx] = (up - dn) / (2 * h)
        grads[name] = g
    return grads


def block_relative_error(fd: dict, tape_grads: dict) -> float:
    """Max over parameter tensors of ||fd - g|| / max(||fd||, ||g||).

    The per-tensor norm form keeps finite-difference roundoff on
    individual near-zero entries from dominating the comparison.
    """
    worst = 0.0
    for name in fd:
        a, b = fd[name].ravel(), tape_grads[name].ravel()
        denom = max(np.linalg.norm(a), np.linalg.norm(b), 1e-12)
        worst = max(worst, np.linalg.norm(a - b) / denom)
    return worst


def linear_chain_reference(x, w, b, upstream, bias: bool):
    """Value and gradients of ``sum((x @ w (+ b)) * upstream)`` for a 2-D
    [in, out] weight ``w`` in C order, by the numpy calls of the unfused
    tape chain that ``autodiff.linear`` replaces: a matmul node, a
    row-broadcast bias add node when ``bias``, then the ``weighted_sum``
    probe. Without ``bias`` the gradient of ``b`` is zeros, as the tape
    reports for an unreached parameter.
    """
    value = x @ w                                 # matmul
    if bias:
        value = value + b[..., None, :]           # bias add
    g = np.full(value.shape, 1.0) * upstream      # the probe
    grads = {"x": g @ w.T, "w": x.T @ g,          # matmul, each operand
             "b": np.add.reduce(g, axis=-2) if bias else np.zeros_like(b)}
    return value, grads


def sq_diff_chain_reference(a, b, upstream):
    """Value and gradients of ``sum(mean((a - b)^2) * upstream)``, the mean
    over the last two axes, by the numpy calls of the tape chain that
    ``autodiff.mean_sq_diff`` replaces: a ``sub`` node, a ``mul`` of the
    difference by itself, a mean node, then the ``weighted_sum`` probe.
    ``upstream`` is a scalar, or one weight per member of
    stacked [E, m, n] operands.
    """
    diff = a - b                                  # sub
    sq = diff * diff                              # mul
    value = sq.mean(axis=(-2, -1))                # mean
    n = a.shape[-2] * a.shape[-1]
    g = np.full(upstream.shape, 1.0) * upstream   # the probe
    t = np.empty(a.shape)
    t[...] = (g * (1.0 / n))[..., None, None]     # mean
    g_diff = t * diff + t * diff                  # mul, both operands
    return value, {"a": g_diff, "b": -g_diff}     # sub


def weighted_sum(outs, weights):
    """Scalar probe ``sum(out * w)`` over ``outs`` (a tensor, or a tuple of
    them) and their ``weights``, as one tape node whose gradient to each
    ``out`` is exactly its ``w``: backward from it runs the ops under test
    with ``weights`` as their upstream gradients."""
    if not isinstance(outs, tuple):
        outs, weights = (outs,), (weights,)
    weights = [np.asarray(w, dtype=np.float64) for w in weights]
    value = sum(np.add.reduce(o.data * w, axis=None) for o, w in zip(outs, weights))
    return cv.autodiff.record_op("weighted_sum", np.asarray(value), outs,
                                 [lambda g, w=w: g * w for w in weights])


def complex_affine_chain_reference(xr, xi, wr, wi, br, bi, up_r, up_i):
    """Values and gradients of ``sum(yr * up_r) + sum(yi * up_i)`` for one
    complex layer on 2-D operands, by the numpy calls of the tape chain
    that each part of ``models._complex_affine`` replaces: the real part
    was ``sub(linear(xr, wr, br), linear(xi, wi))`` and the imaginary part
    ``add(linear(xi, wr, bi), linear(xr, wi))``. ``sub`` passes ``g`` and
    ``-g`` and ``add`` passes ``g`` twice; every operand gets one
    contribution from each part, summed.
    """
    a, ga = linear_chain_reference(xr, wr, br, up_r, bias=True)
    b, gb = linear_chain_reference(xi, wi, br, -up_r, bias=False)
    c, gc = linear_chain_reference(xi, wr, bi, up_i, bias=True)
    d, gd = linear_chain_reference(xr, wi, bi, up_i, bias=False)
    grads = {"xr": ga["x"] + gd["x"], "xi": gb["x"] + gc["x"],
             "wr": ga["w"] + gc["w"], "wi": gb["w"] + gd["w"],
             "br": ga["b"], "bi": gc["b"]}
    return (a - b, c + d), grads


def magnitude_chain_reference(yr, yi, upstream):
    """Value and gradients of ``sum(sqrt(yr^2 + yi^2 + eps) * upstream)``
    by the numpy calls of the tape chain that ``models._magnitude``
    replaces: ``mul(yr, yr)``, ``mul(yi, yi)``, ``add``, ``add_const``,
    ``sqrt``, then the probe. Each ``mul`` of a tensor by itself sends it
    two equal contributions, which backward sums.
    """
    value = np.sqrt(yr * yr + yi * yi + cv.models.MAGNITUDE_EPS)
    g = np.full(value.shape, 1.0) * upstream      # the probe
    g_sq = g * (0.5 / value)                      # sqrt; add_const and add pass it on
    t_r, t_i = g_sq * yr, g_sq * yi               # mul, each operand
    return value, {"yr": t_r + t_r, "yi": t_i + t_i}


def total_loss_chain_reference(task, penalty, beta, upstream):
    """Value and gradients of ``sum((task + beta * penalty) * upstream)``
    by the numpy calls of the ``add(task, scale(penalty, beta))`` chain
    that ``losses.total_loss`` replaces."""
    value = task + penalty * float(beta)          # scale, then add
    g = np.full(np.shape(value), 1.0) * upstream  # the probe
    return value, {"task": g, "penalty": g * float(beta)}


def adam_reference(params: dict, grads: dict, state: tuple, config) -> tuple[dict, tuple]:
    """The functional Adam step that ``losses.adam_step`` computes in place:
    fresh buffers, the same operations in the same order, inputs untouched.
    ``state`` is (m, v, t), ``(0.0, 0.0, 0)`` at the start; returns the new
    parameters (views into one fresh flat buffer) and the new state."""
    m0, v0, t = state
    b1, b2, eps, lr = config.adam_b1, config.adam_b2, config.adam_eps, config.learning_rate
    t += 1
    g = np.concatenate([grads[name] for name in params], axis=None)
    tmp = np.multiply(g, 1 - b1)
    m = np.multiply(m0, b1)
    m += tmp
    np.multiply(g, g, out=tmp)
    tmp *= 1 - b2
    v = np.multiply(v0, b2)
    v += tmp
    denom = np.divide(v, 1 - b2 ** t)
    np.sqrt(denom, out=denom)
    denom += eps
    np.divide(m, 1 - b1 ** t, out=tmp)
    tmp *= lr
    tmp /= denom
    flat = np.concatenate(list(params.values()), axis=None)
    flat -= tmp
    new, end = {}, 0
    for name, p in params.items():
        new[name] = flat[end:end + p.size].reshape(p.shape)
        end += p.size
    return new, (m, v, t)


def _splitmix_reference(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def rng_reference(seed: int, start: int, kind: str, size, low=0.0, high=1.0) -> np.ndarray:
    """What ``Rng(seed)`` returns for ``kind`` ("u64", "uniform", "normal"
    or "permutation") after ``start`` draws, by whole-array formulas: every
    counter of the draw at once, then each operation over the whole array,
    with no blocks and no in-place steps. ``size`` is an int, or a tuple
    for uniform and normal."""
    n = int(np.prod(size))

    def u64(first: int, count: int) -> np.ndarray:
        idx = np.arange(first + 1, first + count + 1, dtype=np.uint64)
        return _splitmix_reference(np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
                                   + idx * np.uint64(0x9E3779B97F4A7C15))

    if kind == "u64":
        return u64(start, n)
    if kind == "permutation":
        return np.argsort(u64(start, n), kind="stable")
    if kind == "uniform":
        u = (u64(start, n) >> np.uint64(11)).astype(np.float64) * 2.0**-53
        return (low + (high - low) * u).reshape(size)
    m = (n + 1) // 2
    raw = u64(start, 2 * m)
    u1 = ((raw[:m] >> np.uint64(11)) + np.uint64(1)).astype(np.float64) * 2.0**-53
    u2 = (raw[m:] >> np.uint64(11)).astype(np.float64) * 2.0**-53
    r = np.sqrt(-2.0 * np.log(u1))
    theta = 2.0 * np.pi * u2
    return np.concatenate([r * np.cos(theta), r * np.sin(theta)])[:n].reshape(size)


def build_arch_loss(kind: str, task: str, seed: int, beta: float = 0.0,
                    dn: int = 6, ln: int = 4, k: int = 3, batch: int = 2):
    """A small architecture instance and its loss closure for grad checks.

    Returns (params, loss_fn, tape, loss) where loss_fn(params) -> float
    rebuilds the forward pass, or None if the instance sits too close to
    a relu kink for finite differences.
    """
    spec = cv.NetworkSpec(kind=kind, input_dim=dn, latent_dim=ln,
                          output_dim=k, task=task)
    model = cv.init_params(spec, seed=seed)
    g = np.random.default_rng(seed)
    x_re, x_im = g.standard_normal((batch, dn)), g.standard_normal((batch, dn))
    labels = g.integers(0, k, size=batch)
    targets = g.standard_normal((batch, spec.head_width))

    def run(params):
        m = cv.Model(spec=spec, params=params)
        tape = cv.Tape()
        res = cv.forward(m, x_re, x_im, tape)
        if task == "classification":
            loss = cv.cross_entropy(res.pred, labels)
        else:
            loss = cv.mse(res.pred, targets)
        if beta > 0 and kind == "analytic":
            loss = cv.total_loss(loss, cv.hilbert_penalty(res.latent_pair), beta)
        return tape, loss

    tape, loss = run(model.params)
    assert len(relu_preactivations(tape)) == RELU_NODES[kind]
    if relu_margin(tape) < 1e-3:
        return None
    return model.params, (lambda p: float(run(p)[1].data)), tape, loss


def zero_dc_nyquist(rows: np.ndarray) -> np.ndarray:
    """Project out the DC and Nyquist components of each row (even length)."""
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64)).copy()
    n = rows.shape[1]
    rows -= rows.mean(axis=1, keepdims=True)
    alt = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    rows -= (rows @ alt)[:, None] / n * alt[None, :]
    return rows


def synthetic_classification(m: int, dn: int, k: int, seed: int,
                             spread: float = 0.3, proto_seed: int = 777,
                             scale: float = 1.0) -> cv.Dataset:
    """Separable complex-feature classes: shared prototype spectra plus noise.

    Prototypes depend only on (proto_seed, dn, k), so train/test splits
    generated with different seeds share the same class structure.
    """
    pg = np.random.default_rng(proto_seed)
    proto_re = pg.standard_normal((k, dn))
    proto_im = pg.standard_normal((k, dn))
    g = np.random.default_rng(seed)
    labels = g.integers(0, k, size=m)
    re = scale * (proto_re[labels] + spread * g.standard_normal((m, dn)))
    im = scale * (proto_im[labels] + spread * g.standard_normal((m, dn)))
    return cv.Dataset(re, im, labels, "classification",
                      provenance=f"synthetic(m={m},k={k},seed={seed})")


def random_regression(m: int, dn: int, k: int, seed: int) -> cv.Dataset:
    """Gaussian features and [M, 2k] targets: k real parts, k imaginary parts."""
    g = np.random.default_rng(seed)
    targets = np.concatenate([g.standard_normal((m, k)), g.standard_normal((m, k))], axis=1)
    return cv.Dataset(g.standard_normal((m, dn)), g.standard_normal((m, dn)),
                      targets, "complex_regression",
                      provenance=f"random-regression(seed={seed})")


def python(*args, cwd=None) -> subprocess.CompletedProcess:
    """``python *args`` in a child process that imports cvlearn from the
    same place this process did."""
    src = str(Path(cv.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    return subprocess.run([sys.executable, *map(str, args)],
                          capture_output=True, text=True, env=env, cwd=cwd)


def cli(*args, cwd=None) -> subprocess.CompletedProcess:
    """``python -m cvlearn *args`` in a child process, as ``python`` runs it."""
    return python("-m", "cvlearn", *args, cwd=cwd)
