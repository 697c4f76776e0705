"""Acceptance suite: one test per release criterion, printed pass lines.

Run with `pytest tests/test_acceptance.py -v -s`. Criteria 4 and 6 need
a user-supplied real-form CVDS copy of MNIST under datasets/mnist-real
(see README); they skip with instructions when it is absent. Everything
else is self-contained.
"""

import time
from pathlib import Path

import numpy as np
import pytest

import cvlearn as cv
from cvlearn import diagnostics as dg
from cvlearn import transforms as tr
from cvlearn.models import forward, latent_channels
from cvlearn.recipes import run_channel_id, run_cvmnist500, run_noise_sweep
from cvlearn.train import train_model

from helpers import (block_relative_error, build_arch_loss, central_diff,
                     synthetic_classification, zero_dc_nyquist)

DATA_DIR = Path(__file__).resolve().parent.parent / "datasets"
MNIST_MISSING = not (DATA_DIR / "mnist-real" / "train" / "meta.json").exists()
MNIST_SKIP_REASON = (
    f"user-supplied MNIST not found at {DATA_DIR / 'mnist-real'}; "
    "convert it to real-form CVDS first (README: converting MNIST to CVDS)")

ARCHS = ("rvnn", "cvnn", "steinmetz", "analytic")


def _ok(criterion: str, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: PASS — {detail}")


def test_criterion_1_transform_suite():
    started = time.monotonic()
    for n in (8, 16, 64, 256):
        g = np.random.default_rng(n)
        z = g.standard_normal(n) + 1j * g.standard_normal(n)
        # Parseval
        energy = np.sum(np.abs(z) ** 2)
        assert abs(energy - np.sum(np.abs(tr.dft_array(z)) ** 2) / n) <= 1e-9 * energy
        # FFT path vs direct summation
        direct = tr.dft_direct_array(z)
        assert np.abs(tr.dft_array(z) - direct).max() <= 1e-9 * np.abs(direct).max()
        # inverse identity
        back = tr.dft_array(tr.dft_array(z), inverse=True)
        assert np.abs(back - z).max() <= 1e-10 * max(1.0, np.abs(z).max())
        # quadrature pair
        grid = 2 * np.pi * np.arange(n) / n
        assert np.abs(tr.hilbert_freq(np.cos(grid)) - np.sin(grid)).max() <= 1e-9
        # 100 random zero-DC, zero-Nyquist signals
        for seed in range(100):
            s = zero_dc_nyquist(np.random.default_rng(seed).standard_normal(n))[0]
            scale = max(1.0, np.abs(s).max())
            h = tr.hilbert_freq(s)
            assert np.abs(tr.dht_cotangent(s) - h).max() <= 1e-9 * scale
            assert np.abs(-tr.hilbert_freq(h) - s).max() <= 1e-9 * scale
            assert abs(np.dot(s, h)) <= 1e-9 * np.dot(s, s)
    elapsed = time.monotonic() - started
    assert elapsed < 1.0, f"transform suite took {elapsed:.2f}s (budget 1s)"
    _ok("1 (transforms)", f"all identities at n in 8..256 in {elapsed:.2f}s")


def test_criterion_2_gradient_suite():
    started = time.monotonic()
    per_arch = {}
    for kind in ARCHS:
        beta = 0.001 if kind == "analytic" else 0.0
        worst, checked, seed = 0.0, 0, 0
        while checked < 20:
            built = build_arch_loss(kind, "classification", seed, beta=beta)
            seed += 1
            assert seed < 200, "could not find 20 kink-free instances"
            if built is None:
                continue  # too close to a relu kink for finite differences
            params, loss_fn, tape, loss = built
            grads = tape.backward(loss)
            fd = central_diff(loss_fn, params)
            worst = max(worst, block_relative_error(fd, grads))
            checked += 1
        assert worst < 1e-5, f"{kind}: relative error {worst:.3g}"
        per_arch[kind] = worst
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"gradient suite took {elapsed:.1f}s (budget 10s)"
    detail = ", ".join(f"{k}={v:.2g}" for k, v in per_arch.items())
    _ok("2 (gradients)", f"20 seeds/arch within 1e-5 ({detail}) in {elapsed:.1f}s")


def test_criterion_3_penalty_semantics():
    g = np.random.default_rng(33)
    m, ln = 6, 32
    z_re = g.standard_normal((m, ln))
    exact_im = tr.hilbert_rows_array(z_re)

    def penalty_of(z_im):
        tape = cv.Tape()
        pair = cv.LatentPair(z_re=tape.leaf(z_re, name="z_re"),
                             z_im=tape.leaf(z_im, name="z_im"))
        return tape, cv.hilbert_penalty(pair)

    # forward direction: on the constraint manifold the penalty vanishes
    _, penalty = penalty_of(exact_im)
    assert float(penalty.data) <= 1e-18

    # reverse direction: any deviation gives a strictly positive penalty
    for delta in (1e-6, 1e-3, 0.1):
        bumped = exact_im.copy()
        bumped[3, 7] += delta
        _, p = penalty_of(bumped)
        expected = delta ** 2 / (m * ln)
        assert float(p.data) >= 0.99 * expected

    # closed-form gradient of the penalty
    z_im = g.standard_normal((m, ln))
    tape, penalty = penalty_of(z_im)
    grads = tape.backward(penalty)
    resid = 2.0 * (tr.hilbert_rows_array(z_re) - z_im) / (m * ln)
    assert np.abs(grads["z_re"] - tr.hilbert_adjoint_rows_array(resid)).max() <= 1e-9
    assert np.abs(grads["z_im"] + resid).max() <= 1e-9
    _ok("3 (penalty)", "zero iff exact Hilbert pair; gradient matches closed form")


TABLE1 = {"rvnn": 73.18, "cvnn": 71.72, "steinmetz": 74.68, "analytic": 75.58}


@pytest.mark.skipif(MNIST_MISSING, reason=MNIST_SKIP_REASON)
def test_criterion_4_cvmnist500_ordering():
    result = run_cvmnist500(DATA_DIR, base_seed=1, n_seeds=5)
    means = {a: result["summary"][a]["accuracy"]["mean"] for a in ARCHS}
    print("\n" + result["table"])
    # soft band vs the reference results: reported, not asserted
    for arch, ref in TABLE1.items():
        flag = "within" if abs(means[arch] - ref) <= 4.0 else "OUTSIDE"
        print(f"  soft band: {arch} {means[arch]:.2f} vs {ref:.2f} ({flag} +/-4)")
    assert means["analytic"] > means["rvnn"], means
    assert means["steinmetz"] > means["rvnn"], means
    _ok("4 (cvmnist500)", f"ordering holds: {means}")


def test_criterion_5_channel_identification_ordering():
    result = run_channel_id(base_seed=1, n_seeds=5)
    phase = {a: result["summary"][a]["phase_mse"]["mean"] for a in ARCHS}
    print("\n" + result["table"])
    baseline = min(phase["rvnn"], phase["cvnn"])
    assert phase["steinmetz"] < baseline, phase
    assert phase["analytic"] < baseline, phase
    _ok("5 (channel-id)",
        f"phase MSE: steinmetz {phase['steinmetz']:.4f}, analytic "
        f"{phase['analytic']:.4f} < rvnn {phase['rvnn']:.4f}, cvnn {phase['cvnn']:.4f}")


@pytest.mark.skipif(MNIST_MISSING, reason=MNIST_SKIP_REASON)
def test_criterion_6_noise_robustness_trend():
    etas = (0.0, 0.5, 1.0, 1.5, 2.0)
    result = run_noise_sweep(DATA_DIR, base_seed=1, n_seeds=1, etas=etas, m=2000)
    print("\n" + result["table"])
    acc = {a: [result["summary"][a][f"{e:g}"]["mean"] for e in etas] for a in ARCHS}
    for arch in ARCHS:
        for lo, hi in zip(acc[arch][1:], acc[arch][:-1]):
            assert lo <= hi + 1.0, f"{arch} not non-increasing: {acc[arch]}"
    assert acc["steinmetz"][-1] > acc["rvnn"][-1], acc
    assert acc["analytic"][-1] > acc["rvnn"][-1], acc
    _ok("6 (noise robustness)", f"accuracy trend holds: {acc}")


def test_criterion_7_penalty_drives_orthogonality():
    train = synthetic_classification(256, 32, 4, seed=10, spread=0.5, scale=5.0)
    held_out = synthetic_classification(512, 32, 4, seed=11, spread=0.5, scale=5.0)
    spec = {"input_dim": 32, "latent_dim": 16, "output_dim": 4,
            "task": "classification"}
    analytic_vals, plain_vals = [], []
    for seed in (1, 2, 3):
        per_seed = {}
        for kind, beta in (("steinmetz", 0.0), ("analytic", 0.001)):
            cfg = cv.TrainConfig(learning_rate=1e-3, beta=beta, epochs=800,
                                 batch_size=32, seed=seed)
            model, _ = train_model(cv.NetworkSpec(kind=kind, **spec), train, cfg)
            z_re, z_im = latent_channels(forward(model, held_out.features_re,
                                                 held_out.features_im))
            per_seed[kind] = dg.latent_orthogonality(z_re, z_im)
        assert per_seed["analytic"] <= per_seed["steinmetz"], per_seed
        analytic_vals.append(per_seed["analytic"])
        plain_vals.append(per_seed["steinmetz"])
    mean_analytic = float(np.mean(analytic_vals))
    assert mean_analytic <= 0.1, analytic_vals
    _ok("7 (latent orthogonality)",
        f"analytic mean {mean_analytic:.4f} <= 0.1; per-seed analytic "
        f"{[f'{v:.3f}' for v in analytic_vals]} vs plain "
        f"{[f'{v:.3f}' for v in plain_vals]}")


def test_criterion_8_covariance_diagnostics():
    g = np.random.default_rng(88)
    # norm_j >= norm_s on every evaluated batch, random and trained
    for _ in range(50):
        b, ln = int(g.integers(2, 40)), int(g.integers(1, 12))
        out = dg.covariance_comparison(g.standard_normal((b, ln)),
                                       g.standard_normal((b, ln)))
        assert out.norm_j >= out.norm_s
    train = synthetic_classification(64, 16, 3, seed=20)
    for kind in ARCHS:
        net = cv.NetworkSpec(kind=kind, input_dim=16, latent_dim=8,
                             output_dim=3, task="classification")
        cfg = cv.TrainConfig(learning_rate=0.003, epochs=10, batch_size=16, seed=3)
        model, _ = train_model(net, train, cfg)
        z_re, z_im = latent_channels(forward(model, train.features_re, train.features_im))
        out = dg.covariance_comparison(z_re, z_im)
        assert out.norm_j >= out.norm_s
    # independent synthetic latents: ratio within 5% of 1 at batch 10,000
    out = dg.covariance_comparison(g.standard_normal((10_000, 8)),
                                   g.standard_normal((10_000, 8)))
    assert abs(out.ratio - 1.0) <= 0.05
    _ok("8 (diagnostics)", f"norm_j >= norm_s everywhere; independent ratio "
        f"{out.ratio:.4f}")


def test_criterion_9_recipe_determinism():
    a = run_channel_id(base_seed=7, n_seeds=1, epochs=3, m=128, test_m=128)
    b = run_channel_id(base_seed=7, n_seeds=1, epochs=3, m=128, test_m=128)
    assert a == b  # bit-identical metrics, tables, and summaries
    _ok("9 (determinism)", "channel-id recipe re-run is bit-identical")
