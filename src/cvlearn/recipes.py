"""Desk-scale experiment recipes comparing the four architectures.

Each recipe trains rvnn, cvnn, steinmetz, and analytic under matched
budgets (same data order, batch size, epochs, and learning rate per
seed) and reports mean +/- std of the final test metrics over the
requested seeds. Everything is derived from the base seed, so a recipe
re-run reproduces its tables bit-identically. Each architecture's runs
train together as one stacked ensemble whose members equal solo runs
bit for bit.

channel-id is fully self-contained; cvmnist500 and noise-sweep expect a
user-supplied real-form CVDS copy of MNIST (see README) under the data
directory as mnist-real/train and mnist-real/test.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Sequence

import numpy as np

from .data import (ChannelSpec, Dataset, add_complex_noise, dft_encode,
                   gen_channel_dataset, load_cvds)
from .diagnostics import latent_orthogonality
from .errors import DataError, ValidationError
from .losses import TrainConfig
from .models import NetworkSpec, latent_channels, param_count
from .rng import Rng
# train_model stays bound here, though unused, so perfbench/spans.py can
# wrap every binding site of it
from .train import evaluate, train_model, train_models  # noqa: F401

ARCHS = ("rvnn", "cvnn", "steinmetz", "analytic")

CHANNEL_EPOCHS = 150
CVMNIST_EPOCHS = 60
NOISE_EPOCHS = 40

CHANNEL_LR, CHANNEL_BETA = 1e-4, 1e-4
CVMNIST_LR, CVMNIST_BETA = 1e-3, 1e-3


def _seed_list(base_seed: int, n_seeds: int) -> list[int]:
    return [base_seed + i for i in range(n_seeds)]


def _mean_std(values: Sequence[float]) -> dict:
    vals = np.asarray(values, dtype=np.float64)
    std = float(np.std(vals, ddof=1)) if vals.size > 1 else 0.0
    return {"mean": float(vals.mean()), "std": std}


def _train_arch(arch: str, runs: list[tuple[int, Dataset, Dataset]],
                lr: float, beta: float, epochs: int, batch_size: int) -> list[dict]:
    """Train one architecture's (seed, train set, test set) runs as one
    ensemble; returns each run's test metrics, parameter count and latent
    orthogonality."""
    train_ds = runs[0][1]
    spec = NetworkSpec(kind=arch, input_dim=train_ds.dn, latent_dim=64,
                       output_dim=train_ds.k, task=train_ds.task)
    cfgs = [TrainConfig(learning_rate=lr, beta=beta if arch == "analytic" else 0.0,
                        epochs=epochs, batch_size=batch_size, seed=seed)
            for seed, _, _ in runs]
    trained = train_models(spec, [ds for _, ds, _ in runs], cfgs)
    results = []
    for (model, _), (_, _, test_ds) in zip(trained, runs):
        metrics = dict(evaluate(model, test_ds))
        metrics["params"] = param_count(model)
        z_re, z_im = latent_channels(model, test_ds.features_re, test_ds.features_im)
        metrics["orthogonality"] = latent_orthogonality(z_re, z_im)
        results.append(metrics)
    return results


def _column_table(title: str, rows: list[tuple[str, dict]]) -> str:
    """rows: (label, {arch: cell_text})."""
    header = f"{'':<18}" + "".join(f"{a:>18}" for a in ARCHS)
    lines = [title, header]
    for label, cells in rows:
        lines.append(f"{label:<18}" + "".join(f"{cells[a]:>18}" for a in ARCHS))
    return "\n".join(lines)


def _fmt(ms: dict, digits: int = 3) -> str:
    return f"{ms['mean']:.{digits}f} ± {ms['std']:.{digits}f}"


def run_channel_id(base_seed: int = 1, n_seeds: int = 5,
                   epochs: int = CHANNEL_EPOCHS, m: int = 1000,
                   test_m: int = 1000, batch_size: int = 32,
                   out_dir=None) -> dict:
    """Nonlinear channel identification: rho = sqrt(2)/2, 5 dB SNR."""
    chan = ChannelSpec()
    seeds = _seed_list(base_seed, n_seeds)
    runs = []
    for seed in seeds:
        data_rng = Rng(seed)
        runs.append((seed,
                     gen_channel_dataset(chan, m, data_rng.substream("channel/train").seed),
                     gen_channel_dataset(chan, test_m, data_rng.substream("channel/test").seed)))
    per_seed = {arch: _train_arch(arch, runs, CHANNEL_LR, CHANNEL_BETA, epochs, batch_size)
                for arch in ARCHS}
    summary = {
        arch: {key: _mean_std([run[key] for run in per_seed[arch]])
               for key in ("mse", "mag_mse", "phase_mse", "orthogonality")}
        for arch in ARCHS
    }
    rows = [
        ("Magnitude MSE", {a: _fmt(summary[a]["mag_mse"]) for a in ARCHS}),
        ("Phase MSE", {a: _fmt(summary[a]["phase_mse"]) for a in ARCHS}),
        ("Parameters", {a: str(per_seed[a][0]["params"]) for a in ARCHS}),
    ]
    result = {
        "recipe": "channel-id",
        "base_seed": base_seed, "seeds": seeds, "epochs": epochs,
        "channel": {"rho": chan.rho, "snr_db": chan.snr_db, "m": m, "test_m": test_m},
        "per_seed": per_seed, "summary": summary,
        "table": _column_table(
            f"channel-id (rho={chan.rho:.4f}, {chan.snr_db:g} dB SNR, "
            f"M={m}, {n_seeds} seed(s))", rows),
    }
    _maybe_write(result, out_dir)
    return result


def _mnist_datasets(data_dir) -> tuple[Dataset, Dataset]:
    data_dir = Path(data_dir)
    train_path = data_dir / "mnist-real" / "train"
    test_path = data_dir / "mnist-real" / "test"
    for p in (train_path, test_path):
        if not (p / "meta.json").exists():
            raise DataError(
                f"expected a real-form CVDS dataset at {p} "
                "(see README: converting MNIST to CVDS)")
    return load_cvds(train_path), load_cvds(test_path)


def run_cvmnist500(data_dir, base_seed: int = 1, n_seeds: int = 5,
                   epochs: int = CVMNIST_EPOCHS, m: int = 500,
                   batch_size: int = 32, out_dir=None) -> dict:
    """Spectral MNIST classification from the first m training images."""
    train_raw, test_raw = _mnist_datasets(data_dir)
    if train_raw.m < m:
        raise DataError(f"mnist-real/train has {train_raw.m} rows; need {m}")
    train_ds = dft_encode(train_raw.take(m))
    test_ds = dft_encode(test_raw)
    seeds = _seed_list(base_seed, n_seeds)
    runs = [(seed, train_ds, test_ds) for seed in seeds]
    per_seed = {arch: _train_arch(arch, runs, CVMNIST_LR, CVMNIST_BETA, epochs, batch_size)
                for arch in ARCHS}
    summary = {
        arch: {key: _mean_std([run[key] for run in per_seed[arch]])
               for key in ("accuracy", "orthogonality")}
        for arch in ARCHS
    }
    rows = [
        ("Accuracy (%)", {a: _fmt(summary[a]["accuracy"]) for a in ARCHS}),
        ("Parameters", {a: str(per_seed[a][0]["params"]) for a in ARCHS}),
    ]
    result = {
        "recipe": "cvmnist500",
        "base_seed": base_seed, "seeds": seeds, "epochs": epochs, "m": m,
        "per_seed": per_seed, "summary": summary,
        "table": _column_table(
            f"cvmnist500 (M={m}, {n_seeds} seed(s), {epochs} epochs)", rows),
    }
    _maybe_write(result, out_dir)
    return result


def run_noise_sweep(data_dir, base_seed: int = 1, n_seeds: int = 1,
                    etas: Sequence[float] = (0.0, 0.5, 1.0, 1.5, 2.0),
                    m: int = 2000, epochs: int = NOISE_EPOCHS,
                    batch_size: int = 32, out_dir=None) -> dict:
    """Train-set noise robustness on spectral MNIST; test set stays clean."""
    train_raw, test_raw = _mnist_datasets(data_dir)
    if train_raw.m < m:
        raise DataError(f"mnist-real/train has {train_raw.m} rows; need {m}")
    clean_train = dft_encode(train_raw.take(m))
    test_ds = dft_encode(test_raw)
    seeds = _seed_list(base_seed, n_seeds)
    keys = [f"{eta:g}" for eta in etas]
    runs = [(seed, add_complex_noise(clean_train, eta,
                                     Rng(seed).substream(f"noise/eta{key}").seed), test_ds)
            for eta, key in zip(etas, keys) for seed in seeds]
    grid: dict[str, dict[str, dict]] = {arch: {} for arch in ARCHS}
    per_seed: dict[str, dict[str, list]] = {arch: {} for arch in ARCHS}
    for arch in ARCHS:
        results = _train_arch(arch, runs, CVMNIST_LR, CVMNIST_BETA, epochs, batch_size)
        for i, key in enumerate(keys):
            per_seed[arch][key] = results[i * n_seeds:(i + 1) * n_seeds]
            grid[arch][key] = _mean_std([r["accuracy"] for r in per_seed[arch][key]])
    rows = [(f"eta={eta:g}", {a: _fmt(grid[a][f'{eta:g}'], 2) for a in ARCHS})
            for eta in etas]
    result = {
        "recipe": "noise-sweep",
        "base_seed": base_seed, "seeds": seeds, "epochs": epochs, "m": m,
        "etas": list(etas), "per_seed": per_seed, "summary": grid,
        "table": _column_table(
            f"noise-sweep accuracy (%) (M={m}, {n_seeds} seed(s))", rows),
    }
    _maybe_write(result, out_dir)
    return result


def _maybe_write(result: dict, out_dir) -> None:
    if out_dir is None:
        return
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    name = result["recipe"].replace("-", "_")
    (out_dir / f"{name}.json").write_text(json.dumps(result, indent=1),
                                          encoding="utf-8")
    (out_dir / f"{name}.txt").write_text(result["table"] + "\n", encoding="utf-8")


RECIPES = {
    "channel-id": run_channel_id,
    "cvmnist500": run_cvmnist500,
    "noise-sweep": run_noise_sweep,
}


def run_recipe(name: str, data_dir=".", **kwargs) -> dict:
    if name not in RECIPES:
        raise ValidationError(
            f"unknown recipe {name!r}; available: {sorted(RECIPES)}")
    if name == "channel-id":
        return run_channel_id(**kwargs)
    return RECIPES[name](data_dir, **kwargs)
