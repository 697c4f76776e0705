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

import functools
import json
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .data import (ChannelSpec, Dataset, add_complex_noise, dft_encode,
                   gen_channel_dataset, load_cvds, output_dir, staged)
from .diagnostics import latent_orthogonality
from .errors import DataError, ValidationError
from .losses import TrainConfig
from .models import KINDS, NetworkSpec, latent_channels, param_count
from .rng import Rng
# evaluate and train_model stay bound here, though unused, so
# perfbench/spans.py can wrap every binding site of them
from .train import evaluate, forward_metrics, train_model, train_models  # noqa: F401

CHANNEL_EPOCHS = 150
CVMNIST_EPOCHS = 60
NOISE_EPOCHS = 40

CHANNEL_LR, CHANNEL_BETA = 1e-4, 1e-4
CVMNIST_LR, CVMNIST_BETA = 1e-3, 1e-3
BATCH_SIZE = 32


def _mean_std(values: Sequence[float]) -> dict:
    vals = np.asarray(values, dtype=np.float64)
    std = float(np.std(vals, ddof=1)) if vals.size > 1 else 0.0
    return {"mean": float(vals.mean()), "std": std}


def _compare(runs: list[tuple[int, Dataset, Dataset]], lr: float, beta: float,
             epochs: int) -> dict[str, list[dict]]:
    """Train each architecture's (seed, train set, test set) runs as one
    ensemble; returns, per architecture, each run's test metrics,
    parameter count and latent orthogonality from one forward pass."""
    if not runs:
        raise ValidationError("n_seeds must be >= 1")
    train_ds = runs[0][1]
    cfgs = [TrainConfig(learning_rate=lr, beta=beta, epochs=epochs,
                        batch_size=BATCH_SIZE, seed=seed) for seed, _, _ in runs]
    per_seed: dict[str, list[dict]] = {}
    for arch in KINDS:
        spec = NetworkSpec(kind=arch, input_dim=train_ds.dn, latent_dim=64,
                           output_dim=train_ds.k, task=train_ds.task)
        trained = train_models(spec, [ds for _, ds, _ in runs], cfgs)
        per_seed[arch] = []
        for (model, _), (_, _, test_ds) in zip(trained, runs):
            metrics, result = forward_metrics(model, test_ds)
            metrics["params"] = param_count(model)
            metrics["orthogonality"] = latent_orthogonality(*latent_channels(result))
            per_seed[arch].append(metrics)
    return per_seed


def _summary(samples: dict[str, dict[str, list]]) -> dict:
    """mean +/- std of each architecture's named samples."""
    return {arch: {name: _mean_std(values) for name, values in named.items()}
            for arch, named in samples.items()}


def _table(title: str, summary: dict, rows: Sequence[tuple[str, str, int]],
           per_seed: Optional[dict] = None) -> str:
    """One column per architecture; a row (label, name, digits) shows
    summary[arch][name], and a Parameters row follows when ``per_seed``
    is given."""
    cells = [(label, [_fmt(summary[a][name], digits) for a in KINDS])
             for label, name, digits in rows]
    if per_seed is not None:
        cells.append(("Parameters", [str(per_seed[a][0]["params"]) for a in KINDS]))
    return "\n".join([title, f"{'':<18}" + "".join(f"{a:>18}" for a in KINDS)] + [
        f"{label:<18}" + "".join(f"{c:>18}" for c in row) for label, row in cells])


def _fmt(ms: dict, digits: int) -> str:
    return f"{ms['mean']:.{digits}f} ± {ms['std']:.{digits}f}"


def _writes_out_dir(run):
    """``run`` with an ``out_dir`` keyword. Unless it is None, the directory
    is made before ``run`` starts, and the result is written there as JSON
    and as its table, both files or neither."""
    @functools.wraps(run)
    def wrapper(*args, out_dir=None, **kwargs) -> dict:
        if out_dir is None:
            return run(*args, **kwargs)
        out_dir = Path(out_dir)
        with output_dir(out_dir):
            result = run(*args, **kwargs)
            name = result["recipe"].replace("-", "_")
            with staged(out_dir / f"{name}.json", out_dir / f"{name}.txt") as (
                    json_tmp, table_tmp):
                json_tmp.write_text(json.dumps(result, indent=1), encoding="utf-8")
                table_tmp.write_text(result["table"] + "\n", encoding="utf-8")
        return result
    return wrapper


@_writes_out_dir
def run_channel_id(base_seed: int = 1, n_seeds: int = 5,
                   epochs: int = CHANNEL_EPOCHS, m: int = 1000,
                   test_m: int = 1000) -> dict:
    """Nonlinear channel identification: rho = sqrt(2)/2, 5 dB SNR."""
    chan = ChannelSpec()
    seeds = list(range(base_seed, base_seed + n_seeds))
    runs = []
    for seed in seeds:
        data_rng = Rng(seed)
        runs.append((seed,
                     gen_channel_dataset(chan, m, data_rng.substream("channel/train").seed),
                     gen_channel_dataset(chan, test_m, data_rng.substream("channel/test").seed)))
    per_seed = _compare(runs, CHANNEL_LR, CHANNEL_BETA, epochs)
    summary = _summary({a: {key: [run[key] for run in per_seed[a]] for key in
                            ("mse", "mag_mse", "phase_mse", "orthogonality")}
                        for a in KINDS})
    return {
        "recipe": "channel-id",
        "base_seed": base_seed, "seeds": seeds, "epochs": epochs,
        "channel": {"rho": chan.rho, "snr_db": chan.snr_db, "m": m, "test_m": test_m},
        "per_seed": per_seed, "summary": summary,
        "table": _table(f"channel-id (rho={chan.rho:.4f}, {chan.snr_db:g} dB SNR, "
                        f"M={m}, {n_seeds} seed(s))", summary,
                        [("Magnitude MSE", "mag_mse", 3), ("Phase MSE", "phase_mse", 3)],
                        per_seed),
    }


def _mnist_datasets(data_dir, m: int) -> tuple[Dataset, Dataset]:
    """The first m training images and every test image, dft_encoded."""
    data_dir = Path(data_dir)
    train_path = data_dir / "mnist-real" / "train"
    test_path = data_dir / "mnist-real" / "test"
    for p in (train_path, test_path):
        if not (p / "meta.json").exists():
            raise DataError(
                f"expected a real-form CVDS dataset at {p} "
                "(see README: converting MNIST to CVDS)")
    train_raw, test_raw = load_cvds(train_path), load_cvds(test_path)
    if train_raw.m < m:
        raise DataError(f"mnist-real/train has {train_raw.m} rows; need {m}")
    return dft_encode(train_raw.take(m)), dft_encode(test_raw)


@_writes_out_dir
def run_cvmnist500(data_dir, base_seed: int = 1, n_seeds: int = 5,
                   epochs: int = CVMNIST_EPOCHS, m: int = 500) -> dict:
    """Spectral MNIST classification from the first m training images."""
    train_ds, test_ds = _mnist_datasets(data_dir, m)
    seeds = list(range(base_seed, base_seed + n_seeds))
    runs = [(seed, train_ds, test_ds) for seed in seeds]
    per_seed = _compare(runs, CVMNIST_LR, CVMNIST_BETA, epochs)
    summary = _summary({a: {key: [run[key] for run in per_seed[a]] for key in
                            ("accuracy", "orthogonality")}
                        for a in KINDS})
    return {
        "recipe": "cvmnist500",
        "base_seed": base_seed, "seeds": seeds, "epochs": epochs, "m": m,
        "per_seed": per_seed, "summary": summary,
        "table": _table(f"cvmnist500 (M={m}, {n_seeds} seed(s), {epochs} epochs)",
                        summary, [("Accuracy (%)", "accuracy", 3)], per_seed),
    }


@_writes_out_dir
def run_noise_sweep(data_dir, base_seed: int = 1, n_seeds: int = 1,
                    etas: Sequence[float] = (0.0, 0.5, 1.0, 1.5, 2.0),
                    m: int = 2000, epochs: int = NOISE_EPOCHS) -> dict:
    """Train-set noise robustness on spectral MNIST; test set stays clean."""
    clean_train, test_ds = _mnist_datasets(data_dir, m)
    seeds = list(range(base_seed, base_seed + n_seeds))
    keys = [f"{eta:g}" for eta in etas]
    runs = [(seed, add_complex_noise(clean_train, eta,
                                     Rng(seed).substream(f"noise/eta{key}").seed), test_ds)
            for eta, key in zip(etas, keys) for seed in seeds]
    results = _compare(runs, CVMNIST_LR, CVMNIST_BETA, epochs)
    per_seed = {a: {key: results[a][i * n_seeds:(i + 1) * n_seeds]
                    for i, key in enumerate(keys)} for a in KINDS}
    grid = _summary({a: {key: [r["accuracy"] for r in per_seed[a][key]] for key in keys}
                     for a in KINDS})
    return {
        "recipe": "noise-sweep",
        "base_seed": base_seed, "seeds": seeds, "epochs": epochs, "m": m,
        "etas": list(etas), "per_seed": per_seed, "summary": grid,
        "table": _table(f"noise-sweep accuracy (%) (M={m}, {n_seeds} seed(s))", grid,
                        [(f"eta={key}", key, 2) for key in keys]),
    }


# channel-id generates its data, so it takes no data directory
RECIPES = {
    "channel-id": lambda data_dir, **kwargs: run_channel_id(**kwargs),
    "cvmnist500": run_cvmnist500,
    "noise-sweep": run_noise_sweep,
}


def run_recipe(name: str, data_dir=".", **kwargs) -> dict:
    if name not in RECIPES:
        raise ValidationError(
            f"unknown recipe {name!r}; available: {sorted(RECIPES)}")
    return RECIPES[name](data_dir, **kwargs)
