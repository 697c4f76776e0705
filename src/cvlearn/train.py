"""Seeded training loop, evaluation, and the on-disk run report.

A run is fully determined by its config: one root seed feeds named
substreams for initialization, per-epoch shuffling, and any noise
corruption, so re-running a config reproduces every logged metric
bit-identically. The report JSON echoes the resolved config for that
purpose.
"""

from __future__ import annotations

import json
import math
import time
from pathlib import Path
from typing import Optional

import numpy as np

from .autodiff import Tape
from .data import Dataset, add_complex_noise, load_cvds, stacked_targets
from .diagnostics import accuracy, mag_phase_mse, mse_metric
from .errors import DataError, DivergenceError, ValidationError
from .losses import (TrainConfig, adam_init, adam_step, cross_entropy,
                     hilbert_penalty, mse, total_loss)
from .models import Model, NetworkSpec, forward, init_params, save_checkpoint
from .rng import Rng

REPORT_FORMAT = "cvlearn-report-v1"


def _task_loss(pred, ds: Dataset, idx: np.ndarray, targets: Optional[np.ndarray]):
    if ds.task == "classification":
        return cross_entropy(pred, ds.labels[idx])
    return mse(pred, targets[idx])


def evaluate(model: Model, ds: Dataset) -> dict:
    """Task metrics of a model on a dataset (no gradients kept)."""
    result = forward(model, ds.features_re, ds.features_im)
    pred = result.pred.data
    if ds.task == "classification":
        return {"accuracy": accuracy(pred, ds.labels)}
    targets = stacked_targets(ds)
    mp = mag_phase_mse(pred, targets)
    return {"mse": mse_metric(pred, targets),
            "mag_mse": mp.mag_mse, "phase_mse": mp.phase_mse,
            "degenerate_phases": mp.degenerate_phases}


def primary_metric(metrics: dict) -> float:
    return metrics["accuracy"] if "accuracy" in metrics else metrics["mse"]


def train_model(spec: NetworkSpec, train_ds: Dataset, cfg: TrainConfig,
                test_ds: Optional[Dataset] = None) -> tuple[Model, list[dict]]:
    """Train one architecture; returns the model and per-epoch records.

    Shuffling draws from substreams named only by (seed, epoch), so
    different architectures trained with the same seed see the same
    data order.
    """
    model = init_params(spec, cfg.seed)
    state = adam_init(model.params)
    root = Rng(cfg.seed)
    use_penalty = spec.kind == "analytic" and cfg.beta > 0
    targets = stacked_targets(train_ds) if train_ds.task == "complex_regression" else None
    m = train_ds.m
    epochs: list[dict] = []
    for epoch in range(1, cfg.epochs + 1):
        perm = root.substream(f"shuffle/epoch{epoch}").permutation(m)
        loss_sum = 0.0
        penalty_sum = 0.0
        for start in range(0, m, cfg.batch_size):
            idx = perm[start:start + cfg.batch_size]
            tape = Tape()
            result = forward(model, train_ds.features_re[idx],
                             train_ds.features_im[idx], tape)
            loss = _task_loss(result.pred, train_ds, idx, targets)
            penalty = None
            if use_penalty:
                penalty = hilbert_penalty(result.latent_pair)
                penalty_sum += float(penalty.data) * idx.size
            loss = total_loss(loss, penalty, cfg.beta if use_penalty else 0.0)
            loss_value = float(loss.data)
            if not math.isfinite(loss_value):
                raise DivergenceError(state.t + 1, "loss", epoch)
            grads = tape.backward(loss)
            try:
                model.params, state = adam_step(model.params, grads, state, cfg)
            except DivergenceError as e:
                raise DivergenceError(e.step, e.what, epoch) from None
            loss_sum += loss_value * idx.size
        record = {
            "epoch": epoch,
            "train_loss": loss_sum / m,
            "penalty_value": (penalty_sum / m) if use_penalty else None,
            "test_metric": (primary_metric(evaluate(model, test_ds))
                            if test_ds is not None else None),
        }
        epochs.append(record)
    return model, epochs


# ---------------------------------------------------------------------------
# config-file driven runs


_CONFIG_FIELDS = {"arch", "latent_dim", "train_dataset", "test_dataset",
                  "noise_eta", "noise_test", "learning_rate", "beta", "epochs",
                  "batch_size", "seed", "adam_b1", "adam_b2", "adam_eps"}


def resolve_config(raw: dict) -> dict:
    """Validate a run config dict and fill defaults; raises ValidationError."""
    unknown = set(raw) - _CONFIG_FIELDS
    if unknown:
        raise ValidationError(f"unknown config fields: {sorted(unknown)}")
    for required in ("arch", "latent_dim", "train_dataset", "learning_rate"):
        if required not in raw:
            raise ValidationError(f"missing config field: {required}")
    cfg = dict(raw)
    cfg.setdefault("test_dataset", None)
    cfg.setdefault("noise_eta", 0.0)
    cfg.setdefault("noise_test", False)
    if isinstance(cfg["arch"], str):
        cfg["arch"] = cfg["arch"].lower()
    if cfg["arch"] not in ("rvnn", "cvnn", "steinmetz", "analytic"):
        raise ValidationError(f"config field arch: unknown architecture {cfg['arch']!r}")
    if not isinstance(cfg["latent_dim"], int) or cfg["latent_dim"] < 2 \
            or cfg["latent_dim"] % 2 != 0:
        raise ValidationError("config field latent_dim: must be a positive even integer")
    if not isinstance(cfg["noise_eta"], (int, float)) or cfg["noise_eta"] < 0:
        raise ValidationError("config field noise_eta: must be a non-negative number")
    if not isinstance(cfg["noise_test"], bool):
        raise ValidationError("config field noise_test: must be a boolean")
    # remaining numeric fields validated by TrainConfig
    train_fields = {k: v for k, v in cfg.items()
                    if k in ("learning_rate", "beta", "epochs", "batch_size",
                             "seed", "adam_b1", "adam_b2", "adam_eps")}
    tc = TrainConfig.from_dict(train_fields)
    cfg.update(tc.to_dict())
    return cfg


def _load_run_datasets(cfg: dict) -> tuple[Dataset, Optional[Dataset]]:
    train_ds = load_cvds(cfg["train_dataset"])
    test_ds = load_cvds(cfg["test_dataset"]) if cfg["test_dataset"] else None
    if cfg["noise_eta"] > 0:
        noise_root = Rng(cfg["seed"])
        train_ds = add_complex_noise(train_ds, cfg["noise_eta"],
                                     noise_root.substream("noise/train").seed)
        if cfg["noise_test"] and test_ds is not None:
            test_ds = add_complex_noise(test_ds, cfg["noise_eta"],
                                        noise_root.substream("noise/test").seed)
    if test_ds is not None:
        if (test_ds.task, test_ds.dn) != (train_ds.task, train_ds.dn):
            raise DataError("test dataset task/feature width does not match train dataset")
    return train_ds, test_ds


def spec_for(cfg: dict, train_ds: Dataset) -> NetworkSpec:
    return NetworkSpec(kind=cfg["arch"], input_dim=train_ds.dn,
                       latent_dim=cfg["latent_dim"], output_dim=train_ds.k,
                       task=train_ds.task)


def run_training(raw_config: dict, out_dir) -> dict:
    """Config-driven training: writes report.json and checkpoint.bin."""
    cfg = resolve_config(raw_config)
    train_ds, test_ds = _load_run_datasets(cfg)
    spec = spec_for(cfg, train_ds)
    if test_ds is not None and test_ds.k != train_ds.k:
        raise DataError("test dataset output width does not match train dataset")
    tc = TrainConfig.from_dict({k: cfg[k] for k in
                                ("learning_rate", "beta", "epochs", "batch_size",
                                 "seed", "adam_b1", "adam_b2", "adam_eps")})
    started = time.monotonic()
    model, epochs = train_model(spec, train_ds, tc, test_ds)
    wall = time.monotonic() - started
    report = {
        "format": REPORT_FORMAT,
        "config": cfg,
        "network": spec.to_dict(),
        "dataset_provenance": {"train": train_ds.provenance,
                               "test": test_ds.provenance if test_ds else None},
        "epochs": epochs,
        "final": {
            "train": evaluate(model, train_ds),
            "test": evaluate(model, test_ds) if test_ds is not None else None,
        },
        "wall_clock_seconds": wall,
    }
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.json").write_text(
        json.dumps(report, indent=1), encoding="utf-8")
    save_checkpoint(model, out_dir / "checkpoint.bin", seed=tc.seed, epoch=tc.epochs)
    return report
