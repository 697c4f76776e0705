"""Seeded training loop, evaluation, and the on-disk run report.

A run is fully determined by its config: one root seed feeds named
substreams for initialization, per-epoch shuffling, and any noise
corruption, so re-running a config reproduces every logged metric
bit-identically. The report JSON echoes the resolved config for that
purpose.

Runs that differ only in seed and data train together as one stacked
ensemble (``train_models``); a single run is its one-member case, so
there is one training loop.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import MISSING, asdict, fields
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tape
from .data import Dataset, add_complex_noise, load_cvds, output_dir, staged
from .diagnostics import accuracy, mag_phase_mse, mse_metric
from .errors import ContractError, DataError, DivergenceError, ValidationError
from .losses import (TrainConfig, adam_init, adam_step, cross_entropy, finite,
                     hilbert_penalty, mse, total_loss)
from .models import (KINDS, ForwardResult, Model, NetworkSpec, forward, init_params,
                     save_checkpoint)
from .rng import Rng

REPORT_FORMAT = "cvlearn-report-v1"


def evaluate(model: Model, ds: Dataset) -> dict:
    """Task metrics of a model on a dataset (no gradients kept)."""
    return forward_metrics(model, ds)[0]


def forward_metrics(model: Model, ds: Dataset) -> tuple[dict, ForwardResult]:
    """One forward pass over a dataset: the task metrics, and the result
    whose latents the diagnostics read. A dataset that does not fit the
    network raises DataError, and so do predictions or metrics that are
    not all finite, as finite parameters can still overflow on the way."""
    model.spec.check_fits(ds, "dataset")
    with np.errstate(over="ignore", invalid="ignore"):
        result = forward(model, ad.trusted_constant(ds.features_re),
                         ad.trusted_constant(ds.features_im))
        pred = result.pred.data
        if ds.task == "classification":
            metrics = {"accuracy": accuracy(pred, ds.labels)}
        else:
            mp = mag_phase_mse(pred, ds.labels)
            metrics = {"mse": mse_metric(pred, ds.labels),
                       "mag_mse": mp.mag_mse, "phase_mse": mp.phase_mse,
                       "degenerate_phases": mp.degenerate_phases}
    if not (np.isfinite(pred).all() and all(map(math.isfinite, metrics.values()))):
        raise DataError("the model's predictions or metrics on this dataset are not "
                        "all finite: its parameters overflow")
    return metrics, result


def primary_metric(metrics: dict) -> float:
    return metrics["accuracy"] if "accuracy" in metrics else metrics["mse"]


def train_model(spec: NetworkSpec, train_ds: Dataset, cfg: TrainConfig,
                test_ds: Optional[Dataset] = None) -> tuple[Model, list[dict]]:
    """Train one architecture; returns the model and per-epoch records.

    Shuffling draws from substreams named only by (seed, epoch), so
    different architectures trained with the same seed see the same
    data order.
    """
    [(model, epochs)] = train_models(spec, [train_ds], [cfg],
                                     None if test_ds is None else [test_ds])
    return model, epochs


def _check_members(spec: NetworkSpec, train_sets: Sequence[Dataset],
                   cfgs: Sequence[TrainConfig],
                   test_sets: Optional[Sequence[Dataset]]) -> None:
    if not cfgs or len(train_sets) != len(cfgs) or (
            test_sets is not None and len(test_sets) != len(cfgs)):
        raise ContractError("an ensemble needs one train set and one config per "
                            "member, and one test set each when any is given")
    shared = asdict(cfgs[0])
    for i, cfg in enumerate(cfgs):
        for key, value in asdict(cfg).items():
            if key != "seed" and value != shared[key]:
                raise ContractError(f"ensemble member {i} differs in config field {key}")
    for what, sets in (("train", train_sets), ("test", test_sets or ())):
        for i, ds in enumerate(sets):
            spec.check_fits(ds, f"ensemble member {i}: {what} set")
            if what == "train" and ds.m != train_sets[0].m:
                raise ContractError(f"ensemble member {i}: train set has M={ds.m}, "
                                    f"member 0's has M={train_sets[0].m}")


def _rows(arrays: list) -> np.ndarray:
    """The members' row arrays end to end; no copy for one member."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


def train_models(spec: NetworkSpec, train_sets: Sequence[Dataset],
                 cfgs: Sequence[TrainConfig],
                 test_sets: Optional[Sequence[Dataset]] = None
                 ) -> list[tuple[Model, list[dict]]]:
    """Train E runs of one architecture as one stacked ensemble.

    Members share ``spec``, the train-set size M and every TrainConfig field
    but ``seed``; each keeps its own train set, initialization and
    ``shuffle/epoch{e}`` substreams. ``beta`` weights analytic's penalty and
    no other kind's. Parameters carry a leading [E] axis, each step gathers
    [E, b, dN] batches, and backward takes the members' [E] losses as they
    are, so each member's updates and per-epoch records equal its solo run
    bit for bit; ``train_model`` is the E = 1 case, member axis included.
    Returns (model, per-epoch records) per member, in order; each model views
    the Adam buffer of the last accepted update, which nothing writes once
    training ends. A non-finite loss or update raises DivergenceError naming
    the step, epoch and seed of the first member whose loss, or whose own
    rows of Adam's refused (elementwise) update, are not finite.
    """
    _check_members(spec, train_sets, cfgs, test_sets)
    cfg, n, m = cfgs[0], len(cfgs), train_sets[0].m
    members = [init_params(spec, c.seed).params for c in cfgs]
    stack = Model(spec, {name: np.stack([p[name] for p in members]) for name in members[0]})

    def member(e: int) -> Model:
        return Model(spec, {name: p[e] for name, p in stack.params.items()})

    state = adam_init(stack.params)
    roots = [Rng(c.seed) for c in cfgs]
    use_penalty = spec.kind == "analytic" and cfg.beta > 0
    x_re = _rows([ds.features_re for ds in train_sets])
    x_im = _rows([ds.features_im for ds in train_sets])
    y = _rows([ds.labels for ds in train_sets])
    offsets = np.arange(n)[:, None] * m     # member e's rows start at e * m
    histories: list[list[dict]] = [[] for _ in cfgs]
    # overflow only matters once it reaches the loss or the parameters,
    # where it is caught and reported as a DivergenceError
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for epoch in range(1, cfg.epochs + 1):
            perms = offsets + np.stack(
                [r.substream(f"shuffle/epoch{epoch}").permutation(m) for r in roots])
            # per-member sums as Python floats: cheaper than numpy at this
            # size, and the same IEEE double arithmetic
            loss_sums, penalty_sums = [0.0] * n, [0.0] * n
            for start in range(0, m, cfg.batch_size):
                idx = perms[:, start:start + cfg.batch_size]
                b = idx.shape[1]
                tape = Tape()
                # rows of checked Datasets: bound without a second finite check
                result = forward(stack, ad.trusted_constant(x_re[idx]),
                                 ad.trusted_constant(x_im[idx]), tape)
                loss = (cross_entropy(result.pred, y[idx]) if spec.task == "classification"
                        else mse(result.pred, ad.trusted_constant(y[idx])))
                if use_penalty:
                    penalty = hilbert_penalty(result.latent_pair)
                    penalty_sums = [s + v * b for s, v in
                                    zip(penalty_sums, penalty.data.tolist())]
                    loss = total_loss(loss, penalty, cfg.beta)
                losses = loss.data.tolist()
                finite = [math.isfinite(v) for v in losses]
                if not all(finite):
                    raise DivergenceError(state.t + 1, "loss", epoch,
                                          cfgs[finite.index(False)].seed)
                grads = tape.backward(loss)
                try:
                    stack.params, state = adam_step(stack.params, grads, state, cfg)
                except DivergenceError as e:
                    member_ok = np.logical_and.reduce(
                        [np.isfinite(p.reshape(n, -1)).all(axis=1) for p in e.params.values()])
                    bad = int(np.argmin(member_ok))     # the first member not all finite
                    raise DivergenceError(e.step, e.what, epoch, cfgs[bad].seed) from None
                loss_sums = [s + v * b for s, v in zip(loss_sums, losses)]
            for e, records in enumerate(histories):
                records.append({
                    "epoch": epoch,
                    "train_loss": loss_sums[e] / m,
                    "penalty_value": penalty_sums[e] / m if use_penalty else None,
                    "test_metric": (primary_metric(evaluate(member(e), test_sets[e]))
                                    if test_sets is not None else None),
                })
    return [(member(e), records) for e, records in enumerate(histories)]


# ---------------------------------------------------------------------------
# config-file driven runs


# the run-level config fields beside TrainConfig's, with the defaults of
# the optional ones
_RUN_FIELDS = {"arch": MISSING, "latent_dim": MISSING, "train_dataset": MISSING,
               "test_dataset": None, "noise_eta": 0.0, "noise_test": False}


def resolve_config(raw) -> tuple[dict, TrainConfig]:
    """Validate a run config dict and fill defaults; returns the resolved
    dict and the TrainConfig that trains it. Raises ValidationError naming
    the field."""
    if not isinstance(raw, dict):
        raise ValidationError(f"config must be a JSON object, got {type(raw).__name__}")
    train_defaults = {f.name: f.default for f in fields(TrainConfig)}
    defaults = {**_RUN_FIELDS, **train_defaults}
    unknown = set(raw) - set(defaults)
    if unknown:
        raise ValidationError(f"unknown config fields: {sorted(unknown)}")
    cfg = dict(raw)
    for name, default in defaults.items():
        if default is MISSING and name not in cfg:
            raise ValidationError(f"missing config field: {name}")
        cfg.setdefault(name, default)
    if isinstance(cfg["arch"], str):
        cfg["arch"] = cfg["arch"].lower()
    if cfg["arch"] not in KINDS:
        raise ValidationError(f"config field arch: unknown architecture {cfg['arch']!r}")
    if not isinstance(cfg["latent_dim"], int) or cfg["latent_dim"] < 2 \
            or cfg["latent_dim"] % 2 != 0:
        raise ValidationError("config field latent_dim: must be a positive even integer")
    if not isinstance(cfg["train_dataset"], str) or not cfg["train_dataset"]:
        raise ValidationError("config field train_dataset: must be a non-empty path")
    if cfg["test_dataset"] == "" or not isinstance(cfg["test_dataset"], (str, type(None))):
        raise ValidationError("config field test_dataset: must be null or a non-empty path")
    eta = cfg["noise_eta"]
    if not isinstance(eta, (int, float)) or isinstance(eta, bool) or not finite(eta) \
            or eta < 0:
        raise ValidationError("config field noise_eta: must be a finite non-negative number")
    if not isinstance(cfg["noise_test"], bool):
        raise ValidationError("config field noise_test: must be a boolean")
    tc = TrainConfig(**{name: cfg[name] for name in train_defaults})
    if tc.beta > 0 and cfg["arch"] != "analytic":
        raise ValidationError("config field beta: must be 0 unless arch is analytic")
    cfg.update(asdict(tc))
    return cfg, tc


def _load_run_datasets(cfg: dict) -> tuple[Dataset, Optional[Dataset]]:
    train_ds = load_cvds(cfg["train_dataset"])
    test_ds = load_cvds(cfg["test_dataset"]) if cfg["test_dataset"] is not None else None
    if cfg["noise_eta"] > 0:
        noise_root = Rng(cfg["seed"])
        train_ds = add_complex_noise(train_ds, cfg["noise_eta"],
                                     noise_root.substream("noise/train").seed)
        if cfg["noise_test"] and test_ds is not None:
            test_ds = add_complex_noise(test_ds, cfg["noise_eta"],
                                        noise_root.substream("noise/test").seed)
    return train_ds, test_ds


def run_training(raw_config: dict, out_dir) -> dict:
    """Config-driven training: writes report.json and checkpoint.bin."""
    cfg, tc = resolve_config(raw_config)
    train_ds, test_ds = _load_run_datasets(cfg)
    spec = NetworkSpec(kind=cfg["arch"], input_dim=train_ds.dn, latent_dim=cfg["latent_dim"],
                       output_dim=train_ds.k, task=train_ds.task)
    # an unusable output path fails here, not after the whole run; a run
    # that fails leaves no directory it made behind
    out_dir = Path(out_dir)
    with output_dir(out_dir):
        started = time.monotonic()
        try:
            model, epochs = train_model(spec, train_ds, tc, test_ds)
        except MemoryError:
            raise ValidationError(f"a network of dN {spec.input_dim}, latent_dim "
                                  f"{spec.latent_dim} and {spec.output_dim} outputs "
                                  f"does not fit in memory") from None
        wall = time.monotonic() - started
        report = {
            "format": REPORT_FORMAT,
            "config": cfg,
            "network": asdict(spec),
            "dataset_provenance": {"train": train_ds.provenance,
                                   "test": test_ds.provenance if test_ds else None},
            "epochs": epochs,
            "final": {
                "train": evaluate(model, train_ds),
                "test": evaluate(model, test_ds) if test_ds is not None else None,
            },
            "wall_clock_seconds": wall,
        }
        with staged(out_dir / "report.json", out_dir / "checkpoint.bin") as (
                report_tmp, checkpoint_tmp):
            report_tmp.write_text(json.dumps(report, indent=1), encoding="utf-8")
            save_checkpoint(model, checkpoint_tmp, seed=tc.seed, epoch=tc.epochs)
    return report

