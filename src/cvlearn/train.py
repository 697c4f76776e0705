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

import contextlib
import json
import math
import os
import tempfile
import time
from dataclasses import MISSING, fields
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tape
from .data import Dataset, add_complex_noise, load_cvds, stacked_targets
from .diagnostics import accuracy, mag_phase_mse, mse_metric
from .errors import ContractError, DataError, DivergenceError, ValidationError
from .losses import (AdamState, TrainConfig, adam_init, adam_step, cross_entropy,
                     finite, hilbert_penalty, mse, total_loss)
from .models import (KINDS, ForwardResult, Model, NetworkSpec, forward, init_params,
                     save_checkpoint)
from .rng import Rng

REPORT_FORMAT = "cvlearn-report-v1"


def evaluate(model: Model, ds: Dataset) -> dict:
    """Task metrics of a model on a dataset (no gradients kept)."""
    return forward_metrics(model, ds)[0]


def forward_metrics(model: Model, ds: Dataset) -> tuple[dict, ForwardResult]:
    """One forward pass over a dataset: the task metrics, and the result
    whose latents the diagnostics read."""
    result = forward(model, ds.features_re, ds.features_im)
    pred = result.pred.data
    if ds.task == "classification":
        return {"accuracy": accuracy(pred, ds.labels)}, result
    targets = stacked_targets(ds)
    mp = mag_phase_mse(pred, targets)
    return {"mse": mse_metric(pred, targets),
            "mag_mse": mp.mag_mse, "phase_mse": mp.phase_mse,
            "degenerate_phases": mp.degenerate_phases}, result


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
    shared = cfgs[0].to_dict()
    for i, (cfg, ds) in enumerate(zip(cfgs, train_sets)):
        for key, value in cfg.to_dict().items():
            if key != "seed" and value != shared[key]:
                raise ContractError(f"ensemble member {i} differs in config field {key}")
        if (ds.task, ds.dn, ds.m) != (spec.task, spec.input_dim, train_sets[0].m) or (
                ds.task == "complex_regression" and ds.k != spec.output_dim):
            raise ContractError(
                f"ensemble member {i}: train set (task {ds.task}, M={ds.m}, "
                f"dN={ds.dn}, k={ds.k}) does not fit the network spec and member 0")


def _rows(arrays: list) -> np.ndarray:
    """The members' row arrays end to end; no copy for one member."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


def _diverged_member(params: dict, grads: dict, state: AdamState,
                     cfg: TrainConfig, n: int) -> int:
    """The first of the ``n`` members whose own Adam update is non-finite:
    the update is elementwise, so it is re-run on each member's share of
    every parameter, gradient and moment buffer."""
    bounds = np.cumsum([0] + [p.size for p in params.values()])
    for e in range(n):
        def own(flat):
            return np.concatenate([flat[lo:hi].reshape(n, -1)[e]
                                   for lo, hi in zip(bounds, bounds[1:])])
        try:
            adam_step({k: p.reshape(n, -1)[e] for k, p in params.items()},
                      {k: grads[k].reshape(n, -1)[e] for k in params},
                      AdamState(own(state.m), own(state.v), state.t), cfg)
        except DivergenceError:
            return e
    return 0


def train_models(spec: NetworkSpec, train_sets: Sequence[Dataset],
                 cfgs: Sequence[TrainConfig],
                 test_sets: Optional[Sequence[Dataset]] = None
                 ) -> list[tuple[Model, list[dict]]]:
    """Train E runs of one architecture as one stacked ensemble.

    Members share ``spec``, the train-set size M and every TrainConfig
    field but ``seed``; each keeps its own train set, initialization and
    ``shuffle/epoch{e}`` substreams. Parameters carry a leading [E] axis,
    each step gathers [E, b, dN] batches, and the loss is the sum of the
    members' own losses, so each member's updates and per-epoch records
    equal its solo run bit for bit. A lone member trains without the
    leading axis, on the plain arrays, which numpy handles with less
    overhead per call. Returns (model, per-epoch records) per member, in
    order. A non-finite loss or update raises DivergenceError naming the
    step, epoch and the member's seed.
    """
    _check_members(spec, train_sets, cfgs, test_sets)
    cfg, n, m = cfgs[0], len(cfgs), train_sets[0].m
    members = [init_params(spec, c.seed).params for c in cfgs]
    shapes = {name: p.shape for name, p in members[0].items()}
    lead = (n,) if n > 1 else ()
    stack = Model(spec, {name: np.stack([p[name] for p in members]).reshape(lead + shape)
                         for name, shape in shapes.items()})

    def member(e: int) -> Model:
        return Model(spec, {name: p.reshape((n,) + shapes[name])[e]
                            for name, p in stack.params.items()})

    state = adam_init(stack.params)
    roots = [Rng(c.seed) for c in cfgs]
    use_penalty = spec.kind == "analytic" and cfg.beta > 0
    x_re = _rows([ds.features_re for ds in train_sets])
    x_im = _rows([ds.features_im for ds in train_sets])
    y = _rows([ds.labels if ds.task == "classification" else stacked_targets(ds)
               for ds in train_sets])
    offsets = np.arange(n)[:, None] * m     # member e's rows start at e * m
    histories: list[list[dict]] = [[] for _ in cfgs]
    # overflow only matters once it reaches the loss or the parameters,
    # where it is caught and reported as a DivergenceError
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for epoch in range(1, cfg.epochs + 1):
            perms = (offsets + np.stack(
                [r.substream(f"shuffle/epoch{epoch}").permutation(m) for r in roots]
            )).reshape(lead + (m,))
            # per-member sums as Python floats: cheaper than numpy at this
            # size, and the same IEEE double arithmetic
            loss_sums, penalty_sums = [0.0] * n, [0.0] * n
            for start in range(0, m, cfg.batch_size):
                idx = perms[..., start:start + cfg.batch_size]
                b = idx.shape[-1]
                tape = Tape()
                result = forward(stack, x_re[idx], x_im[idx], tape)
                loss = (cross_entropy(result.pred, y[idx]) if spec.task == "classification"
                        else mse(result.pred, y[idx]))
                if use_penalty:
                    penalty = hilbert_penalty(result.latent_pair)
                    penalty_sums = [s + v * b for s, v in
                                    zip(penalty_sums, penalty.data.reshape(n).tolist())]
                    loss = total_loss(loss, penalty, cfg.beta)
                losses = loss.data.reshape(n).tolist()
                finite = [math.isfinite(v) for v in losses]
                if not all(finite):
                    raise DivergenceError(state.t + 1, "loss", epoch,
                                          cfgs[finite.index(False)].seed)
                grads = tape.backward(ad.sum_all(loss))
                try:
                    stack.params, state = adam_step(stack.params, grads, state, cfg)
                except DivergenceError as e:
                    bad = _diverged_member(stack.params, grads, state, cfg, n)
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


def resolve_config(raw) -> dict:
    """Validate a run config dict and fill defaults; raises ValidationError
    naming the field."""
    return _resolve(raw)[0]


def _resolve(raw) -> tuple[dict, TrainConfig]:
    """The resolved config dict and the TrainConfig that trains it."""
    if not isinstance(raw, dict):
        raise ValidationError(f"config must be a JSON object, got {type(raw).__name__}")
    train_fields = {f.name for f in fields(TrainConfig)}
    unknown = set(raw) - set(_RUN_FIELDS) - train_fields
    if unknown:
        raise ValidationError(f"unknown config fields: {sorted(unknown)}")
    cfg = dict(raw)
    for name, default in _RUN_FIELDS.items():
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
    if not isinstance(cfg["train_dataset"], str):
        raise ValidationError("config field train_dataset: must be a path string")
    if not isinstance(cfg["test_dataset"], (str, type(None))):
        raise ValidationError("config field test_dataset: must be a path string or null")
    eta = cfg["noise_eta"]
    if not isinstance(eta, (int, float)) or isinstance(eta, bool) or not finite(eta) \
            or eta < 0:
        raise ValidationError("config field noise_eta: must be a finite non-negative number")
    if not isinstance(cfg["noise_test"], bool):
        raise ValidationError("config field noise_test: must be a boolean")
    tc = TrainConfig.from_dict({k: v for k, v in cfg.items() if k in train_fields})
    cfg.update(tc.to_dict())
    return cfg, tc


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
    if test_ds is not None and (test_ds.task, test_ds.dn, test_ds.k) != (
            train_ds.task, train_ds.dn, train_ds.k):
        raise DataError("test dataset task, feature width or output width "
                        "does not match train dataset")
    return train_ds, test_ds


def run_training(raw_config: dict, out_dir) -> dict:
    """Config-driven training: writes report.json and checkpoint.bin."""
    cfg, tc = _resolve(raw_config)
    train_ds, test_ds = _load_run_datasets(cfg)
    spec = NetworkSpec(kind=cfg["arch"], input_dim=train_ds.dn, latent_dim=cfg["latent_dim"],
                       output_dim=train_ds.k, task=train_ds.task)
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
    with _staged(out_dir / "report.json") as report_tmp, \
            _staged(out_dir / "checkpoint.bin") as checkpoint_tmp:
        report_tmp.write_text(json.dumps(report, indent=1), encoding="utf-8")
        save_checkpoint(model, checkpoint_tmp, seed=tc.seed, epoch=tc.epochs)
    return report


@contextlib.contextmanager
def _staged(path: Path):
    """A temp file beside ``path`` that replaces it when the block ends
    normally and is removed when it raises, so ``path`` is never left
    half-written."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    os.close(fd)
    tmp = Path(tmp)
    try:
        yield tmp
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
