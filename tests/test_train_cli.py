import functools
import gc
import json
import pickle
import shutil
import tracemalloc
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import cvlearn as cv
import cvlearn.cli  # noqa: F401  (binds cv.cli)
from cvlearn.errors import DataError, DivergenceError, ValidationError
from cvlearn.models import Model
from cvlearn.train import (evaluate, forward_metrics, resolve_config, run_training,
                           train_model, train_models)

from helpers import cli as _cli
from helpers import random_regression, synthetic_classification

ALL_KINDS = ["rvnn", "cvnn", "steinmetz", "analytic"]


def _smoke_spec(kind, task="classification"):
    return cv.NetworkSpec(kind=kind, input_dim=8, latent_dim=8, output_dim=3,
                          task=task)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_memorization_canary(kind):
    # 50-sample memorization: loss falls below 10% of its initial value
    ds = synthetic_classification(50, 8, 3, seed=100, spread=0.8)
    cfg = cv.TrainConfig(learning_rate=0.003,
                         beta=0.001 if kind == "analytic" else 0.0,
                         epochs=200, batch_size=32, seed=1)
    _, epochs = train_model(_smoke_spec(kind), ds, cfg)
    initial = epochs[0]["train_loss"]
    best = min(e["train_loss"] for e in epochs)
    assert best < 0.1 * initial, f"{kind}: best {best:.4f} vs initial {initial:.4f}"


def test_training_improves_test_metric():
    train = synthetic_classification(200, 8, 3, seed=101, spread=0.5)
    test = synthetic_classification(300, 8, 3, seed=102, spread=0.5)
    cfg = cv.TrainConfig(learning_rate=0.003, epochs=30, batch_size=32, seed=2)
    model, epochs = train_model(_smoke_spec("steinmetz"), train, cfg, test)
    assert epochs[-1]["test_metric"] > 90.0
    assert [e["epoch"] for e in epochs] == list(range(1, 31))


def test_train_determinism_bit_identical():
    ds = synthetic_classification(60, 8, 3, seed=103)
    cfg = cv.TrainConfig(learning_rate=0.002, beta=0.001, epochs=12,
                         batch_size=16, seed=5)
    m1, e1 = train_model(_smoke_spec("analytic"), ds, cfg)
    m2, e2 = train_model(_smoke_spec("analytic"), ds, cfg)
    assert e1 == e2
    for name in m1.params:
        assert np.array_equal(m1.params[name], m2.params[name])


def test_architectures_share_data_order():
    # the shuffle substream depends only on (seed, epoch), never the arch
    from cvlearn.rng import Rng
    p1 = Rng(9).substream("shuffle/epoch3").permutation(10)
    p2 = Rng(9).substream("shuffle/epoch3").permutation(10)
    assert np.array_equal(p1, p2)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_dropped_tapes_freed_without_cyclic_gc(kind, monkeypatch):
    refs = []

    class TrackedTape(cv.Tape):
        __slots__ = ()

        def __init__(self):
            super().__init__()
            refs.append(weakref.ref(self))

    monkeypatch.setattr(cv.train, "Tape", TrackedTape)
    monkeypatch.setattr(cv.models, "Tape", TrackedTape)
    ds = synthetic_classification(16, 8, 3, seed=112)
    cfg = cv.TrainConfig(learning_rate=0.003, beta=0.001, epochs=1,
                         batch_size=16, seed=1)
    gc.disable()
    try:
        model, _ = train_model(_smoke_spec(kind), ds, cfg)  # one step
        assert len(refs) == 1 and refs[0]() is None
        # evaluation builds no tape, and its results hold no graph
        evaluate(model, ds)
        _, result = forward_metrics(model, ds)
        assert len(refs) == 1
        assert result.pred.parents == () and result.pred.vjps == ()
    finally:
        gc.enable()


def _evaluate_peak(model, ds) -> int:
    evaluate(model, ds)  # warm-up
    tracemalloc.start()
    try:
        evaluate(model, ds)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@functools.lru_cache(maxsize=None)
def _spectral_set():
    x = np.random.default_rng(3).standard_normal((2000, 784))
    return cv.dft_encode(cv.Dataset(x, np.zeros_like(x), np.arange(2000) % 10,
                                    "classification"))


def test_rvnn_evaluate_of_spectral_set_allocates_no_joined_input():
    # 2000 x 784 dft_encoded rows, latent 64, 10 classes. The two channel
    # blocks are read in place, each ReLU runs in place and no graph is
    # kept, so the peak is the [2000, 64] and [2000, 128] activations:
    # 3.14 MB measured (3.21 MB while each call copied its weight, 5.1 MB
    # with a separate ReLU node), where the joined [2000, 1568] input alone
    # took 25.1 MB. Pinned at 3.7 MB, under one [2000, 64] activation
    # (1.02 MB) above the measured peak.
    model = cv.init_params(cv.NetworkSpec("rvnn", 784, 64, 10, "classification"), 1)
    assert _evaluate_peak(model, _spectral_set()) <= 3.7e6


# tracemalloc peaks of a no-graph evaluate at lN 64, pinned at about +15% of
# the measured (rvnn's 784-wide set is pinned above). On 10k channel rows an
# [m, 64] activation is 5.12 MB: measured 15.50 MB for rvnn (fc1's and fc2's
# outputs, 5.12 + 10.24 MB), 20.55 MB for cvnn (a complex layer's two inputs,
# its real part and the one cross product the imaginary part still needs:
# each input is freed after its last product), 15.51 MB for steinmetz and
# analytic (the real latent and two of the imaginary branch's activations;
# the head reads both latents in place). On 2000 x 784 rows the [m, 64] activation is
# 1.02 MB and the 784-wide weight copies 0.4 MB each: measured 4.17 MB for
# cvnn, 3.18 MB for steinmetz and analytic. Each margin is below one
# [m, 64] activation (rvnn 2.3, cvnn 3.05, steinmetz 2.29 of 5.12 MB on the
# channel set; cvnn 0.63, steinmetz 0.52 of 1.02 MB on 784), so an
# activation kept past its use does not fit. With a separate ReLU node the
# rvnn, steinmetz and analytic peaks were 25.6, 31.0 and 31.0 MB, and
# 6.39 MB on 784; with layer 1's outputs kept through layer 2, cvnn's were
# 25.67 and 5.19 MB; with the latents joined into an [m, 128] copy for the
# head, steinmetz's and analytic's were 20.71 and 4.34 MB. With no weight
# copy per call the 784-wide peaks are 4.10 MB for cvnn and 3.16 MB for
# steinmetz and analytic.
@pytest.mark.parametrize("rows,kind,pin_mb", [
    ("channel", "rvnn", 17.8), ("channel", "cvnn", 23.6),
    ("channel", "steinmetz", 17.8), ("channel", "analytic", 17.8),
    ("spectral", "cvnn", 4.8), ("spectral", "steinmetz", 3.7),
    ("spectral", "analytic", 3.7)])
def test_evaluate_memory_peak(rows, kind, pin_mb):
    if rows == "channel":
        ds = cv.gen_channel_dataset(cv.ChannelSpec(), 10000, seed=1)
        spec = cv.NetworkSpec(kind, ds.dn, 64, ds.k, "complex_regression")
    else:
        ds = _spectral_set()
        spec = cv.NetworkSpec(kind, 784, 64, 10, "classification")
    assert _evaluate_peak(cv.init_params(spec, 1), ds) <= pin_mb * 1e6


@functools.lru_cache(maxsize=None)
def _trained_spectral(kind):
    """A 784-wide model (lN 64, 10 classes) after one epoch on 64 encoded
    rows: its parameters view Adam's buffer, each weight stored [in, out]."""
    x = np.random.default_rng(4).standard_normal((64, 784))
    ds = cv.dft_encode(cv.Dataset(x, np.zeros_like(x), np.arange(64) % 10,
                                  "classification"))
    cfg = cv.TrainConfig(learning_rate=1e-3, beta=1e-3 if kind == "analytic" else 0.0,
                         epochs=1, batch_size=32, seed=1)
    return train_model(cv.NetworkSpec(kind, 784, 64, 10, "classification"), ds, cfg)[0]


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_no_graph_forward_of_a_trained_model_copies_no_weight(kind):
    # one 32-row batch: the activations are 16-33 kB. linear and cvnn's
    # complex layer multiply by the weights' own [in, out] storage; measured
    # 0.085 MB for rvnn and 0.069 MB for the others, where a contiguous copy
    # of w.T per call took 0.84 (rvnn's 0.80 MB fc1.w), 0.87 (cvnn) and
    # 0.45 MB (steinmetz, analytic: one 0.40 MB first-layer weight each).
    model = _trained_spectral(kind)
    xr, xi = _spectral_set().features_re[:32], _spectral_set().features_im[:32]
    largest = max(p.nbytes for p in model.params.values())
    cv.forward(model, xr, xi)  # warm-up
    tracemalloc.start()
    try:
        cv.forward(model, xr, xi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < largest, peak


@pytest.mark.parametrize("source", ["fresh", "loaded"])
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_no_graph_forward_of_a_fresh_or_loaded_model_copies_no_weight(kind, source,
                                                                      tmp_path):
    # as for a trained model: init_params and load_checkpoint hold each
    # weight [in, out] in C order, the layout its product reads. Measured
    # 0.085 MB for rvnn and 0.070 MB for the others; 0.84, 0.87 and 0.45 MB
    # when each call copied a weight declared [out, in] to a contiguous w.T.
    model = cv.init_params(cv.NetworkSpec(kind, 784, 64, 10, "classification"), 1)
    if source == "loaded":
        cv.save_checkpoint(model, tmp_path / "ckpt.bin", seed=1, epoch=0)
        model = cv.load_checkpoint(tmp_path / "ckpt.bin")[0]
    xr, xi = _spectral_set().features_re[:32], _spectral_set().features_im[:32]
    largest = max(p.nbytes for p in model.params.values())
    cv.forward(model, xr, xi)  # warm-up
    tracemalloc.start()
    try:
        cv.forward(model, xr, xi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < largest, peak


@pytest.mark.parametrize("source", ["init_params", "train_models-E1", "train_models-E3",
                                    "load_checkpoint"])
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_every_model_holds_its_parameters_in_declared_shape_and_c_order(kind, source,
                                                                        tmp_path):
    # dN 5, lN 4 and 3 classes tell a weight's axes apart: each is declared
    # [in, out], its last axis as long as its bias
    spec = cv.NetworkSpec(kind, 5, 4, 3, "classification")
    if source == "init_params":
        models = [cv.init_params(spec, 1)]
    elif source == "load_checkpoint":
        cv.save_checkpoint(cv.init_params(spec, 1), tmp_path / "ckpt.bin", seed=1, epoch=0)
        models = [cv.load_checkpoint(tmp_path / "ckpt.bin")[0]]
    else:
        cfgs = [cv.TrainConfig(learning_rate=1e-3, epochs=1, batch_size=8, seed=s)
                for s in range(1, int(source[-1]) + 1)]
        ds = synthetic_classification(16, 5, 3, seed=7)
        models = [model for model, _ in train_models(spec, [ds] * len(cfgs), cfgs)]
    shapes = cv.models._param_shapes(spec)
    for name, shape in shapes.items():
        if len(shape) == 2:
            assert shape[-1:] == shapes[name.replace(".w", ".b")], name
    for model in models:
        assert list(model.params) == list(shapes)
        for name, p in model.params.items():
            assert p.shape == shapes[name] and p.flags.c_contiguous, name


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_forward_of_f_ordered_inputs_is_bit_identical(kind):
    # inputs enter through constant, which makes them C-contiguous, the
    # layout every parameter is held in
    model = _trained_spectral(kind)
    ds = _spectral_set()
    xr, xi = ds.features_re[:40], ds.features_im[:40]
    c = cv.forward(model, xr, xi)
    f = cv.forward(model, np.asfortranarray(xr), np.asfortranarray(xi))
    assert np.array_equal(f.pred.data, c.pred.data)
    for a, b in zip(cv.models.latent_channels(f), cv.models.latent_channels(c)):
        assert np.array_equal(a, b)


# a no-graph evaluate of a trained model on 2000 x 784 rows: measured
# 3.14 MB for rvnn, 4.10 MB for cvnn and 3.16 MB for steinmetz and analytic,
# pinned 0.30 MB above, under one 0.40 MB [64, 784] weight, so a weight copy
# kept alive through the pass does not fit.
@pytest.mark.parametrize("kind,pin_mb", [("rvnn", 3.44), ("cvnn", 4.40),
                                         ("steinmetz", 3.46), ("analytic", 3.46)])
def test_evaluate_of_a_trained_model_memory_peak(kind, pin_mb):
    assert _evaluate_peak(_trained_spectral(kind), _spectral_set()) <= pin_mb * 1e6


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_save_checkpoint_of_a_trained_model_makes_no_weight_sized_copy(kind, tmp_path):
    # each trained parameter is written whole from Adam's C-order buffer:
    # measured 10-13 kB (39 kB when each weight was written transposed in
    # 32 KiB pieces), where one copy of a weight takes 0.40-0.80 MB. The
    # bound is test_models' 0.1 MB for an untrained save.
    model = _trained_spectral(kind)
    cv.save_checkpoint(model, tmp_path / "warm.bin", seed=1, epoch=1)
    tracemalloc.start()
    try:
        cv.save_checkpoint(model, tmp_path / "ckpt.bin", seed=1, epoch=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1e5, peak
    loaded = cv.load_checkpoint(tmp_path / "ckpt.bin")[0]
    for name, p in model.params.items():
        assert np.array_equal(loaded.params[name], p), name
        assert loaded.params[name].flags.c_contiguous, name


def _training_peak(spec, ds) -> int:
    """tracemalloc peak of a warmed 2-epoch ``train_model`` at batch 32."""
    cfg = cv.TrainConfig(learning_rate=1e-3, beta=1e-3 if spec.kind == "analytic" else 0.0,
                         epochs=2, batch_size=32, seed=1)
    train_model(spec, ds, cfg)  # warm-up
    tracemalloc.start()
    try:
        train_model(spec, ds, cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@functools.lru_cache(maxsize=None)
def _channel_training_peak(kind) -> int:
    ds = cv.gen_channel_dataset(cv.ChannelSpec(), 200, seed=1)
    return _training_peak(cv.NetworkSpec(kind, ds.dn, 64, ds.k, "complex_regression"), ds)


@functools.lru_cache(maxsize=None)
def _spectral_training_peak(kind) -> int:
    x = np.random.default_rng(3).standard_normal((200, 784))
    ds = cv.dft_encode(cv.Dataset(x, np.zeros_like(x), np.arange(200) % 10,
                                  "classification"))
    return _training_peak(cv.NetworkSpec(kind, 784, 64, 10, "classification"), ds)


# The peak is Adam's state (moments, gradient, denominator and the two
# parameter buffers, the idle one its scratch), the initial parameters, and
# one step's tape and gradients. Each margin is under one parameter-sized
# buffer, so a tape kept past its step, or a third buffer per parameter,
# does not fit. With a separate scratch buffer in Adam the channel peaks
# were 1.059/1.084/1.209/1.267 MB and the spectral 11.62/11.68/11.79/11.84 MB.
# 2 epochs of a 200-row channel set at the recipe shapes (lN 64, batch 32):
# 9.3k parameters, 75 kB a buffer. These ceilings were set while each linear
# call copied its weight to a contiguous w.T (measured 0.981, 1.022, 1.076
# and 1.156 MB; 0.984, 1.026, 1.134 and 1.192 MB while each step joined its
# targets, and steinmetz's and analytic's heads their latents, into fresh arrays).
@pytest.mark.parametrize("kind,pin_mb", [("rvnn", 1.03), ("cvnn", 1.08),
                                         ("steinmetz", 1.12), ("analytic", 1.20)])
def test_short_channel_training_run_memory_peak(kind, pin_mb):
    peak = _channel_training_peak(kind)
    assert peak <= pin_mb * 1e6, peak


# The same run with no weight copy per linear call: measured 0.912, 1.006,
# 1.016 and 1.088 MB (0.982, 1.024, 1.079 and 1.160 MB while each linear
# call copied its weight to a contiguous w.T).
@pytest.mark.parametrize("kind,pin_mb", [("rvnn", 0.96), ("cvnn", 1.06),
                                         ("steinmetz", 1.06), ("analytic", 1.13)])
def test_short_channel_training_run_copies_no_weight(kind, pin_mb):
    peak = _channel_training_peak(kind)
    assert peak <= pin_mb * 1e6, peak


# 2 epochs of 200 dft_encoded 784-wide rows, 10 classes (lN 64, batch 32):
# about 110k parameters, 0.88 MB a buffer. These ceilings were set while
# each linear call copied its weight to a contiguous w.T (measured 10.74,
# 10.80, 10.84 and 10.91 MB, pinned 0.60-0.66 MB above).
@pytest.mark.parametrize("kind,pin_mb", [("rvnn", 11.35), ("cvnn", 11.40),
                                         ("steinmetz", 11.50), ("analytic", 11.55)])
def test_short_spectral_training_run_memory_peak(kind, pin_mb):
    peak = _spectral_training_peak(kind)
    assert peak <= pin_mb * 1e6, peak


# The same run with no weight copy per linear call: measured 9.87, 10.34,
# 9.97 and 10.03 MB, pinned 0.61-0.65 MB above (10.74, 10.80, 10.85 and
# 10.91 MB while each linear call copied its weight to a contiguous w.T).
@pytest.mark.parametrize("kind,pin_mb", [("rvnn", 10.48), ("cvnn", 10.95),
                                         ("steinmetz", 10.62), ("analytic", 10.68)])
def test_short_spectral_training_run_copies_no_weight(kind, pin_mb):
    peak = _spectral_training_peak(kind)
    assert peak <= pin_mb * 1e6, peak


# The same runs with every weight declared and stored [in, out], so no
# Model, fresh or trained, is copied per call: measured 0.838, 0.933, 0.941
# and 1.015 MB on the channel set and 8.99, 9.46, 9.09 and 9.16 MB on the
# 784-wide one, pinned 0.042-0.049 MB (channel; a buffer is 75 kB) and
# 0.61 MB (784-wide; 0.88 MB) above.
@pytest.mark.parametrize("kind,pin_mb", [("rvnn", 0.88), ("cvnn", 0.98),
                                         ("steinmetz", 0.99), ("analytic", 1.06)])
def test_short_channel_training_run_single_weight_layout(kind, pin_mb):
    peak = _channel_training_peak(kind)
    assert peak <= pin_mb * 1e6, peak


@pytest.mark.parametrize("kind,pin_mb", [("rvnn", 9.60), ("cvnn", 10.07),
                                         ("steinmetz", 9.70), ("analytic", 9.77)])
def test_short_spectral_training_run_single_weight_layout(kind, pin_mb):
    peak = _spectral_training_peak(kind)
    assert peak <= pin_mb * 1e6, peak


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_divergence_raises_named_error_with_step(kind):
    ds = synthetic_classification(40, 8, 3, seed=105)
    cfg = cv.TrainConfig(learning_rate=1e300, beta=0.001, epochs=3,
                         batch_size=16, seed=1)
    with pytest.raises(DivergenceError, match=r"Adam step 2 \(epoch 1\)") as info:
        train_model(_smoke_spec(kind), ds, cfg)
    assert isinstance(info.value, DataError)
    assert info.value.step == 2 and info.value.epoch == 1


def test_epochs_zero_untrained_report(tmp_path):
    ds = synthetic_classification(20, 8, 3, seed=104)
    cv.save_cvds(ds, tmp_path / "train")
    config = {"arch": "rvnn", "latent_dim": 8,
              "train_dataset": str(tmp_path / "train"),
              "learning_rate": 0.01, "epochs": 0, "seed": 3}
    report = run_training(config, tmp_path / "run")
    assert report["epochs"] == []
    model, header = cv.load_checkpoint(tmp_path / "run" / "checkpoint.bin")
    untrained = cv.init_params(model.spec, 3)
    for name in model.params:
        assert np.array_equal(model.params[name], untrained.params[name])


def test_run_training_writes_report_and_checkpoint(tmp_path):
    train = synthetic_classification(40, 8, 3, seed=105)
    test = synthetic_classification(30, 8, 3, seed=106)
    cv.save_cvds(train, tmp_path / "train")
    cv.save_cvds(test, tmp_path / "test")
    config = {"arch": "analytic", "latent_dim": 8,
              "train_dataset": str(tmp_path / "train"),
              "test_dataset": str(tmp_path / "test"),
              "learning_rate": 0.003, "beta": 0.001, "epochs": 5,
              "batch_size": 16, "seed": 11}
    report = run_training(config, tmp_path / "run")
    assert (tmp_path / "run" / "report.json").exists()
    assert len(report["epochs"]) == 5
    assert report["epochs"][0]["penalty_value"] is not None
    saved = json.loads((tmp_path / "run" / "report.json").read_text())
    assert saved["epochs"] == report["epochs"]
    model, _ = cv.load_checkpoint(tmp_path / "run" / "checkpoint.bin")
    metrics = evaluate(model, cv.load_cvds(tmp_path / "test"))
    assert metrics == report["final"]["test"]


def test_report_config_echo_reproduces_run(tmp_path):
    train = synthetic_classification(40, 8, 3, seed=107)
    cv.save_cvds(train, tmp_path / "train")
    config = {"arch": "steinmetz", "latent_dim": 8,
              "train_dataset": str(tmp_path / "train"),
              "learning_rate": 0.003, "epochs": 4, "seed": 13}
    first = run_training(config, tmp_path / "run1")
    second = run_training(first["config"], tmp_path / "run2")
    assert first["epochs"] == second["epochs"]
    assert first["final"] == second["final"]
    a = (tmp_path / "run1" / "checkpoint.bin").read_bytes()
    b = (tmp_path / "run2" / "checkpoint.bin").read_bytes()
    assert a == b


def test_noise_config_corrupts_train_only(tmp_path):
    train = synthetic_classification(30, 8, 3, seed=108)
    cv.save_cvds(train, tmp_path / "train")
    base = {"arch": "rvnn", "latent_dim": 8,
            "train_dataset": str(tmp_path / "train"),
            "learning_rate": 0.003, "epochs": 1, "seed": 1}
    clean = run_training(base, tmp_path / "clean")
    noisy = run_training({**base, "noise_eta": 1.5}, tmp_path / "noisy")
    assert clean["epochs"][0]["train_loss"] != noisy["epochs"][0]["train_loss"]


def test_resolve_config_validation():
    good = {"arch": "rvnn", "latent_dim": 8, "train_dataset": "x",
            "learning_rate": 0.1}
    with pytest.raises(ValidationError, match="arch"):
        resolve_config({**good, "arch": "perceptron"})
    with pytest.raises(ValidationError, match="latent_dim"):
        resolve_config({**good, "latent_dim": 7})
    with pytest.raises(ValidationError, match="unknown"):
        resolve_config({**good, "optimizer": "sgd"})
    with pytest.raises(ValidationError, match="missing"):
        resolve_config({"arch": "rvnn"})
    with pytest.raises(ValidationError, match="noise_eta"):
        resolve_config({**good, "noise_eta": -0.5})


@pytest.mark.parametrize("arch", ["rvnn", "cvnn", "steinmetz"])
def test_beta_only_for_the_analytic_arch(tmp_path, capsys, arch):
    # only analytic adds the penalty; elsewhere the weight would be ignored
    good = {"arch": arch, "latent_dim": 4, "learning_rate": 0.01, "epochs": 1,
            "train_dataset": str(tmp_path / "train")}
    with pytest.raises(ValidationError, match="beta"):
        resolve_config({**good, "beta": 0.5})
    assert resolve_config({**good, "beta": 0})[1].beta == 0.0
    assert resolve_config({**good, "arch": "analytic", "beta": 0.5})[1].beta == 0.5
    cv.save_cvds(synthetic_classification(20, 4, 2, seed=1), tmp_path / "train")
    (tmp_path / "cfg.json").write_text(json.dumps({**good, "beta": 0.5}))
    code = cv.cli.main(["train", "--config", str(tmp_path / "cfg.json"),
                        "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert code == 1, err
    assert err.startswith("error: ") and err.count("\n") == 1 and "beta" in err, err
    assert not (tmp_path / "run").exists()


def test_noise_eta_boolean_rejected(tmp_path, capsys):
    config = {"arch": "rvnn", "latent_dim": 8, "train_dataset": "x",
              "learning_rate": 0.1, "noise_eta": True}
    with pytest.raises(ValidationError, match="noise_eta"):
        resolve_config(config)
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    code = cv.cli.main(["train", "--config", str(tmp_path / "cfg.json"),
                        "--out", str(tmp_path / "run")])
    assert code == 1
    assert "noise_eta" in capsys.readouterr().err


def _small_run_config(tmp_path):
    cv.save_cvds(synthetic_classification(40, 8, 3, seed=105), tmp_path / "train")
    return {"arch": "steinmetz", "latent_dim": 8,
            "train_dataset": str(tmp_path / "train"),
            "learning_rate": 0.01, "epochs": 1, "seed": 1}


def test_run_training_leaves_only_its_two_files(tmp_path):
    run_training(_small_run_config(tmp_path), tmp_path / "run")
    assert sorted(p.name for p in (tmp_path / "run").iterdir()) == [
        "checkpoint.bin", "report.json"]


def test_failed_run_output_write_leaves_no_files(tmp_path, monkeypatch):
    def failing_save(model, path, seed, epoch):
        Path(path).write_bytes(b"partial")
        raise OSError("disk full")

    monkeypatch.setattr(cv.train, "save_checkpoint", failing_save)
    with pytest.raises(OSError, match="disk full"):
        run_training(_small_run_config(tmp_path), tmp_path / "run")
    assert not (tmp_path / "run").exists()  # the run made it and removed it again
    (tmp_path / "run").mkdir()
    with pytest.raises(OSError, match="disk full"):
        run_training(_small_run_config(tmp_path), tmp_path / "run")
    assert list((tmp_path / "run").iterdir()) == []


def test_cli_train_out_is_a_file_fails_before_training(tmp_path, capsys, monkeypatch):
    (tmp_path / "cfg.json").write_text(json.dumps(_small_run_config(tmp_path)))
    (tmp_path / "taken").write_text("keep")

    def unreachable(*args, **kwargs):
        raise AssertionError("training started before the output path was checked")

    monkeypatch.setattr(cv.train, "train_model", unreachable)
    code = cv.cli.main(["train", "--config", str(tmp_path / "cfg.json"),
                        "--out", str(tmp_path / "taken")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and str(tmp_path / "taken") in err, err
    assert (tmp_path / "taken").read_text() == "keep"


def test_run_training_missing_dataset(tmp_path):
    config = {"arch": "rvnn", "latent_dim": 8,
              "train_dataset": str(tmp_path / "nope"),
              "learning_rate": 0.1, "epochs": 1, "seed": 1}
    with pytest.raises(DataError):
        run_training(config, tmp_path / "run")


def test_test_dataset_mismatch_rejected(tmp_path):
    train = synthetic_classification(20, 8, 3, seed=109)
    test = synthetic_classification(20, 6, 3, seed=110)  # wrong width
    cv.save_cvds(train, tmp_path / "train")
    cv.save_cvds(test, tmp_path / "test")
    config = {"arch": "rvnn", "latent_dim": 8,
              "train_dataset": str(tmp_path / "train"),
              "test_dataset": str(tmp_path / "test"),
              "learning_rate": 0.1, "epochs": 1, "seed": 1}
    with pytest.raises(DataError):
        run_training(config, tmp_path / "run")


def test_evaluate_refuses_a_dataset_that_does_not_fit():
    model = cv.init_params(_smoke_spec("rvnn"), 1)    # 3 outputs, dN = 8
    ten_classes = replace(synthetic_classification(20, 8, 3, seed=1), num_classes=10)
    with pytest.raises(DataError, match="k=10"):
        evaluate(model, ten_classes)
    with pytest.raises(DataError, match="task complex_regression"):
        evaluate(model, random_regression(20, 8, 3, seed=1))


def _lacking_last_class(ds):
    keep = ds.labels < ds.k - 1
    return cv.Dataset(ds.features_re[keep], ds.features_im[keep], ds.labels[keep],
                      "classification")


def test_cli_train_eval_diag_accept_a_split_lacking_the_last_class(tmp_path, capsys):
    test = _lacking_last_class(synthetic_classification(40, 8, 3, seed=122))
    assert test.k == 2
    cv.save_cvds(synthetic_classification(40, 8, 3, seed=121), tmp_path / "train")
    cv.save_cvds(test, tmp_path / "test")
    config = {"arch": "rvnn", "latent_dim": 8, "train_dataset": str(tmp_path / "train"),
              "test_dataset": str(tmp_path / "test"), "learning_rate": 0.01, "epochs": 1}
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    assert cv.cli.main(["train", "--config", str(tmp_path / "cfg.json"),
                        "--out", str(tmp_path / "run")]) == 0
    final = json.loads((tmp_path / "run" / "report.json").read_text())["final"]["test"]
    args = ["--checkpoint", str(tmp_path / "run" / "checkpoint.bin"),
            "--dataset", str(tmp_path / "test")]
    for command in ("eval", "diag"):
        capsys.readouterr()
        assert cv.cli.main([command, *args]) == 0, command
        assert json.loads(capsys.readouterr().out)["accuracy"] == final["accuracy"]


# ---------------------------------------------------------------------------
# command-line interface


def test_cli_gen_train_eval_diag_roundtrip(tmp_path):
    # every command succeeds with nothing on stderr: no numpy warning leaks
    out = _cli("gen", "--task", "channel", "--m", "64", "--seed", "4",
               "--out", str(tmp_path / "train"))
    assert (out.returncode, out.stderr) == (0, ""), out.stderr
    assert json.loads(out.stdout)["task"] == "complex_regression"
    out = _cli("gen", "--task", "channel", "--m", "48", "--seed", "5",
               "--out", str(tmp_path / "test"))
    assert (out.returncode, out.stderr) == (0, ""), out.stderr

    config = {"arch": "analytic", "latent_dim": 8,
              "train_dataset": str(tmp_path / "train"),
              "test_dataset": str(tmp_path / "test"),
              "learning_rate": 0.003, "beta": 0.001, "epochs": 3,
              "batch_size": 16, "seed": 2}
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    out = _cli("train", "--config", str(tmp_path / "cfg.json"),
               "--out", str(tmp_path / "run"))
    assert (out.returncode, out.stderr) == (0, ""), out.stderr

    out = _cli("eval", "--checkpoint", str(tmp_path / "run" / "checkpoint.bin"),
               "--dataset", str(tmp_path / "test"))
    assert (out.returncode, out.stderr) == (0, ""), out.stderr
    metrics = json.loads(out.stdout)
    assert set(metrics) >= {"mse", "mag_mse", "phase_mse"}

    again = _cli("eval", "--checkpoint", str(tmp_path / "run" / "checkpoint.bin"),
                 "--dataset", str(tmp_path / "test"))
    assert (again.stdout, again.stderr) == (out.stdout, "")  # deterministic evaluation

    out = _cli("diag", "--checkpoint", str(tmp_path / "run" / "checkpoint.bin"),
               "--dataset", str(tmp_path / "test"))
    assert (out.returncode, out.stderr) == (0, ""), out.stderr
    diag = json.loads(out.stdout)
    assert diag["norm_j"] >= diag["norm_s"]
    assert 0.0 <= diag["orthogonality"] <= 1.0


def test_cli_main_reuses_its_parser_across_commands(tmp_path, capsys):
    # main builds its parser once per process: a usage error, gen, eval and
    # a second usage error in one process each give the exit code, stdout
    # and stderr of the same command in a fresh process
    assert cv.cli._build_parser() is cv.cli._build_parser()
    data = tmp_path / "data"
    gen = ["gen", "--task", "channel", "--m", "32", "--seed", "3", "--out", str(data)]
    ckpt = tmp_path / "ckpt.bin"
    runs = [["gen", "--task", "channel"], gen,
            ["eval", "--checkpoint", str(ckpt), "--dataset", str(data)],
            ["eval", "--checkpoint", str(ckpt)]]
    for argv in runs:
        fresh = _cli(*argv)
        if argv is gen:
            ds = cv.load_cvds(data)
            spec = cv.NetworkSpec("cvnn", ds.dn, 8, ds.k, "complex_regression")
            cv.save_checkpoint(cv.init_params(spec, 1), ckpt, seed=1, epoch=0)
            shutil.rmtree(data)
        code = cv.cli.main(argv)
        out, err = capsys.readouterr()
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
        if code:
            assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("task", ["classification", "complex_regression"])
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_datasets_are_bound_without_a_second_check(monkeypatch, kind, task):
    """Training and evaluation bind a Dataset's arrays, checked when it
    was made, without ``ad.constant``'s finite pass, and get the results
    of the checked binding."""
    if task == "classification":
        sets = [synthetic_classification(32, 8, 3, seed=s) for s in (130, 131)]
    else:
        sets = [random_regression(32, 8, 3, seed=s) for s in (130, 131)]
    spec = _smoke_spec(kind, task)
    cfgs = [cv.TrainConfig(learning_rate=1e-3, beta=1e-3 if kind == "analytic" else 0.0,
                           epochs=1, batch_size=32, seed=s) for s in (5, 6)]

    def run():
        model, epochs = train_model(spec, sets[0], cfgs[0])  # M = 32: one step
        metrics, result = forward_metrics(model, sets[1])
        return ([model.params, epochs, evaluate(model, sets[1]), metrics, result.pred.data]
                + [[m.params, e] for m, e in train_models(spec, sets, cfgs)])

    expected = run()
    model = Model(spec, expected[0])
    checked = cv.forward(model, np.array(sets[1].features_re), np.array(sets[1].features_im))

    def refuse(data):
        raise AssertionError("a Dataset's data went through ad.constant")

    monkeypatch.setattr(cv.autodiff, "constant", refuse)
    got = run()
    assert pickle.dumps(got) == pickle.dumps(expected)  # byte for byte
    assert np.array_equal(got[4], checked.pred.data)


def _checkpoint_and_dataset(tmp_path, kind, task):
    ds = (synthetic_classification(40, 8, 3, seed=120) if task == "classification"
          else cv.gen_channel_dataset(cv.ChannelSpec(), 40, 121))
    spec = cv.NetworkSpec(kind, ds.dn, 8, ds.k, task)
    cv.save_checkpoint(cv.init_params(spec, 3), tmp_path / "ckpt.bin", seed=3, epoch=0)
    cv.save_cvds(ds, tmp_path / "ds")
    return ["--checkpoint", str(tmp_path / "ckpt.bin"), "--dataset", str(tmp_path / "ds")]


def _counting_forward(monkeypatch) -> list:
    """Counts every forward pass, through each module that binds forward;
    records the row count of each call's input."""
    calls, original = [], cv.models.forward

    def counted(model, x_re, x_im, tape=None):
        calls.append(np.shape(x_re))
        return original(model, x_re, x_im, tape)

    for module in (cv.models, cv.train, cv.cli):
        monkeypatch.setattr(module, "forward", counted)
    return calls


@pytest.mark.parametrize("task", ["classification", "complex_regression"])
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_cli_diag_reports_every_eval_metric(tmp_path, capsys, kind, task):
    args = _checkpoint_and_dataset(tmp_path, kind, task)
    assert cv.cli.main(["eval", *args]) == 0
    metrics = json.loads(capsys.readouterr().out)
    assert cv.cli.main(["diag", *args]) == 0
    diag = json.loads(capsys.readouterr().out)
    assert {k: diag[k] for k in metrics} == metrics
    if task == "complex_regression":
        assert "degenerate_phases" in diag


@pytest.mark.parametrize("command", ["eval", "diag"])
def test_cli_eval_and_diag_run_one_forward(tmp_path, capsys, monkeypatch, command):
    args = _checkpoint_and_dataset(tmp_path, "analytic", "complex_regression")
    calls = _counting_forward(monkeypatch)
    assert cv.cli.main([command, *args]) == 0
    assert calls == [(40, 5)]


def test_recipe_runs_one_forward_per_member_test_set(monkeypatch):
    from cvlearn.recipes import run_channel_id
    calls = _counting_forward(monkeypatch)
    # test_m = 48 differs from the batch sizes of training (32 rows, stacked)
    result = run_channel_id(base_seed=1, n_seeds=2, epochs=1, m=64, test_m=48)
    assert calls.count((48, 5)) == 4 * 2
    assert all(len(shape) == 3 for shape in calls if shape != (48, 5))  # training
    assert len(result["per_seed"]["rvnn"]) == 2


def test_cli_eval_mismatched_checkpoint_is_data_error(tmp_path):
    _cli("gen", "--task", "channel", "--m", "32", "--seed", "1",
         "--out", str(tmp_path / "reg"))
    ds = synthetic_classification(16, 8, 3, seed=111)
    cv.save_cvds(ds, tmp_path / "cls")
    config = {"arch": "rvnn", "latent_dim": 8,
              "train_dataset": str(tmp_path / "cls"),
              "learning_rate": 0.01, "epochs": 1, "seed": 1}
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    assert _cli("train", "--config", str(tmp_path / "cfg.json"),
                "--out", str(tmp_path / "run")).returncode == 0
    out = _cli("eval", "--checkpoint", str(tmp_path / "run" / "checkpoint.bin"),
               "--dataset", str(tmp_path / "reg"))
    assert out.returncode == 2
    assert "task" in out.stderr


@pytest.mark.parametrize("target", ["a-directory", "no-such-dir/m.json"])
@pytest.mark.parametrize("command", ["eval", "diag"])
def test_cli_eval_and_diag_out_fails_before_printing(tmp_path, capsys, command, target):
    spec = _smoke_spec("steinmetz")
    cv.save_cvds(synthetic_classification(16, 8, 3, seed=1), tmp_path / "d")
    cv.save_checkpoint(cv.init_params(spec, 1), tmp_path / "ckpt.bin", seed=1, epoch=0)
    (tmp_path / "a-directory").mkdir()
    code = cv.cli.main([command, "--checkpoint", str(tmp_path / "ckpt.bin"),
                        "--dataset", str(tmp_path / "d"), "--out", str(tmp_path / target)])
    out, err = capsys.readouterr()
    assert (code, out) == (2, ""), err
    assert err.startswith("data error: ") and f"'{tmp_path / target}'" in err, err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a-directory", "ckpt.bin", "d"]
    assert list((tmp_path / "a-directory").iterdir()) == []


def test_recipe_output_is_both_files_or_neither(tmp_path):
    out_dir = tmp_path / "exp"
    (out_dir / "channel_id.txt").mkdir(parents=True)
    with pytest.raises(IsADirectoryError):
        cv.recipes.run_channel_id(n_seeds=1, epochs=1, m=16, test_m=16, out_dir=out_dir)
    assert [p.name for p in out_dir.iterdir()] == ["channel_id.txt"]


def test_recipe_out_is_a_file_fails_before_training(tmp_path, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("the recipe started before its output path was checked")

    monkeypatch.setattr(cv.recipes, "gen_channel_dataset", unreachable)
    (tmp_path / "taken").write_text("keep")
    with pytest.raises(FileExistsError):
        cv.recipes.run_channel_id(n_seeds=1, epochs=1, m=16, test_m=16,
                                  out_dir=tmp_path / "taken")
    assert (tmp_path / "taken").read_text() == "keep"


def test_cli_invalid_config_exit_code(tmp_path):
    (tmp_path / "cfg.json").write_text(json.dumps({"arch": "nope"}))
    out = _cli("train", "--config", str(tmp_path / "cfg.json"),
               "--out", str(tmp_path / "run"))
    assert out.returncode == 1
    assert "error" in out.stderr


def test_cli_train_divergence_exits_2_without_report(tmp_path):
    ds = synthetic_classification(40, 8, 3, seed=105)
    cv.save_cvds(ds, tmp_path / "train")
    config = {"arch": "analytic", "latent_dim": 8,
              "train_dataset": str(tmp_path / "train"),
              "learning_rate": 1e300, "beta": 0.001, "epochs": 3,
              "batch_size": 16, "seed": 1}
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    out = _cli("train", "--config", str(tmp_path / "cfg.json"),
               "--out", str(tmp_path / "run"))
    assert out.returncode == 2
    assert "Traceback" not in out.stderr
    assert "data error: training diverged" in out.stderr
    assert "Adam step 2" in out.stderr
    # numpy's overflow warnings stay silent: the one line is the error
    assert len(out.stderr.splitlines()) == 1, out.stderr
    assert out.stderr.startswith("data error: training diverged"), out.stderr
    assert not (tmp_path / "run").exists()  # nor run files, nor the directory the run made


def test_cli_missing_dataset_exit_code(tmp_path):
    out = _cli("gen", "--task", "noise", "--eta", "1.0",
               "--in", str(tmp_path / "absent"), "--out", str(tmp_path / "o"))
    assert out.returncode == 2


def test_cli_hilbert_analytic_pair(tmp_path):
    rows = np.cos(2 * np.pi * np.outer(np.arange(3) + 1, np.arange(16)) / 16)
    ds = cv.Dataset(rows, np.zeros_like(rows), np.zeros(3, dtype=np.int64),
                    "classification")
    cv.save_cvds(ds, tmp_path / "in")
    out = _cli("hilbert", "--in", str(tmp_path / "in"),
               "--out", str(tmp_path / "sig"), "--analytic")
    assert out.returncode == 0, out.stderr
    sig = cv.load_cvds(tmp_path / "sig")
    for i, freq in enumerate((1, 2, 3)):
        expected = np.sin(2 * np.pi * freq * np.arange(16) / 16)
        assert np.abs(sig.features_im[i] - expected).max() < 1e-9
    # cotangent method agrees on these zero-DC, zero-Nyquist rows
    out = _cli("hilbert", "--in", str(tmp_path / "in"),
               "--out", str(tmp_path / "cot"), "--method", "cotangent")
    assert out.returncode == 0
    cot = cv.load_cvds(tmp_path / "cot")
    assert np.abs(cot.features_re - sig.features_im).max() < 1e-9


def test_cli_hilbert_cotangent_is_the_per_row_transform(tmp_path):
    rows = np.random.default_rng(24).standard_normal((7, 100))
    ds = cv.Dataset(rows, np.zeros_like(rows), np.zeros(7, dtype=np.int64),
                    "classification")
    cv.save_cvds(ds, tmp_path / "in")
    expected = np.stack([cv.dht_cotangent(row) for row in rows])
    for flag, field in (([], "features_re"), (["--analytic"], "features_im")):
        out = _cli("hilbert", "--in", str(tmp_path / "in"), "--out",
                   str(tmp_path / field), "--method", "cotangent", *flag)
        assert out.returncode == 0, out.stderr
        assert np.array_equal(getattr(cv.load_cvds(tmp_path / field), field), expected)


def test_cli_experiment_channel_small(tmp_path):
    out = _cli("experiment", "--recipe", "channel-id", "--seed", "1",
               "--seeds", "1", "--epochs", "2", "--out", str(tmp_path / "exp"))
    assert out.returncode == 0, out.stderr
    assert "Phase MSE" in out.stdout
    saved = json.loads((tmp_path / "exp" / "channel_id.json").read_text())
    assert set(saved["summary"]) == {"rvnn", "cvnn", "steinmetz", "analytic"}
    # separate process, same seed: emitted files are byte-identical
    rerun = _cli("experiment", "--recipe", "channel-id", "--seed", "1",
                 "--seeds", "1", "--epochs", "2", "--out", str(tmp_path / "exp2"))
    assert rerun.returncode == 0, rerun.stderr
    assert (tmp_path / "exp2" / "channel_id.json").read_bytes() == \
        (tmp_path / "exp" / "channel_id.json").read_bytes()


def test_config_arch_case_insensitive():
    cfg, _ = resolve_config({"arch": "Steinmetz", "latent_dim": 8,
                             "train_dataset": "x", "learning_rate": 0.1})
    assert cfg["arch"] == "steinmetz"


# ---------------------------------------------------------------------------
# image-spectrum recipes, exercised on a stand-in dataset in real CVDS form


def _standin_mnist(tmp_path, m_train=520, m_test=60):
    """Tiny 28x28 synthetic digit-like dataset stored like a real MNIST dump."""
    g = np.random.default_rng(2024)
    protos = g.uniform(0.0, 1.0, (10, 784))
    for split, m in (("train", m_train), ("test", m_test)):
        labels = g.integers(0, 10, size=m)
        rows = np.clip(protos[labels] + 0.1 * g.standard_normal((m, 784)), 0, 1)
        ds = cv.Dataset(rows, np.zeros_like(rows), labels.astype(np.int64),
                        "classification", provenance=f"standin-{split}",
                        num_classes=10)
        cv.save_cvds(ds, tmp_path / "mnist-real" / split)
    return tmp_path


def test_cvmnist_recipe_pipeline_on_standin(tmp_path):
    from cvlearn.recipes import run_cvmnist500
    data_dir = _standin_mnist(tmp_path)
    result = run_cvmnist500(data_dir, base_seed=1, n_seeds=1, epochs=3,
                            out_dir=tmp_path / "out")
    assert set(result["summary"]) == {"rvnn", "cvnn", "steinmetz", "analytic"}
    for arch in result["summary"]:
        # stand-in classes are easily separable: the 784-point spectral
        # pipeline must learn them almost immediately
        assert result["summary"][arch]["accuracy"]["mean"] >= 90.0
        assert result["summary"][arch]["accuracy"]["std"] == 0.0
    assert (tmp_path / "out" / "cvmnist500.json").exists()
    again = run_cvmnist500(data_dir, base_seed=1, n_seeds=1, epochs=3)
    assert again["summary"] == result["summary"]


def test_noise_sweep_recipe_pipeline_on_standin(tmp_path):
    from cvlearn.recipes import run_noise_sweep
    data_dir = _standin_mnist(tmp_path)
    result = run_noise_sweep(data_dir, base_seed=1, n_seeds=1, etas=(0.0, 1.0),
                             m=100, epochs=1)
    for arch in ("rvnn", "cvnn", "steinmetz", "analytic"):
        assert set(result["summary"][arch]) == {"0", "1"}


def test_recipe_missing_mnist_names_path(tmp_path):
    from cvlearn.recipes import run_cvmnist500
    with pytest.raises(DataError, match="mnist-real"):
        run_cvmnist500(tmp_path, base_seed=1, n_seeds=1, epochs=1)


def test_cli_experiment_data_dir_wiring(tmp_path):
    data_dir = _standin_mnist(tmp_path / "data")
    out = _cli("experiment", "--recipe", "cvmnist500", "--seed", "1",
               "--seeds", "1", "--epochs", "1", "--data-dir", str(data_dir),
               "--out", str(tmp_path / "exp"))
    assert out.returncode == 0, out.stderr
    assert "Accuracy" in out.stdout
    missing = _cli("experiment", "--recipe", "noise-sweep", "--seed", "1",
                   "--seeds", "1", "--data-dir", str(tmp_path / "empty"),
                   "--out", str(tmp_path / "exp2"))
    assert missing.returncode == 2
    assert "mnist-real" in missing.stderr


def test_cli_gen_dft_encode_roundtrip(tmp_path):
    g = np.random.default_rng(55)
    rows = g.uniform(0, 1, (6, 16))
    ds = cv.Dataset(rows, np.zeros_like(rows), g.integers(0, 3, 6).astype(np.int64),
                    "classification", num_classes=3)
    cv.save_cvds(ds, tmp_path / "raw")
    out = _cli("gen", "--task", "dft-encode", "--in", str(tmp_path / "raw"),
               "--out", str(tmp_path / "enc"))
    assert out.returncode == 0, out.stderr
    enc = cv.load_cvds(tmp_path / "enc")
    spectra = enc.features_re + 1j * enc.features_im
    back = np.fft.ifft(spectra, axis=1)
    assert np.abs(back.real - rows).max() < 1e-9
    assert np.abs(back.imag).max() < 1e-9


def test_noise_test_flag_corrupts_test_metrics(tmp_path):
    train = synthetic_classification(30, 8, 3, seed=112)
    test = synthetic_classification(30, 8, 3, seed=113)
    cv.save_cvds(train, tmp_path / "train")
    cv.save_cvds(test, tmp_path / "test")
    base = {"arch": "rvnn", "latent_dim": 8,
            "train_dataset": str(tmp_path / "train"),
            "test_dataset": str(tmp_path / "test"),
            "learning_rate": 0.003, "epochs": 2, "seed": 1, "noise_eta": 3.0}
    clean_test = run_training(base, tmp_path / "a")
    noisy_test = run_training({**base, "noise_test": True}, tmp_path / "b")
    assert clean_test["final"]["test"] != noisy_test["final"]["test"]
    # train-side corruption identical in both runs
    assert clean_test["epochs"][0]["train_loss"] == noisy_test["epochs"][0]["train_loss"]


def test_eval_on_memorized_training_set_is_near_perfect(tmp_path):
    ds = synthetic_classification(50, 8, 3, seed=114, spread=0.3)
    cv.save_cvds(ds, tmp_path / "train")
    config = {"arch": "steinmetz", "latent_dim": 8,
              "train_dataset": str(tmp_path / "train"),
              "learning_rate": 0.003, "epochs": 120, "batch_size": 32, "seed": 4}
    run_training(config, tmp_path / "run")
    out = _cli("eval", "--checkpoint", str(tmp_path / "run" / "checkpoint.bin"),
               "--dataset", str(tmp_path / "train"))
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["accuracy"] == 100.0
