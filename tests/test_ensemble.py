"""Stacked ensembles: each member trains exactly as its solo run."""

import numpy as np
import pytest

import cvlearn as cv
from cvlearn.diagnostics import latent_orthogonality
from cvlearn.errors import ContractError, DivergenceError
from cvlearn.models import forward, latent_channels
from cvlearn.recipes import run_channel_id
from cvlearn.rng import Rng
from cvlearn.train import evaluate, train_model, train_models

from helpers import random_regression, synthetic_classification

ALL_KINDS = ["rvnn", "cvnn", "steinmetz", "analytic"]
SEEDS = (4, 9, 7)


def _members(kind, task, m=100):
    """A spec and three members' distinct datasets; M = 100 leaves a
    ragged last batch of 4 at batch size 32."""
    if task == "classification":
        sets = [synthetic_classification(m, 8, 3, seed=s) for s in (1, 2, 3)]
        return cv.NetworkSpec(kind, 8, 8, 3, task), sets
    sets = [random_regression(m, 6, 2, seed=s) for s in (1, 2, 3)]
    return cv.NetworkSpec(kind, 6, 8, 2, task), sets


def _cfg(seed, **kw):
    base = dict(learning_rate=3e-3, beta=1e-3, epochs=3, batch_size=32, seed=seed)
    base.update(kw)
    return cv.TrainConfig(**base)


@pytest.mark.parametrize("task", ["classification", "complex_regression"])
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_members_equal_solo_runs_bit_for_bit(kind, task):
    spec, sets = _members(kind, task)
    tests = list(reversed(sets))  # per-epoch test metrics on a member's own set
    cfgs = [_cfg(s) for s in SEEDS]
    trained = train_models(spec, sets, cfgs, tests)
    assert len(trained) == len(SEEDS)
    for (model, records), ds, test_ds, cfg in zip(trained, sets, tests, cfgs):
        solo, solo_records = train_model(spec, ds, cfg, test_ds)
        assert records == solo_records
        assert list(model.params) == list(solo.params)
        for name, p in solo.params.items():
            assert model.params[name].shape == p.shape
            assert np.array_equal(model.params[name], p), name


def test_run_channel_id_equals_per_seed_solo_runs():
    result = run_channel_id(base_seed=3, n_seeds=3, epochs=2, m=96, test_m=64)
    chan = cv.ChannelSpec()
    for i, seed in enumerate((3, 4, 5)):
        data_rng = Rng(seed)
        train_ds = cv.gen_channel_dataset(chan, 96, data_rng.substream("channel/train").seed)
        test_ds = cv.gen_channel_dataset(chan, 64, data_rng.substream("channel/test").seed)
        for kind in ALL_KINDS:
            spec = cv.NetworkSpec(kind, train_ds.dn, 64, train_ds.k, train_ds.task)
            cfg = cv.TrainConfig(learning_rate=1e-4,
                                 beta=1e-4 if kind == "analytic" else 0.0,
                                 epochs=2, batch_size=32, seed=seed)
            model, _ = train_model(spec, train_ds, cfg)
            want = dict(evaluate(model, test_ds))
            want["params"] = cv.param_count(model)
            want["orthogonality"] = latent_orthogonality(
                *latent_channels(forward(model, test_ds.features_re, test_ds.features_im)))
            assert result["per_seed"][kind][i] == want, (kind, seed)


def test_members_must_share_spec_m_and_config():
    spec, sets = _members("rvnn", "classification")
    cfgs = [_cfg(s) for s in SEEDS]
    other_width = synthetic_classification(100, 6, 3, seed=4)
    with pytest.raises(ContractError, match="member 1"):
        train_models(spec, [sets[0], other_width, sets[2]], cfgs)
    with pytest.raises(ContractError, match="M=96"):
        train_models(spec, [sets[0], sets[1], sets[2].take(96)], cfgs)
    changed = {"learning_rate": 1e-2, "beta": 0.5, "epochs": 2, "batch_size": 16,
               "adam_b1": 0.8, "adam_b2": 0.99, "adam_eps": 1e-6}
    for field, value in changed.items():
        with pytest.raises(ContractError, match=field):
            train_models(spec, sets, [cfgs[0], _cfg(SEEDS[1], **{field: value}), cfgs[2]])
    with pytest.raises(ContractError):
        train_models(spec, sets, cfgs[:2])
    with pytest.raises(ContractError):
        train_models(spec, sets, cfgs, sets[:2])


def _divergence(spec, ds, cfg):
    try:
        train_model(spec, ds, cfg)
    except DivergenceError as e:
        return e
    return None


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_loss_divergence_names_the_members_seed(kind):
    # member 1's features are 1e200 times larger: its squared error overflows
    spec, sets = _members(kind, "complex_regression", m=40)
    sets[1] = sets[1].replace(features_re=sets[1].features_re * 1e200,
                              features_im=sets[1].features_im * 1e200)
    cfgs = [_cfg(s, epochs=2) for s in SEEDS]
    assert [_divergence(spec, ds, cfg) is None for ds, cfg in zip(sets, cfgs)] == [
        True, False, True]
    solo = _divergence(spec, sets[1], cfgs[1])
    with pytest.raises(DivergenceError) as info:
        train_models(spec, sets, cfgs)
    err = info.value
    assert (err.step, err.what, err.epoch, err.seed) == (
        solo.step, solo.what, solo.epoch, SEEDS[1])
    assert str(err) == str(solo)
    assert str(err).endswith(f"of the run with seed {SEEDS[1]}")


def test_adam_divergence_names_the_members_seed():
    # a finite loss whose Adam update overflows in member 1 only: its large
    # features give gradients above 1.8, and 1e300 times that overflows
    spec = cv.NetworkSpec("rvnn", 8, 8, 3, "classification")
    sets = [synthetic_classification(32, 8, 3, seed=s) for s in (1, 2)]
    sets[1] = sets[1].replace(features_re=sets[1].features_re * 1e10,
                              features_im=sets[1].features_im * 1e10)
    cfgs = [_cfg(s, learning_rate=1e300, epochs=1) for s in (4, 9)]
    assert _divergence(spec, sets[0], cfgs[0]) is None
    solo = _divergence(spec, sets[1], cfgs[1])
    assert (solo.what, solo.step) == ("parameters", 1)
    with pytest.raises(DivergenceError) as info:
        train_models(spec, sets, cfgs)
    assert str(info.value) == str(solo)
    assert info.value.seed == 9
