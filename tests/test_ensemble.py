"""Stacked ensembles: each member trains exactly as its solo run."""

from dataclasses import replace

import numpy as np
import pytest

import cvlearn as cv
from cvlearn.diagnostics import latent_orthogonality
from cvlearn.errors import ContractError, DataError, DivergenceError
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


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_solo_run_trains_as_a_stack_of_one(monkeypatch, kind):
    # a lone member takes the ensemble's path: [1, b, dN] batches through
    # [1, ...] parameters, and its model drops only the member axis
    ds = cv.gen_channel_dataset(cv.ChannelSpec(), 40, seed=1)
    spec = cv.NetworkSpec(kind, ds.dn, 8, ds.k, ds.task)
    declared = {name: p.shape for name, p in cv.init_params(spec, 4).params.items()}
    seen = []

    def spy(model, x_re, x_im, *args, **kwargs):
        seen.append((x_re.data.shape, x_im.data.shape,
                     {name: p.shape for name, p in model.params.items()}))
        return forward(model, x_re, x_im, *args, **kwargs)

    monkeypatch.setattr(cv.train, "forward", spy)
    model, _ = train_model(spec, ds, _cfg(4, epochs=2))
    stacked = {name: (1,) + shape for name, shape in declared.items()}
    assert seen == [((1, b, ds.dn), (1, b, ds.dn), stacked) for b in (32, 8) * 2]
    assert {name: p.shape for name, p in model.params.items()} == declared


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
    with pytest.raises(DataError, match="member 1"):
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


def test_every_set_is_checked_before_the_first_step(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("training stepped before every set was checked")

    monkeypatch.setattr(cv.train, "adam_step", unreachable)
    spec = cv.NetworkSpec("rvnn", 3, 4, 2, "classification")
    train, cfg = synthetic_classification(20, 3, 2, seed=1), _cfg(1)
    for test in (synthetic_classification(20, 5, 2, seed=2),   # feature width 5
                 synthetic_classification(20, 3, 5, seed=2),   # 5 classes, 2 outputs
                 random_regression(20, 3, 2, seed=2)):         # another task
        with pytest.raises(DataError, match="member 0: test set"):
            train_models(spec, [train], [cfg], [test])
    with pytest.raises(DataError, match="member 0: train set"):
        train_models(spec, [synthetic_classification(20, 3, 5, seed=2)], [cfg])
    regression = cv.NetworkSpec("rvnn", 3, 4, 2, "complex_regression")
    with pytest.raises(DataError, match="member 0: test set"):
        train_models(regression, [random_regression(20, 3, 2, seed=1)], [cfg],
                     [random_regression(20, 3, 1, seed=2)])


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
    sets[1] = replace(sets[1], features_re=sets[1].features_re * 1e200,
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
    sets[1] = replace(sets[1], features_re=sets[1].features_re * 1e10,
                      features_im=sets[1].features_im * 1e10)
    cfgs = [_cfg(s, learning_rate=1e300, epochs=1) for s in (4, 9)]
    assert _divergence(spec, sets[0], cfgs[0]) is None
    solo = _divergence(spec, sets[1], cfgs[1])
    assert (solo.what, solo.step) == ("parameters", 1)
    with pytest.raises(DivergenceError) as info:
        train_models(spec, sets, cfgs)
    assert str(info.value) == str(solo)
    assert info.value.seed == 9


def _overflowing_sets(n, big):
    """``n`` classification sets of 32 rows; those in ``big`` have features
    1e10 times larger, so an Adam step at learning rate 1e300 overflows
    in them at step 1 and in no other member."""
    sets = [synthetic_classification(32, 8, 3, seed=s) for s in range(1, n + 1)]
    return [replace(ds, features_re=ds.features_re * 1e10, features_im=ds.features_im * 1e10)
            if i in big else ds for i, ds in enumerate(sets)]


@pytest.mark.parametrize("n", [1, 3])
def test_adam_divergence_calls_adam_once_per_step(monkeypatch, n):
    # the failing update itself names the member: Adam is not run again
    calls = []
    adam_step = cv.train.adam_step

    def counted(*args):
        calls.append(args[2].t + 1)
        return adam_step(*args)

    monkeypatch.setattr(cv.train, "adam_step", counted)
    spec = cv.NetworkSpec("rvnn", 8, 8, 3, "classification")
    cfgs = [_cfg(s, learning_rate=1e300, epochs=1) for s in SEEDS[:n]]
    with pytest.raises(DivergenceError) as info:
        train_models(spec, _overflowing_sets(n, {n - 1}), cfgs)
    assert (info.value.step, info.value.seed) == (1, SEEDS[n - 1])
    assert calls == [1]


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_adam_divergence_in_two_members_names_the_first(kind):
    spec = cv.NetworkSpec(kind, 8, 8, 3, "classification")
    sets = _overflowing_sets(3, {1, 2})
    cfgs = [_cfg(s, learning_rate=1e300, epochs=1) for s in SEEDS]
    solo = [_divergence(spec, ds, cfg) for ds, cfg in zip(sets, cfgs)]
    assert solo[0] is None and solo[1].step == solo[2].step
    with pytest.raises(DivergenceError) as info:
        train_models(spec, sets, cfgs)
    err = info.value
    assert (err.step, err.what, err.epoch, err.seed) == (
        solo[1].step, "parameters", 1, SEEDS[1])
    assert str(err) == str(solo[1])
