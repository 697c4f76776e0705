import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

import cvlearn as cv
from cvlearn import autodiff as ad
from cvlearn import transforms as tr
from cvlearn.errors import (ContractError, DataError, DivergenceError, ShapeError,
                            ValidationError)
from cvlearn.losses import TrainConfig, adam_init, adam_step
from cvlearn.models import LatentPair
from cvlearn.train import resolve_config

from helpers import adam_reference, total_loss_chain_reference, weighted_sum


def test_cross_entropy_uniform_logits():
    loss = cv.cross_entropy(ad.constant(np.zeros((4, 10))), np.zeros(4, dtype=int))
    assert abs(float(loss.data) - np.log(10)) < 1e-12


def test_cross_entropy_dominant_logit():
    row = np.zeros((1, 5))
    row[0, 2] = 100.0
    loss = cv.cross_entropy(ad.constant(row), np.array([2]))
    assert float(loss.data) < 1e-6


def test_cross_entropy_closed_form_two_class():
    loss = cv.cross_entropy(ad.constant([[0.0, np.log(3.0)]]), np.array([1]))
    assert abs(float(loss.data) - (-np.log(0.75))) < 1e-12


def test_cross_entropy_label_out_of_range():
    with pytest.raises(DataError):
        cv.cross_entropy(ad.constant(np.zeros((2, 3))), np.array([0, 3]))
    with pytest.raises(DataError):
        cv.cross_entropy(ad.constant(np.zeros((2, 3))), np.array([-1, 0]))


def test_cross_entropy_gradient_is_softmax_minus_onehot():
    g = np.random.default_rng(0)
    x = g.standard_normal((3, 4))
    labels = np.array([1, 0, 3])
    tape = cv.Tape()
    tx = tape.param(x, "x")
    grads = tape.backward(cv.cross_entropy(tx, labels))
    e = np.exp(x - x.max(axis=1, keepdims=True))
    softmax = e / e.sum(axis=1, keepdims=True)
    expected = softmax.copy()
    expected[np.arange(3), labels] -= 1.0
    assert np.abs(grads["x"] - expected / 3).max() < 1e-12


def test_cross_entropy_stable_at_huge_logits():
    loss = cv.cross_entropy(ad.constant([[1e6, 1e6 - 5.0]]), np.array([0]))
    assert np.isfinite(float(loss.data))


def test_mse_examples():
    x = ad.constant(np.array([[1.0, 2.0]]))
    assert float(cv.mse(x, np.array([[1.0, 2.0]])).data) == 0.0
    x = ad.constant(np.zeros((3, 2)))
    assert float(cv.mse(x, np.ones((3, 2))).data) == 1.0
    x = ad.constant(np.array([[1.0, 2.0]]))
    assert float(cv.mse(x, np.array([[0.0, 0.0]])).data) == 2.5


def test_mse_shape_mismatch():
    with pytest.raises(ShapeError):
        cv.mse(ad.constant(np.zeros((2, 2))), np.zeros((2, 3)))


def _pair(tape, z_re, z_im):
    return LatentPair(z_re=tape.param(z_re, "z_re"), z_im=tape.param(z_im, "z_im"))


def test_penalty_zero_on_exact_hilbert_pair():
    g = np.random.default_rng(1)
    z_re = g.standard_normal((4, 16))
    z_im = tr.hilbert_rows_array(z_re)
    tape = cv.Tape()
    penalty = cv.hilbert_penalty(_pair(tape, z_re, z_im))
    assert float(penalty.data) <= 1e-18


def test_penalty_positive_otherwise():
    g = np.random.default_rng(2)
    z_re = g.standard_normal((4, 16))
    z_im = tr.hilbert_rows_array(z_re)
    z_im[2, 5] += 0.01
    tape = cv.Tape()
    assert float(cv.hilbert_penalty(_pair(tape, z_re, z_im)).data) > 0


def test_penalty_reduces_to_mean_square_when_real_latent_zero():
    g = np.random.default_rng(3)
    v = g.standard_normal((3, 8))
    tape = cv.Tape()
    penalty = cv.hilbert_penalty(_pair(tape, np.zeros((3, 8)), v))
    assert abs(float(penalty.data) - np.mean(v ** 2)) < 1e-15


def test_penalty_of_repeated_sample_equals_single():
    g = np.random.default_rng(4)
    z_re = g.standard_normal((1, 16))
    z_im = g.standard_normal((1, 16))
    tape = cv.Tape()
    single = float(cv.hilbert_penalty(_pair(tape, z_re, z_im)).data)
    tape = cv.Tape()
    batch = float(cv.hilbert_penalty(
        _pair(tape, np.repeat(z_re, 6, axis=0), np.repeat(z_im, 6, axis=0))).data)
    assert abs(single - batch) < 1e-15


def test_penalty_gradient_closed_form():
    g = np.random.default_rng(5)
    m, ln = 5, 32
    z_re = g.standard_normal((m, ln))
    z_im = g.standard_normal((m, ln))
    tape = cv.Tape()
    pair = _pair(tape, z_re, z_im)
    grads = tape.backward(cv.hilbert_penalty(pair))
    resid = 2.0 * (tr.hilbert_rows_array(z_re) - z_im) / (m * ln)
    expected_re = tr.hilbert_adjoint_rows_array(resid)
    assert np.abs(grads["z_re"] - expected_re).max() <= 1e-9
    assert np.abs(grads["z_im"] + resid).max() <= 1e-9


def test_penalty_odd_latent_rejected():
    tape = cv.Tape()
    with pytest.raises(ContractError):
        cv.hilbert_penalty(_pair(tape, np.zeros((2, 5)), np.zeros((2, 5))))


def test_total_loss_arithmetic():
    task = ad.constant(1.0)
    penalty = ad.constant(2.0)
    assert float(cv.total_loss(task, penalty, 0.001).data) == pytest.approx(1.002)
    assert cv.total_loss(task, penalty, 0.0) is task
    assert cv.total_loss(task, None, 0.5) is task
    with pytest.raises(ContractError):
        cv.total_loss(task, penalty, -0.1)
    with pytest.raises(ShapeError):  # one penalty per task loss, not broadcast
        cv.total_loss(task, ad.constant(np.ones(2)), 0.5)


# a solo run's scalar losses, then one loss per member of stacked ensembles;
# 0.37 and 1e-3 are not powers of two, so scaling rounds
@pytest.mark.parametrize("shape", [(), (2,), (5,)])
@pytest.mark.parametrize("beta", [1e-3, 0.37])
def test_total_loss_bit_identical_to_add_scale_chain(shape, beta):
    g = np.random.default_rng(len(shape) + int(beta * 1000))
    task, penalty, upstream = (np.abs(g.standard_normal(shape)) for _ in range(3))
    tape = cv.Tape()
    tt, tp = tape.param(task, "task"), tape.param(penalty, "penalty")
    out = cv.total_loss(tt, tp, beta)
    assert len(tape.nodes) == 3
    grads = tape.backward(weighted_sum(out, upstream))
    ref_value, ref_grads = total_loss_chain_reference(task, penalty, beta, upstream)
    assert np.array_equal(out.data, ref_value)
    for name in ("task", "penalty"):
        assert np.array_equal(grads[name], ref_grads[name]), name


def test_total_loss_monotone_in_penalty():
    task = ad.constant(0.7)
    values = [float(cv.total_loss(task, ad.constant(p), 0.3).data)
              for p in (0.0, 0.5, 1.0, 2.0)]
    assert values == sorted(values)


def test_adam_zero_gradient_keeps_params():
    params = {"w": np.array([1.0, -2.0, 3.0])}
    grads = {"w": np.zeros(3)}
    cfg = TrainConfig(learning_rate=0.1)
    state = adam_init(params)
    new_params, state = adam_step(params, grads, state, cfg)
    assert np.array_equal(new_params["w"], params["w"])


def test_adam_constant_gradient_step_approaches_alpha():
    alpha = 0.01
    params = {"w": np.zeros(4)}
    grads = {"w": np.full(4, 0.37)}
    cfg = TrainConfig(learning_rate=alpha)
    state = adam_init(params)
    prev = params["w"].copy()
    for _ in range(500):
        params, state = adam_step(params, grads, state, cfg)
        step = params["w"] - prev
        prev = params["w"].copy()
    assert np.abs(np.abs(step) - alpha).max() < 0.01 * alpha


def test_adam_deterministic():
    g = np.random.default_rng(6)
    params = {"w": g.standard_normal((3, 3))}
    gradient = {"w": g.standard_normal((3, 3))}
    cfg = TrainConfig(learning_rate=0.003)

    def run():
        p, s = dict(params), adam_init(params)
        for _ in range(50):
            p, s = adam_step(p, gradient, s, cfg)
        return p["w"]

    assert np.array_equal(run(), run())


def test_adam_vanishing_alpha_keeps_params():
    g = np.random.default_rng(7)
    params = {"w": g.standard_normal(5)}
    original = params["w"].copy()
    cfg = TrainConfig(learning_rate=1e-12)
    state = adam_init(params)
    for i in range(100):
        grads = {"w": np.sin(np.arange(5) + i)}
        params, state = adam_step(params, grads, state, cfg)
    assert np.abs(params["w"] - original).max() < 1e-9


ADAM_SHAPES = {
    "1-D": {"w": (7,)},
    "2-D": {"w": (3, 4), "b": (3,), "u": (2, 5)},
    "stacked": {"w": (2, 3, 4), "b": (2, 3)},
}


def _adam_case(shapes: dict, seed: int):
    """Parameters and a gradient per step, drawn once, for 30 steps."""
    g = np.random.default_rng(seed)
    params = {name: g.standard_normal(shape) for name, shape in shapes.items()}
    grads = [{name: g.standard_normal(shape) * 10.0 ** g.integers(-4, 2)
              for name, shape in shapes.items()} for _ in range(30)]
    return params, grads


@pytest.mark.parametrize("layout", sorted(ADAM_SHAPES))
@pytest.mark.parametrize("knobs", [{}, {"adam_b1": 0.8, "adam_b2": 0.99, "adam_eps": 1e-6}])
def test_adam_in_place_matches_functional_oracle(layout, knobs):
    params, grads = _adam_case(ADAM_SHAPES[layout], seed=len(layout) + len(knobs))
    cfg = TrainConfig(learning_rate=0.01, **knobs)
    state, ref, ref_state = adam_init(params), params, (0.0, 0.0, 0)
    p = params
    for g in grads:
        p, state = adam_step(p, g, state, cfg)
        ref, ref_state = adam_reference(ref, g, ref_state, cfg)
        assert list(p) == list(ref)
        for name in ref:
            assert np.array_equal(p[name], ref[name]), name
    assert state.t == ref_state[2] == 30
    assert np.array_equal(state.m, ref_state[0]) and np.array_equal(state.v, ref_state[1])


@pytest.mark.parametrize("layout,matrices", [("1-D", set()), ("2-D", {"w", "u"}),
                                             ("stacked", {"w"})])
def test_adam_stores_weight_matrices_as_linear_reads_them(layout, matrices):
    # every entry, weight matrix or bias, comes back as a read-only C-order
    # view of the active buffer in its declared shape, so a tape binds each
    # weight matrix that linear multiplies by without a copy
    params, grads = _adam_case(ADAM_SHAPES[layout], seed=4)
    p, state = adam_step(params, grads[0], adam_init(params), TrainConfig(learning_rate=0.01))
    for name, arr in p.items():
        assert arr.shape == params[name].shape
        assert arr.flags.c_contiguous and not arr.flags.writeable, name
        assert np.shares_memory(arr, state.flats[state.active]), name
    for name in matrices:
        assert np.shares_memory(cv.Tape().param(p[name], name).data, p[name]), name


def test_adam_returns_read_only_views_and_leaves_inputs_alone():
    params, grads = _adam_case(ADAM_SHAPES["2-D"], seed=1)
    kept = {name: p.copy() for name, p in params.items()}
    state = adam_init(params)
    p, state = adam_step(params, grads[0], state, TrainConfig(learning_rate=0.01))
    for name, arr in p.items():
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[...] = 0.0
        assert np.array_equal(params[name], kept[name])


def test_adam_returned_dict_keeps_its_values_through_the_next_step():
    params, grads = _adam_case(ADAM_SHAPES["stacked"], seed=2)
    cfg = TrainConfig(learning_rate=0.01)
    p, state = adam_step(params, grads[0], adam_init(params), cfg)
    for g in grads[1:5]:
        kept = {name: arr.copy() for name, arr in p.items()}
        nxt, state = adam_step(p, g, state, cfg)
        for name in p:
            assert np.array_equal(p[name], kept[name]), name
        p = nxt


@pytest.mark.parametrize("foreign", ["fresh", "previous"])
def test_adam_any_params_dict_gives_the_oracle_result(foreign):
    # a dict that is not the last step's is copied in first, the dict of
    # the step before the last included (it views the idle buffer)
    params, grads = _adam_case(ADAM_SHAPES["2-D"], seed=3)
    cfg = TrainConfig(learning_rate=0.01)
    state, ref_state = adam_init(params), (0.0, 0.0, 0)
    history = [params]
    for g in grads[:4]:
        p, state = adam_step(history[-1], g, state, cfg)
        _, ref_state = adam_reference(history[-1], g, ref_state, cfg)
        history.append(p)
    given = ({name: np.full(arr.shape, 0.25) for name, arr in params.items()}
             if foreign == "fresh" else history[-2])
    expected = {name: arr.copy() for name, arr in given.items()}
    ref, _ = adam_reference(expected, grads[4], ref_state, cfg)
    p, state = adam_step(given, grads[4], state, cfg)
    for name in ref:
        assert np.array_equal(p[name], ref[name]), name


def test_adam_refused_update_keeps_the_last_accepted_params():
    params = {"w": np.array([1.5e308, 0.0, -1.0]), "b": np.array([2.0])}
    grads = {"w": np.array([-1.0, 1.0, 0.5]), "b": np.array([3.0])}
    calm, wild = TrainConfig(learning_rate=1e-3), TrainConfig(learning_rate=1e308)
    state = adam_init(params)
    accepted, state = adam_step(params, grads, state, calm)
    ref, ref_state = adam_reference(params, grads, (0.0, 0.0, 0), calm)
    kept = {name: arr.copy() for name, arr in accepted.items()}
    with np.errstate(over="ignore"), pytest.raises(DivergenceError) as info:
        adam_step(accepted, grads, state, wild)
    with np.errstate(over="ignore"):
        refused, _ = adam_reference(ref, grads, ref_state, wild)
    assert info.value.step == 2
    assert not np.isfinite(refused["w"][0]) and np.isfinite(refused["w"][1:]).all()
    for name in params:
        assert np.array_equal(accepted[name], kept[name]), name
        assert np.array_equal(info.value.params[name], refused[name]), name
    # the moments already moved, so this state cannot step again
    with pytest.raises(ContractError, match="refused"):
        adam_step(accepted, grads, state, calm)


def test_adam_checks_keys_and_shapes():
    params = {"w": np.zeros((2, 3)), "b": np.zeros(2)}
    cfg = TrainConfig(learning_rate=0.01)
    state = adam_init(params)
    with pytest.raises(ContractError, match="gradient keys"):
        adam_step(params, {"w": np.zeros((2, 3))}, state, cfg)
    with pytest.raises(ShapeError, match="for b"):
        adam_step(params, {"w": np.zeros((2, 3)), "b": np.zeros(3)}, state, cfg)
    grads = {"w": np.zeros((2, 3)), "b": np.zeros(2)}
    with pytest.raises(ContractError, match="parameter keys"):
        adam_step({"w": params["w"]}, grads, state, cfg)
    with pytest.raises(ShapeError, match="for w"):
        adam_step({"w": np.zeros((3, 2)), "b": np.zeros(2)}, grads, state, cfg)


NON_REAL = {"complex": lambda a: a + 1j,
            "string": lambda a: a.astype(str),
            "object": lambda a: a.astype(object)}


@pytest.mark.parametrize("kind", sorted(NON_REAL))
@pytest.mark.parametrize("what", ["gradient", "parameter"])
def test_adam_refuses_a_non_real_entry_before_its_state_moves(what, kind):
    # the last entry is the bad one, so numpy has copied the others into the
    # buffer before it refuses; at step 2 the parameters' active buffer holds
    # the first step's result, which the next step must still start from
    params, grads = _adam_case(ADAM_SHAPES["2-D"], seed=4)
    cfg = TrainConfig(learning_rate=0.01)
    p, state = adam_step(params, grads[0], adam_init(params), cfg)
    bad = dict(grads[1]) if what == "gradient" else {k: v + 1.0 for k, v in p.items()}
    bad["u"] = NON_REAL[kind](bad["u"])
    kept = {name: arr.copy() for name, arr in p.items()}
    m, v = state.m.copy(), state.v.copy()
    args = (p, bad) if what == "gradient" else (bad, grads[1])
    with pytest.raises(DataError, match=f"^{what} u must hold real numbers"):
        adam_step(*args, state, cfg)
    assert state.t == 1 and not state.refused
    assert np.array_equal(state.m, m) and np.array_equal(state.v, v)
    for name in p:
        assert np.array_equal(p[name], kept[name]), name
    # the next valid step is that of a clean two-step run
    clean, ref_state = adam_reference(params, grads[0], (0.0, 0.0, 0), cfg)
    clean, ref_state = adam_reference(clean, grads[1], ref_state, cfg)
    p, state = adam_step(p, grads[1], state, cfg)
    assert state.t == 2
    for name in clean:
        assert np.array_equal(p[name], clean[name]), name
    assert np.array_equal(state.m, ref_state[0]) and np.array_equal(state.v, ref_state[1])


@pytest.mark.parametrize("dn,k,task", [(5, 1, "complex_regression"),
                                       (784, 10, "classification")])
@pytest.mark.parametrize("members", [1, 2])
def test_adam_step_allocates_nothing_parameter_sized(dn, k, task, members):
    # every buffer lives in the state: a step after the first allocated
    # about 1.5 kB at both shapes (the gradient list and the checks), where
    # the functional step peaked at 6.1x the parameter bytes (461 kB at the
    # channel shapes, 9.3k parameters). 4 KiB leaves room for Python's own
    # small allocations and is far below one buffer of the smallest set.
    spec = cv.NetworkSpec("steinmetz", dn, 64, k, task)
    params = cv.init_params(spec, 1).params
    if members > 1:
        params = {name: np.stack([p] * members) for name, p in params.items()}
    grads = {name: np.full(p.shape, 1e-3) for name, p in params.items()}
    cfg = TrainConfig(learning_rate=1e-3)
    p, state = adam_step(params, grads, adam_init(params), cfg)
    tracemalloc.start()
    try:
        adam_step(p, grads, state, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4096, peak


def test_train_config_validation_messages():
    with pytest.raises(ValidationError, match="learning_rate"):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValidationError, match="beta"):
        TrainConfig(learning_rate=0.1, beta=-1.0)
    with pytest.raises(ValidationError, match="batch_size"):
        TrainConfig(learning_rate=0.1, batch_size=0)
    with pytest.raises(ValidationError, match="adam_b1"):
        TrainConfig(learning_rate=0.1, adam_b1=1.0)
    with pytest.raises(ValidationError, match="unknown"):
        resolve_config({"arch": "rvnn", "latent_dim": 4, "train_dataset": "d",
                        "learning_rate": 0.1, "momentum": 0.9})
    with pytest.raises(ValidationError, match="epochs"):
        TrainConfig(**{"learning_rate": 0.1, "epochs": 2.5})


def test_train_config_roundtrip():
    cfg = TrainConfig(learning_rate=0.01, beta=0.001, epochs=7, batch_size=16,
                      seed=42)
    assert TrainConfig(**asdict(cfg)) == cfg
