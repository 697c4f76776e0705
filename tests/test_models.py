import json
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

import cvlearn as cv
import cvlearn.cli  # noqa: F401  (binds cv.cli)
from cvlearn import autodiff as ad
from cvlearn import models
from cvlearn.errors import ContractError, DataError, ShapeError

from helpers import (block_relative_error, build_arch_loss, central_diff,
                     complex_affine_chain_reference, in_out, magnitude_chain_reference,
                     random_regression, synthetic_classification, weighted_sum)

ALL_KINDS = ["rvnn", "cvnn", "steinmetz", "analytic"]


def test_spec_rejects_odd_latent():
    with pytest.raises(ContractError):
        cv.NetworkSpec(kind="rvnn", input_dim=4, latent_dim=5, output_dim=2,
                       task="classification")


def test_spec_rejects_unknown_kind_and_task():
    with pytest.raises(ContractError):
        cv.NetworkSpec(kind="mlp", input_dim=4, latent_dim=4, output_dim=2,
                       task="classification")
    with pytest.raises(ContractError):
        cv.NetworkSpec(kind="rvnn", input_dim=4, latent_dim=4, output_dim=2,
                       task="regression")


def test_init_is_deterministic_per_seed():
    spec = cv.NetworkSpec(kind="steinmetz", input_dim=6, latent_dim=4,
                          output_dim=2, task="classification")
    a, b = cv.init_params(spec, 3), cv.init_params(spec, 3)
    for name in a.params:
        assert np.array_equal(a.params[name], b.params[name])
    c = cv.init_params(spec, 4)
    assert any(not np.array_equal(a.params[n], c.params[n]) for n in a.params)


def test_analytic_and_steinmetz_share_initialization():
    # same parameter names and seed: the penalty run starts from exactly
    # the weights of the plain run, so same-seed comparisons are paired
    kwargs = dict(input_dim=6, latent_dim=4, output_dim=2, task="classification")
    a = cv.init_params(cv.NetworkSpec(kind="steinmetz", **kwargs), 7)
    b = cv.init_params(cv.NetworkSpec(kind="analytic", **kwargs), 7)
    for name in a.params:
        assert np.array_equal(a.params[name], b.params[name])


def test_init_biases_zero_and_weight_variance():
    spec = cv.NetworkSpec(kind="steinmetz", input_dim=784, latent_dim=64,
                          output_dim=10, task="classification")
    model = cv.init_params(spec, 0)
    assert np.all(model.params["realfc1.b"] == 0)
    w = model.params["realfc1.w"]  # fan_in 784 -> uniform bound 1/28
    expected_var = 1.0 / (3.0 * 784)
    assert abs(w.var() / expected_var - 1.0) < 0.10
    assert np.abs(w).max() <= 1.0 / np.sqrt(784)


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("task", ["classification", "complex_regression"])
def test_zero_parameters_give_zero_outputs(kind, task):
    spec = cv.NetworkSpec(kind=kind, input_dim=5, latent_dim=4, output_dim=3,
                          task=task)
    model = cv.init_params(spec, 0)
    model.params = {n: np.zeros_like(p) for n, p in model.params.items()}
    x = np.random.default_rng(0).standard_normal((4, 5))
    result = cv.forward(model, x, -x)
    if kind == "cvnn" and task == "classification":
        # magnitude head of an all-zero complex output is sqrt(eps)
        assert np.allclose(result.pred.data, np.sqrt(models.MAGNITUDE_EPS))
    else:
        assert np.all(result.pred.data == 0)
    if result.latent_pair is not None:
        assert np.all(result.latent_pair.z_re.data == 0)
        assert np.all(result.latent_pair.z_im.data == 0)


def test_steinmetz_hand_computed_fixture():
    spec = cv.NetworkSpec(kind="steinmetz", input_dim=2, latent_dim=2,
                          output_dim=1, task="classification")
    model = cv.init_params(spec, 0)
    eye = np.eye(2)
    model.params = {
        "realfc1.w": eye.copy(), "realfc1.b": np.zeros(2),
        "realfc2.w": eye.copy(), "realfc2.b": np.zeros(2),
        "imagfc1.w": eye.copy(), "imagfc1.b": np.zeros(2),
        "imagfc2.w": eye.copy(), "imagfc2.b": np.zeros(2),
        "regressor.w": np.array([[1.0], [2.0], [3.0], [4.0]]), "regressor.b": np.zeros(1),
    }
    # real chain: relu([1,-1]) = [1,0]; relu([1,0]) = [1,0]; centered -> [.5,-.5]
    # imag chain: zeros throughout
    result = cv.forward(model, [[1.0, -1.0]], [[0.0, 0.0]])
    pred, latent = result.pred, result.latent_pair
    assert np.allclose(latent.z_re.data, [[0.5, -0.5]], atol=0)
    assert np.allclose(latent.z_im.data, [[0.0, 0.0]], atol=0)
    assert np.allclose(pred.data, [[0.5 * 1 + (-0.5) * 2]], atol=0)


def test_steinmetz_shape_contract():
    spec = cv.NetworkSpec(kind="steinmetz", input_dim=784, latent_dim=64,
                          output_dim=10, task="classification")
    model = cv.init_params(spec, 1)
    g = np.random.default_rng(1)
    result = cv.forward(model, g.standard_normal((5, 784)), g.standard_normal((5, 784)))
    pred, latent = result.pred, result.latent_pair
    assert pred.shape == (5, 10)
    assert latent.z_re.shape == (5, 64) and latent.z_im.shape == (5, 64)


def test_regression_head_width_is_2k():
    spec = cv.NetworkSpec(kind="rvnn", input_dim=5, latent_dim=4, output_dim=3,
                          task="complex_regression")
    model = cv.init_params(spec, 1)
    g = np.random.default_rng(2)
    result = cv.forward(model, g.standard_normal((7, 5)), g.standard_normal((7, 5)))
    pred, latent = result.pred, result.latent
    assert pred.shape == (7, 6)
    assert latent.shape == (7, 8)


def test_rvnn_parameter_count_closed_form():
    dn, ln, k = 5, 64, 1
    spec = cv.NetworkSpec(kind="rvnn", input_dim=dn, latent_dim=ln,
                          output_dim=k, task="complex_regression")
    model = cv.init_params(spec, 0)
    expected = (2 * dn * ln + ln) + (ln * 2 * ln + 2 * ln) + (2 * ln * 2 * k + 2 * k)
    assert cv.param_count(model) == expected


def test_steinmetz_latent_rows_zero_mean():
    spec = cv.NetworkSpec(kind="steinmetz", input_dim=8, latent_dim=6,
                          output_dim=2, task="classification")
    model = cv.init_params(spec, 5)
    g = np.random.default_rng(5)
    latent = cv.forward(model, g.standard_normal((9, 8)),
                        g.standard_normal((9, 8))).latent_pair
    assert np.abs(latent.z_re.data.sum(axis=1)).max() < 1e-10
    assert np.abs(latent.z_im.data.sum(axis=1)).max() < 1e-10


def test_steinmetz_batch_permutation_equivariance():
    spec = cv.NetworkSpec(kind="steinmetz", input_dim=6, latent_dim=4,
                          output_dim=3, task="classification")
    model = cv.init_params(spec, 6)
    g = np.random.default_rng(6)
    xr, xi = g.standard_normal((8, 6)), g.standard_normal((8, 6))
    perm = g.permutation(8)
    pred = cv.forward(model, xr, xi).pred
    pred_p = cv.forward(model, xr[perm], xi[perm]).pred
    assert np.array_equal(pred.data[perm], pred_p.data)


def test_complex_layer_single_neuron():
    # one complex neuron with weight i and input 1: output i, crelu (0, 1)
    w, b, x = np.array([[1j]]), np.array([0j]), np.array([[1 + 0j]])
    tape = cv.Tape()
    p = {"fc1.wr": tape.param(w.real, "wr"), "fc1.wi": tape.param(w.imag, "wi"),
         "fc1.br": tape.param(b.real, "br"), "fc1.bi": tape.param(b.imag, "bi")}
    head = models._complex_affine([ad.constant(x.real), ad.constant(x.imag)], p, "fc1")
    y = x @ w + b  # numpy's complex arithmetic
    assert np.array_equal(head.data, np.concatenate([y.real, y.imag], axis=1))
    assert head.data.tolist() == [[0.0, 1.0]]
    rr, ri = models._complex_affine([ad.constant(x.real), ad.constant(x.imag)], p,
                                    "fc1", relu=True)
    assert float(rr.data[0, 0]) == 0.0 and float(ri.data[0, 0]) == 1.0
    mag = models._magnitude(ad.constant(np.concatenate([rr.data, ri.data], axis=1)))
    z = np.maximum(y.real, 0) + 1j * np.maximum(y.imag, 0)
    assert np.array_equal(mag.data, np.sqrt(np.abs(z) ** 2 + models.MAGNITUDE_EPS))
    assert abs(float(mag.data[0, 0]) - 1.0) < 1e-9


# a bias, weight or row count that numpy would broadcast or fail on
@pytest.mark.parametrize("name,shape", [("fc1.br", (1,)), ("fc2.wi", (3, 4)),
                                        ("fc2.wi", (4, 1)), ("fc3.bi", (1,))])
def test_cvnn_rejects_mismatched_parameter_shapes(name, shape):
    spec = cv.NetworkSpec(kind="cvnn", input_dim=3, latent_dim=4, output_dim=2,
                          task="complex_regression")
    model = cv.init_params(spec, 1)
    model.params[name] = np.zeros(shape)
    with pytest.raises(ShapeError):
        cv.forward(model, np.ones((2, 3)), np.ones((2, 3)))


# (m, in, out) of cvnn's layers at the recipe shapes (channel input, latent,
# 784-wide spectral input, 10-class head), then stacked [E, m, in] ensembles
@pytest.mark.parametrize("shape", [(32, 5, 64), (32, 64, 64), (32, 784, 64), (32, 64, 10),
                                   (2, 32, 784, 64), (5, 32, 64, 64)])
def test_complex_affine_bit_identical_to_linear_sub_add_chain(shape):
    *lead, m, d_in, d_out = shape
    g = np.random.default_rng(d_in * 1000 + d_out + len(lead))
    x_shape, w_shape, b_shape = (*lead, m, d_in), (*lead, d_out, d_in), (*lead, d_out)
    arrays = {"xr": x_shape, "xi": x_shape, "wr": w_shape, "wi": w_shape,
              "br": b_shape, "bi": b_shape}
    arrays = {k: in_out(v) if k[0] == "w" else v
              for k, v in ((k, g.standard_normal(s)) for k, s in arrays.items())}
    up_r, up_i = g.standard_normal((*lead, m, d_out)), g.standard_normal((*lead, m, d_out))

    def layer_of(t):
        return {f"fc.{k}": t[k] for k in ("wr", "wi", "br", "bi")}

    # the head: one node, [yr | yi], the same off the tape and on it
    tape = cv.Tape()
    t = {k: tape.param(v, k) for k, v in arrays.items()}
    head = models._complex_affine([t["xr"], t["xi"]], layer_of(t), "fc")
    assert [n.op for n in tape.nodes[len(t):]] == ["complex_affine"]
    assert head.shape == (*lead, m, 2 * d_out)
    grads = tape.backward(weighted_sum(head, np.concatenate([up_r, up_i], axis=-1)))
    c = {k: ad.constant(v) for k, v in arrays.items()}
    off = models._complex_affine([c["xr"], c["xi"]], layer_of(c), "fc")
    assert off.parents == () and np.array_equal(off.data, head.data)
    # a hidden layer: one node per part, each with its ReLU
    tape_h = cv.Tape()
    t = {k: tape_h.param(v, k) for k, v in arrays.items()}
    yr, yi = models._complex_affine([t["xr"], t["xi"]], layer_of(t), "fc", relu=True)
    assert [n.op for n in tape_h.nodes[len(t):]] == ["complex_affine"] * 2
    hidden = tape_h.backward(weighted_sum((yr, yi), (up_r, up_i)))
    # each stacked member against the 2-D chain on its own slices
    for e in np.ndindex(*lead):
        operands = [arrays[k][e] for k in ("xr", "xi", "wr", "wi", "br", "bi")]
        (ref_r, ref_i), ref_grads = complex_affine_chain_reference(*operands, up_r[e], up_i[e])
        assert np.array_equal(head.data[e], np.concatenate([ref_r, ref_i], axis=-1))
        assert np.array_equal(yr.data[e], np.maximum(ref_r, 0.0))
        assert np.array_equal(yi.data[e], np.maximum(ref_i, 0.0))
        _, masked = complex_affine_chain_reference(*operands, up_r[e] * (ref_r > 0),
                                                   up_i[e] * (ref_i > 0))
        for name in arrays:
            assert np.array_equal(grads[name][e], ref_grads[name]), name
            assert np.array_equal(hidden[name][e], masked[name]), name


def _cvnn_chain_reference(p: dict, xr, xi, task: str) -> tuple:
    """(pred, z_re, z_im) of one cvnn on 2-D operands, each complex layer by
    the chain its parts replace and each ReLU as ``np.maximum``."""
    for layer in ("fc1", "fc2", "fc3"):
        weights = (p[f"{layer}.{n}"] for n in ("wr", "wi", "br", "bi"))
        (xr, xi), _ = complex_affine_chain_reference(xr, xi, *weights, 0.0, 0.0)
        if layer != "fc3":
            xr, xi = np.maximum(xr, 0.0), np.maximum(xi, 0.0)
            latents = xr, xi
    if task == "classification":
        return (magnitude_chain_reference(xr, xi, 0.0)[0], *latents)
    return (np.concatenate([xr, xi], axis=-1), *latents)


# off the tape each complex layer frees its inputs after their last product;
# pred and both latents stay bit for bit the taped pass's and the chain's
@pytest.mark.parametrize("members", [1, 2])
@pytest.mark.parametrize("task", ["complex_regression", "classification"])
def test_cvnn_forward_off_the_tape_bit_equal_to_taped(task, members):
    m = 40
    if task == "classification":
        x = np.random.default_rng(7).standard_normal((members * m, 784))
        ds = cv.dft_encode(cv.Dataset(x, np.zeros_like(x), np.arange(len(x)) % 10, task))
    else:
        ds = cv.gen_channel_dataset(cv.ChannelSpec(), members * m, seed=7)
    spec = cv.NetworkSpec("cvnn", ds.dn, 64, ds.k, task)
    rng = np.random.default_rng(8)  # nonzero biases, so their place in each sum shows
    solo = [{n: rng.uniform(-0.5, 0.5, a.shape) if a.ndim == 1 else a
             for n, a in cv.init_params(spec, seed).params.items()}
            for seed in range(1, members + 1)]
    xr, xi = (f.reshape(members, m, -1) for f in (ds.features_re, ds.features_im))
    if members == 1:
        model, x = cv.Model(spec, solo[0]), (xr[0], xi[0])
    else:
        model = cv.Model(spec, {n: np.stack([p[n] for p in solo]) for n in solo[0]})
        x = xr, xi
    off, on = cv.forward(model, *x), cv.forward(model, *x, tape=cv.Tape())
    assert off.pred.parents == () and on.pred.parents != ()
    for e, p in enumerate(solo):
        want = _cvnn_chain_reference(p, xr[e], xi[e], task)
        at = (e,) if members > 1 else ()
        for result in (off, on):
            got = (result.pred, result.latent_pair.z_re, result.latent_pair.z_im)
            for t, w in zip(got, want):
                assert np.array_equal(t.data[at], w)


@pytest.mark.parametrize("shape", [(32, 10), (32, 64), (2, 32, 10), (5, 32, 10)])
def test_magnitude_bit_identical_to_mul_add_sqrt_chain(shape):
    g = np.random.default_rng(sum(shape))
    yr, yi, upstream = (g.standard_normal(shape) for _ in range(3))
    yr[..., 0, 0] = yi[..., 0, 0] = 0.0  # at zero, where eps keeps the gradient finite
    # the magnitude node reads the two halves of the pair [yr | yi] in place
    tape = cv.Tape()
    mag = models._magnitude(tape.param(np.concatenate([yr, yi], axis=-1), "y"))
    assert len(tape.nodes) == 2
    grads = tape.backward(weighted_sum(mag, upstream))
    ref_value, ref_grads = magnitude_chain_reference(yr, yi, upstream)
    assert np.array_equal(mag.data, ref_value)
    n = shape[-1]
    assert np.array_equal(grads["y"][..., :n], ref_grads["yr"])
    assert np.array_equal(grads["y"][..., n:], ref_grads["yi"])


def test_cvnn_degenerate_reduces_to_real_mlp_bitwise():
    spec = cv.NetworkSpec(kind="cvnn", input_dim=5, latent_dim=4, output_dim=3,
                          task="complex_regression")
    model = cv.init_params(spec, 7)
    for layer in ("fc1", "fc2", "fc3"):
        model.params[f"{layer}.wi"] = np.zeros_like(model.params[f"{layer}.wi"])
        model.params[f"{layer}.bi"] = np.zeros_like(model.params[f"{layer}.bi"])
    g = np.random.default_rng(7)
    xr = g.standard_normal((4, 5))
    pred = cv.forward(model, xr, np.zeros_like(xr)).pred
    # same op ordering on plain arrays: matmul, subtract zero, add bias
    h = xr
    for layer in ("fc1", "fc2"):
        h = (h @ model.params[f"{layer}.wr"]
             - np.zeros((4, 1)) @ np.zeros((1, model.params[f"{layer}.wr"].shape[1]))
             + model.params[f"{layer}.br"])
        h = np.maximum(h, 0.0)
    ref = (h @ model.params["fc3.wr"]) - 0.0 + model.params["fc3.br"]
    assert np.array_equal(pred.data[:, :3], ref)
    assert np.all(pred.data[:, 3:] == 0)


# tape nodes per training step (parameters and ops)
NODES_PER_STEP = {
    "complex_regression": {"rvnn": 10, "cvnn": 18, "steinmetz": 18, "analytic": 21},
    "classification": {"rvnn": 10, "cvnn": 19, "steinmetz": 18, "analytic": 21},
}


@pytest.mark.parametrize("task", sorted(NODES_PER_STEP))
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_nodes_per_training_step(monkeypatch, task, kind):
    ds = (synthetic_classification(40, 6, 3, seed=2) if task == "classification"
          else random_regression(40, 5, 1, seed=2))
    spec = cv.NetworkSpec(kind=kind, input_dim=ds.dn, latent_dim=8, output_dim=ds.k,
                          task=task)
    counts = []
    backward = ad.Tape.backward

    def counting(tape, loss):
        counts.append(len(tape.nodes))
        return backward(tape, loss)

    monkeypatch.setattr(ad.Tape, "backward", counting)
    cfg = cv.TrainConfig(learning_rate=1e-3, beta=1e-3 if kind == "analytic" else 0.0,
                         epochs=2, batch_size=16, seed=1)
    cv.train_model(spec, ds, cfg)
    assert counts == [NODES_PER_STEP[task][kind]] * 6  # 3 batches x 2 epochs


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_gradients_match_finite_differences(kind):
    checked = 0
    for seed in range(12):
        built = build_arch_loss(kind, "classification", seed,
                                beta=0.001 if kind == "analytic" else 0.0)
        if built is None:
            continue
        params, loss_fn, tape, loss = built
        grads = tape.backward(loss)
        fd = central_diff(loss_fn, params)
        assert block_relative_error(fd, grads) < 1e-5
        checked += 1
        if checked >= 3:
            break
    assert checked >= 1


@pytest.mark.parametrize("task", ["classification", "complex_regression"])
def test_cvnn_joined_head_gradients_match_finite_differences(task):
    # the head writes [yr | yi] as one node: the regression loss reads it
    # as it is, the classification loss through the magnitude node
    checked = 0
    for seed in range(12):
        built = build_arch_loss("cvnn", task, seed)
        if built is None:
            continue
        params, loss_fn, tape, loss = built
        head = [n for n in tape.nodes if n.op == "complex_affine" and len(n.parents) == 10]
        assert len(head) == 1 and head[0].shape == (2, 6)  # batch 2, k = 3
        fd = central_diff(loss_fn, params)
        assert block_relative_error(fd, tape.backward(loss)) < 1e-5
        checked += 1
        if checked >= 3:
            break
    assert checked >= 1


def test_forward_input_validation():
    spec = cv.NetworkSpec(kind="steinmetz", input_dim=6, latent_dim=4,
                          output_dim=2, task="classification")
    model = cv.init_params(spec, 0)
    with pytest.raises(ShapeError):
        cv.forward(model, np.ones((2, 5)), np.ones((2, 5)))
    with pytest.raises(ShapeError):
        cv.forward(model, np.ones((2, 6)), np.ones((3, 6)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("channel", [0, 1])
def test_forward_rejects_non_finite_raw_inputs(bad, channel):
    spec = cv.NetworkSpec(kind="steinmetz", input_dim=6, latent_dim=4,
                          output_dim=2, task="classification")
    model = cv.init_params(spec, 0)
    inputs = [np.ones((2, 6)), np.ones((2, 6))]
    inputs[channel][1, 3] = bad
    with pytest.raises(DataError):
        cv.forward(model, *inputs)
    with pytest.raises(DataError):
        ad.constant([bad])


def test_checkpoint_roundtrip_bitwise(tmp_path):
    spec = cv.NetworkSpec(kind="analytic", input_dim=6, latent_dim=4,
                          output_dim=2, task="complex_regression")
    model = cv.init_params(spec, 9)
    path = tmp_path / "ckpt.bin"
    cv.save_checkpoint(model, path, seed=9, epoch=17)
    loaded, header = cv.load_checkpoint(path)
    assert loaded.spec == spec
    assert header["seed"] == 9 and header["epoch"] == 17
    for name in model.params:
        assert np.array_equal(loaded.params[name], model.params[name])


def test_save_checkpoint_writes_without_copying_its_parameters(tmp_path):
    # a 784-wide cvnn: 110k parameters, 0.88 MB. Each parameter is written
    # from its own buffer; measured 13 kB of bookkeeping, where one blob
    # joining them before writing it took 0.89 MB. 0.1 MB is under an
    # eighth of the parameters.
    model = cv.init_params(cv.NetworkSpec("cvnn", 784, 64, 10, "classification"), 1)
    cv.save_checkpoint(model, tmp_path / "warm.bin", seed=1, epoch=0)
    tracemalloc.start()
    try:
        cv.save_checkpoint(model, tmp_path / "ckpt.bin", seed=1, epoch=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1e5, peak
    loaded = cv.load_checkpoint(tmp_path / "ckpt.bin")[0]
    for name, p in model.params.items():
        assert np.array_equal(loaded.params[name], p), name


def test_loaded_parameters_are_read_only_views_of_one_buffer(tmp_path):
    spec = cv.NetworkSpec(kind="cvnn", input_dim=5, latent_dim=4, output_dim=3,
                          task="classification")
    cv.save_checkpoint(cv.init_params(spec, 2), tmp_path / "ckpt.bin", seed=2, epoch=0)
    params = list(cv.load_checkpoint(tmp_path / "ckpt.bin")[0].params.values())
    first, last = params[0], params[-1]
    # disjoint slices overlap in no byte, so the check is on their common base
    assert first.base is last.base and np.shares_memory(first.base, last)
    assert first.base.size == sum(p.size for p in params)
    assert not any(p.flags.writeable for p in params)


RVNN = cv.NetworkSpec(kind="rvnn", input_dim=3, latent_dim=4, output_dim=2,
                      task="classification")


def _stacked(params: dict) -> dict:
    return {name: np.stack([p, p]) for name, p in params.items()}


OFF_LAYOUT = {
    "wrong-shape": lambda p: {**p, "fc1.b": np.zeros(7)},
    "missing": lambda p: {name: a for name, a in p.items() if name != "fc3.b"},
    "extra": lambda p: {**p, "fc4.w": np.zeros((2, 2))},
    "out-of-order": lambda p: dict(reversed(p.items())),
    "mixed-leading-axes": lambda p: {**_stacked(p), "fc2.b": p["fc2.b"]},
    "two-leading-axes": lambda p: {name: a[None, None] for name, a in p.items()},
}


@pytest.mark.parametrize("case", sorted(OFF_LAYOUT))
def test_model_refuses_parameters_off_the_spec_layout(case):
    params = OFF_LAYOUT[case](cv.init_params(RVNN, 1).params)
    with pytest.raises(DataError, match="do not match the spec's layout"):
        cv.Model(RVNN, params)


def test_model_takes_a_stacked_ensemble_that_save_checkpoint_refuses(tmp_path):
    stacked = cv.Model(RVNN, _stacked(cv.init_params(RVNN, 1).params))
    with pytest.raises(ContractError, match="stacked"):
        cv.save_checkpoint(stacked, tmp_path / "ckpt.bin", seed=1, epoch=0)
    assert not (tmp_path / "ckpt.bin").exists()


def test_checkpoint_truncation_rejected(tmp_path):
    spec = cv.NetworkSpec(kind="rvnn", input_dim=4, latent_dim=4,
                          output_dim=2, task="classification")
    model = cv.init_params(spec, 1)
    path = tmp_path / "ckpt.bin"
    cv.save_checkpoint(model, path, seed=1, epoch=0)
    blob = path.read_bytes()
    path.write_bytes(blob[:-16])
    with pytest.raises(DataError):
        cv.load_checkpoint(path)


def test_checkpoint_garbage_header_rejected(tmp_path):
    path = tmp_path / "ckpt.bin"
    path.write_bytes(b"not json\n" + b"\x00" * 64)
    with pytest.raises(DataError):
        cv.load_checkpoint(path)


def _per_blob_checkpoint(model, seed, epoch) -> bytes:
    """The checkpoint bytes as written one parameter blob at a time."""
    header = {"format": "cvlearn-checkpoint-v2", "spec": asdict(model.spec),
              "seed": seed, "epoch": epoch,
              "params": [{"name": n, "shape": list(p.shape)}
                         for n, p in model.params.items()],
              "dtype": "f64", "endianness": "little"}
    out = json.dumps(header).encode("utf-8") + b"\n"
    for p in model.params.values():
        out += np.ascontiguousarray(p, dtype="<f8").tobytes()
    return out


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_checkpoint_bytes_match_per_blob_writer(kind, tmp_path):
    spec = cv.NetworkSpec(kind=kind, input_dim=5, latent_dim=4, output_dim=3,
                          task="classification")
    ds = synthetic_classification(20, 5, 3, seed=3)
    model, _ = cv.train_model(spec, ds, cv.TrainConfig(learning_rate=0.01, epochs=1,
                                                       batch_size=8, seed=2))
    cv.save_checkpoint(model, tmp_path / "ckpt.bin", seed=2, epoch=1)
    assert (tmp_path / "ckpt.bin").read_bytes() == _per_blob_checkpoint(model, 2, 1)


def _header_cases():
    """(name, edit returning a broken copy of a valid header, text the
    error must contain: the field it names)."""
    def drop(*path):
        def edit(h):
            obj = h
            for key in path[:-1]:
                obj = obj[key]
            del obj[path[-1]]
            return h
        return edit

    def put(value, *path):
        def edit(h):
            obj = h
            for key in path[:-1]:
                obj = obj[key]
            obj[path[-1]] = value
            return h
        return edit

    return [
        ("missing-spec", drop("spec"), "spec"),
        ("missing-params", drop("params"), "params"),
        ("missing-name", drop("params", 0, "name"), "params[0].name"),
        ("missing-shape", drop("params", 1, "shape"), "params[1].shape"),
        ("missing-kind", drop("spec", "kind"), "spec.kind"),
        ("spec-not-object", put("rvnn", "spec"), "spec"),
        ("params-not-array", put({"fc1.w": [4, 10]}, "params"), "params"),
        ("name-not-string", put(3, "params", 0, "name"), "params[0].name"),
        ("shape-not-array", put("4x10", "params", 0, "shape"), "params[0].shape"),
        ("shape-bool-entry", put([True, 10], "params", 0, "shape"), "params[0].shape"),
        ("dim-string", put("5", "spec", "input_dim"), "spec.input_dim"),
        ("dim-float", put(5.0, "spec", "input_dim"), "spec.input_dim"),
        ("dim-bool", put(True, "spec", "latent_dim"), "spec.latent_dim"),
        ("task-not-string", put(1, "spec", "task"), "spec.task"),
        ("unknown-kind", put("transformer", "spec", "kind"), "kind"),
        ("unknown-task", put("ranking", "spec", "task"), "task"),
        ("header-not-object", lambda h: ["not", "an", "object"], "JSON object"),
    ]


@pytest.mark.parametrize("edit,field", [c[1:] for c in _header_cases()],
                         ids=[c[0] for c in _header_cases()])
def test_cli_eval_malformed_checkpoint_header_is_data_error(edit, field, tmp_path, capsys):
    spec = cv.NetworkSpec(kind="rvnn", input_dim=5, latent_dim=4, output_dim=3,
                          task="classification")
    cv.save_cvds(synthetic_classification(10, 5, 3, seed=1), tmp_path / "d")
    cv.save_checkpoint(cv.init_params(spec, 1), tmp_path / "ckpt.bin", seed=1, epoch=0)
    line, blob = (tmp_path / "ckpt.bin").read_bytes().split(b"\n", 1)
    header = edit(json.loads(line))
    (tmp_path / "ckpt.bin").write_bytes(json.dumps(header).encode() + b"\n" + blob)
    code = cv.cli.main(["eval", "--checkpoint", str(tmp_path / "ckpt.bin"),
                        "--dataset", str(tmp_path / "d")])
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.startswith("data error: checkpoint header") and err.count("\n") == 1, err
    assert field in err, err


def test_latent_channels_shapes():
    g = np.random.default_rng(11)
    for kind in ALL_KINDS:
        spec = cv.NetworkSpec(kind=kind, input_dim=6, latent_dim=4,
                              output_dim=2, task="classification")
        model = cv.init_params(spec, 11)
        zr, zi = models.latent_channels(cv.forward(model, g.standard_normal((3, 6)),
                                                   g.standard_normal((3, 6))))
        assert zr.shape == (3, 4) and zi.shape == (3, 4)
