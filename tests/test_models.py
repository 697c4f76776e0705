import json

import numpy as np
import pytest

import cvlearn as cv
import cvlearn.cli  # noqa: F401  (binds cv.cli)
from cvlearn import autodiff as ad
from cvlearn import models
from cvlearn.errors import ContractError, DataError, ShapeError

from helpers import (block_relative_error, build_arch_loss, central_diff,
                     synthetic_classification)

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
        "regressor.w": np.array([[1.0, 2.0, 3.0, 4.0]]), "regressor.b": np.zeros(1),
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
    tape = cv.Tape()
    p = {"fc1.wr": tape.leaf(np.array([[0.0]]), name="wr"),
         "fc1.wi": tape.leaf(np.array([[1.0]]), name="wi"),
         "fc1.br": tape.leaf(np.zeros(1), name="br"),
         "fc1.bi": tape.leaf(np.zeros(1), name="bi")}
    xr, xi = tape.leaf(np.array([[1.0]])), tape.leaf(np.array([[0.0]]))
    yr, yi = models._complex_affine(xr, xi, p, "fc1")
    assert float(yr.data[0, 0]) == 0.0 and float(yi.data[0, 0]) == 1.0
    rr, ri = ad.relu(yr), ad.relu(yi)
    assert float(rr.data[0, 0]) == 0.0 and float(ri.data[0, 0]) == 1.0
    mag = ad.sqrt(ad.add_const(ad.add(ad.mul(rr, rr), ad.mul(ri, ri)),
                               models.MAGNITUDE_EPS))
    assert abs(float(mag.data[0, 0]) - 1.0) < 1e-9


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
        h = (h @ model.params[f"{layer}.wr"].T
             - np.zeros((4, 1)) @ np.zeros((1, model.params[f"{layer}.wr"].shape[0]))
             + model.params[f"{layer}.br"])
        h = np.maximum(h, 0.0)
    ref = (h @ model.params["fc3.wr"].T) - 0.0 + model.params["fc3.br"]
    assert np.array_equal(pred.data[:, :3], ref)
    assert np.all(pred.data[:, 3:] == 0)


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


def test_forward_input_validation():
    spec = cv.NetworkSpec(kind="steinmetz", input_dim=6, latent_dim=4,
                          output_dim=2, task="classification")
    model = cv.init_params(spec, 0)
    with pytest.raises(ShapeError):
        cv.forward(model, np.ones((2, 5)), np.ones((2, 5)))
    with pytest.raises(ShapeError):
        cv.forward(model, np.ones((2, 6)), np.ones((3, 6)))


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
    header = {"format": "cvlearn-checkpoint-v1", "spec": model.spec.to_dict(),
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
