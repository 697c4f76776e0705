"""Cross-checks against an independent autodiff implementation.

These tests rebuild the same forward passes in PyTorch (float64) with
identical parameters and inputs and compare losses and every parameter
gradient. They are an extra oracle only; the package itself never
imports torch, and the suite passes without it installed.
"""

import numpy as np
import pytest

torch = pytest.importorskip("torch")

import cvlearn as cv
from cvlearn import transforms as tr
from cvlearn.losses import TrainConfig, adam_init, adam_step

torch.set_default_dtype(torch.float64)


def _t(arr, grad=False):
    out = torch.tensor(np.asarray(arr, dtype=np.float64), requires_grad=grad)
    return out


def _torch_params(model):
    """The model's parameters as leaf tensors in torch's layout: each
    [in, out] weight transposed to [out, in] (a bias's .T is itself), so a
    parameter's .grad.numpy().T is in cvlearn's layout again."""
    return {name: _t(arr.T, grad=True) for name, arr in model.params.items()}


def _rel(a, b):
    a, b = np.asarray(a), np.asarray(b)
    denom = max(np.linalg.norm(a), np.linalg.norm(b), 1e-12)
    return np.linalg.norm(a - b) / denom


def _torch_hilbert_rows(z):
    n = z.shape[-1]
    mult = torch.from_numpy(tr._multiplier(n).copy())
    return torch.fft.ifft(torch.fft.fft(z.to(torch.complex128)) * mult).real


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_steinmetz_with_penalty_matches_torch(seed):
    spec = cv.NetworkSpec(kind="analytic", input_dim=10, latent_dim=8,
                          output_dim=4, task="classification")
    model = cv.init_params(spec, seed)
    g = np.random.default_rng(seed)
    x_re, x_im = g.standard_normal((6, 10)), g.standard_normal((6, 10))
    labels = g.integers(0, 4, 6)
    beta = 0.001

    tape = cv.Tape()
    result = cv.forward(model, x_re, x_im, tape)
    loss = cv.total_loss(cv.cross_entropy(result.pred, labels),
                         cv.hilbert_penalty(result.latent_pair), beta)
    grads = tape.backward(loss)

    p = _torch_params(model)

    def chain(x, prefix):
        h = torch.relu(_t(x) @ p[f"{prefix}fc1.w"].T + p[f"{prefix}fc1.b"])
        h = torch.relu(h @ p[f"{prefix}fc2.w"].T + p[f"{prefix}fc2.b"])
        return h - h.mean(dim=1, keepdim=True)

    z_re, z_im = chain(x_re, "real"), chain(x_im, "imag")
    logits = torch.cat([z_re, z_im], dim=1) @ p["regressor.w"].T + p["regressor.b"]
    ce = torch.nn.functional.cross_entropy(logits, torch.from_numpy(labels))
    pen = torch.mean((_torch_hilbert_rows(z_re) - z_im) ** 2)
    ref_loss = ce + beta * pen
    ref_loss.backward()

    assert abs(float(loss.data) - float(ref_loss.detach())) < 1e-12
    for name in model.params:
        assert _rel(grads[name], p[name].grad.numpy().T) < 1e-10, name


@pytest.mark.parametrize("task", ["classification", "complex_regression"])
def test_cvnn_matches_torch(task):
    spec = cv.NetworkSpec(kind="cvnn", input_dim=7, latent_dim=6,
                          output_dim=3, task=task)
    model = cv.init_params(spec, 5)
    g = np.random.default_rng(5)
    x_re, x_im = g.standard_normal((4, 7)), g.standard_normal((4, 7))
    labels = g.integers(0, 3, 4)
    targets = g.standard_normal((4, 6))

    tape = cv.Tape()
    res = cv.forward(model, x_re, x_im, tape)
    if task == "classification":
        loss = cv.cross_entropy(res.pred, labels)
    else:
        loss = cv.mse(res.pred, targets)
    grads = tape.backward(loss)

    p = _torch_params(model)
    yr, yi = _t(x_re), _t(x_im)
    for layer, activate in (("fc1", True), ("fc2", True), ("fc3", False)):
        wr, wi = p[f"{layer}.wr"], p[f"{layer}.wi"]
        yr, yi = (yr @ wr.T - yi @ wi.T + p[f"{layer}.br"],
                  yi @ wr.T + yr @ wi.T + p[f"{layer}.bi"])
        if activate:
            yr, yi = torch.relu(yr), torch.relu(yi)

    if task == "classification":
        logits = torch.sqrt(yr ** 2 + yi ** 2 + 1e-12)
        ref_loss = torch.nn.functional.cross_entropy(logits, torch.from_numpy(labels))
    else:
        pred = torch.cat([yr, yi], dim=1)
        ref_loss = torch.mean((pred - _t(targets)) ** 2)
    ref_loss.backward()

    assert abs(float(loss.data) - float(ref_loss.detach())) < 1e-12
    for name in model.params:
        assert _rel(grads[name], p[name].grad.numpy().T) < 1e-10, name


def test_rvnn_matches_torch():
    spec = cv.NetworkSpec(kind="rvnn", input_dim=9, latent_dim=6,
                          output_dim=2, task="complex_regression")
    model = cv.init_params(spec, 6)
    g = np.random.default_rng(6)
    x_re, x_im = g.standard_normal((5, 9)), g.standard_normal((5, 9))
    targets = g.standard_normal((5, 4))

    tape = cv.Tape()
    grads = tape.backward(cv.mse(cv.forward(model, x_re, x_im, tape).pred, targets))

    p = _torch_params(model)
    x = torch.cat([_t(x_re), _t(x_im)], dim=1)
    h = torch.relu(x @ p["fc1.w"].T + p["fc1.b"])
    latent = torch.relu(h @ p["fc2.w"].T + p["fc2.b"])
    out = latent @ p["fc3.w"].T + p["fc3.b"]
    ref_loss = torch.mean((out - _t(targets)) ** 2)
    ref_loss.backward()

    for name in model.params:
        assert _rel(grads[name], p[name].grad.numpy().T) < 1e-10, name


def test_adam_trajectory_matches_torch():
    g = np.random.default_rng(7)
    w0 = g.standard_normal((4, 3))
    grad_stream = [g.standard_normal((4, 3)) for _ in range(200)]
    cfg = TrainConfig(learning_rate=0.01, adam_b1=0.9, adam_b2=0.999,
                      adam_eps=1e-8)

    params = {"w": w0.copy()}
    state = adam_init(params)
    for gr in grad_stream:
        params, state = adam_step(params, {"w": gr}, state, cfg)

    ref = _t(w0.copy(), grad=True)
    opt = torch.optim.Adam([ref], lr=0.01, betas=(0.9, 0.999), eps=1e-8)
    for gr in grad_stream:
        opt.zero_grad()
        ref.grad = _t(gr)
        opt.step()

    assert _rel(params["w"], ref.detach().numpy()) < 1e-10


@pytest.mark.parametrize("n", [4, 8, 12, 64, 100, 256])
def test_dft_matches_numpy_fft(n):
    g = np.random.default_rng(n)
    z = g.standard_normal(n) + 1j * g.standard_normal(n)
    ours = tr.dft_array(z)
    ref = np.fft.fft(z)
    assert np.abs(ours - ref).max() <= 1e-12 * np.abs(ref).max()
    ours_inv = tr.dft_array(z, inverse=True)
    ref_inv = np.fft.ifft(z)
    assert np.abs(ours_inv - ref_inv).max() <= 1e-12 * max(1.0, np.abs(ref_inv).max())
