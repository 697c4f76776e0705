"""The README's concurrency guarantee: forward passes on a frozen model may
run in several threads at once, and each gives the bits of a serial run.

Four threads at most, on small data, so the file runs in about a second.
The interpreter switches threads every 10 us here, not every 5 ms, so
the threads interleave often between numpy calls.
"""

import hashlib
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import cvlearn as cv
from cvlearn.models import KINDS, forward, latent_channels
from cvlearn.train import evaluate, train_model

THREADS = 4
TIMEOUT_S = 60


@pytest.fixture(autouse=True)
def fast_switching():
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


@pytest.fixture(scope="module")
def sets() -> dict:
    """The channel regression set (dN 5, k 1) and a 784-wide ``dft_encode``d
    classification set (k 10)."""
    x = np.random.default_rng(3).uniform(0.0, 1.0, (200, 784))
    images = cv.Dataset(x, np.zeros_like(x), np.arange(200) % 10, "classification")
    return {"complex_regression": cv.gen_channel_dataset(cv.ChannelSpec(), 1000, seed=3),
            "classification": cv.dft_encode(images)}


def _outputs(model, ds) -> tuple:
    """``evaluate``'s metrics, then the prediction and latent bytes of a
    no-graph forward pass."""
    result = forward(model, ds.features_re, ds.features_im)
    arrays = (result.pred.data, *latent_channels(result))
    return evaluate(model, ds), [np.ascontiguousarray(a).tobytes() for a in arrays]


def _digest(model, records) -> str:
    h = hashlib.sha256(repr(records).encode())
    for p in model.params.values():
        h.update(np.ascontiguousarray(p).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("task", ["complex_regression", "classification"])
def test_concurrent_evaluation_equals_serial(sets, task):
    ds = sets[task]
    models = {kind: cv.init_params(cv.NetworkSpec(kind, ds.dn, 64, ds.k, task), 1)
              for kind in KINDS}
    for model in models.values():
        for p in model.params.values():
            p.setflags(write=False)  # frozen: any write in a pass raises
    serial = {kind: _outputs(model, ds) for kind, model in models.items()}
    jobs = [kind for kind in KINDS for _ in range(4)]
    with ThreadPoolExecutor(max_workers=THREADS) as pool:
        got = list(pool.map(lambda kind: _outputs(models[kind], ds), jobs, timeout=TIMEOUT_S))
    for kind, out in zip(jobs, got):
        assert out == serial[kind], kind


@pytest.mark.parametrize("kind", KINDS)
def test_training_beside_concurrent_evaluation_equals_a_solo_run(sets, kind):
    train_ds = sets["complex_regression"]
    spec = cv.NetworkSpec(kind, train_ds.dn, 64, train_ds.k, "complex_regression")
    cfg = cv.TrainConfig(learning_rate=1e-3, beta=1e-3 if kind == "analytic" else 0.0,
                         epochs=3, batch_size=32, seed=1)
    solo = _digest(*train_model(spec, train_ds, cfg))
    ds = sets["classification"]
    other = cv.init_params(cv.NetworkSpec(kind, ds.dn, 64, ds.k, "classification"), 2)
    want = _outputs(other, ds)
    with ThreadPoolExecutor(max_workers=THREADS) as pool:
        trained = pool.submit(lambda: _digest(*train_model(spec, train_ds, cfg)))
        evaluations = []
        while not evaluations or not trained.done():  # the others evaluate meanwhile
            evaluations += [pool.submit(_outputs, other, ds) for _ in range(THREADS - 1)]
            for f in evaluations[-(THREADS - 1):]:
                f.result(timeout=TIMEOUT_S)
        assert trained.result(timeout=TIMEOUT_S) == solo
    assert all(f.result() == want for f in evaluations)
