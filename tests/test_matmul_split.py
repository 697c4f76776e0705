"""``autodiff.matmul``: a large product's row halves on two threads give
the bytes of ``np.matmul``; small products, 32-row training steps and a
process limited to one CPU start no thread; an error in either half
reaches the caller with no thread left running, and the caller's numpy
``errstate`` holds in both halves.
"""

import itertools
import os
import threading
import warnings

import numpy as np
import pytest

import cvlearn as cv
from cvlearn import autodiff as ad
from cvlearn.errors import DataError
from cvlearn.models import KINDS
from cvlearn.train import forward_metrics

from helpers import python, same_bytes, spy_split_threads


def _splits(m: int, k: int, n: int) -> bool:
    return (m // 2) * k * n >= ad._SPLIT_MACS


def test_split_products_have_the_bytes_of_np_matmul(monkeypatch):
    started = spy_split_threads(monkeypatch)
    g = np.random.default_rng(33)
    for m, k in itertools.product([500, 2000, 2001, 10000], [5, 64, 128, 784]):
        a = g.random((2, m, k)) - 0.5  # a[0] is the 2-D operand, in C order
        for n in [2, 10, 64, 128]:
            b = g.random((2, k, n)) - 0.5
            want = np.matmul(a, b)
            for x, w, y in ((a[0], b[0], np.matmul(a[0], b[0])), (a, b, want)):
                before = len(started)
                assert same_bytes(ad.matmul(x, w), y), (x.shape, n)
                assert len(started) - before == _splits(m, k, n), (x.shape, n)
            # into the left columns of a wider output, as cvnn's head writes
            out = np.full((2, m, n + 3), 7.0)
            ad.matmul(a, b, out=out[..., :n])
            assert same_bytes(out[..., :n], want) and (out[..., n:] == 7.0).all()


# (m, k, n) just at the split size and one row pair below it
@pytest.mark.parametrize("m, k, n, splits", [
    (4096, 64, 64, True), (4095, 64, 64, False), (4094, 64, 64, False),
    (336, 784, 64, True), (335, 784, 64, False), (10000, 128, 10, False),
    (13108, 128, 10, True), (13107, 128, 10, False)])
def test_the_split_size_is_per_row_half(monkeypatch, m, k, n, splits):
    started = spy_split_threads(monkeypatch)
    g = np.random.default_rng(m)
    for a, b in ((g.random((m, k)), g.random((k, n))),
                 (g.random((2, m, k)), g.random((2, k, n)))):
        before = len(started)
        assert same_bytes(ad.matmul(a, b), np.matmul(a, b))
        assert len(started) - before == splits == _splits(m, k, n)


# products with 5000-row halves that reach the split size, per forward
# pass of 10k rows at dN 784, lN 64, k 10: rvnn's two first-layer blocks
# and its 64 x 128 layer (not its 128 x 10 head); each branch's two layers
# (the head's 64-wide blocks stay below it); cvnn's four products in each
# hidden layer
SPLITS_AT_784 = {"rvnn": 3, "cvnn": 8, "steinmetz": 4, "analytic": 4}


def test_a_784_wide_evaluation_splits_each_large_product_once(monkeypatch):
    started = spy_split_threads(monkeypatch)
    g = np.random.default_rng(7)
    ds = cv.Dataset(g.random((10000, 784)), g.random((10000, 784)),
                    np.arange(10000) % 10, "classification")
    for kind in KINDS:
        model = cv.init_params(cv.NetworkSpec(kind, 784, 64, 10, "classification"), 1)
        del started[:]
        split = forward_metrics(model, ds)[1].pred.data
        assert len(started) == SPLITS_AT_784[kind], kind
        with monkeypatch.context() as one_cpu:
            one_cpu.setattr(ad, "_other_cpus", set)
            assert same_bytes(split, forward_metrics(model, ds)[1].pred.data), kind
        assert len(started) == SPLITS_AT_784[kind], kind


def test_a_32_row_training_step_starts_no_thread(monkeypatch):
    started = spy_split_threads(monkeypatch)
    g = np.random.default_rng(8)
    ds = cv.Dataset(g.random((32, 784)), g.random((32, 784)), np.arange(32) % 10,
                    "classification")
    for kind in KINDS:
        cfg = cv.TrainConfig(learning_rate=1e-3, beta=1e-3 if kind == "analytic" else 0.0,
                             epochs=1, batch_size=32, seed=1)
        cv.train_model(cv.NetworkSpec(kind, 784, 64, 10, "classification"), ds, cfg)
    assert started == []


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity calls")
def test_the_upper_half_runs_pinned_off_the_callers_cpu(monkeypatch):
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("one CPU: nothing splits")
    real, masks = os.sched_setaffinity, []

    def setaffinity(pid, cpus):
        masks.append((pid, threading.get_ident(), set(cpus)))
        real(pid, cpus)

    monkeypatch.setattr(os, "sched_setaffinity", setaffinity)
    mine = os.sched_getaffinity(0)
    a, b = np.ones((4096, 64)), np.ones((64, 64))
    assert same_bytes(ad.matmul(a, b), np.matmul(a, b))
    [(pid, ident, cpus)] = masks
    assert pid == 0 and ident != threading.get_ident() and cpus and cpus < mine
    assert os.sched_getaffinity(0) == mine


@pytest.mark.parametrize("half", ["upper", "lower"])
def test_an_error_in_either_half_reaches_the_caller(monkeypatch, half):
    spy_split_threads(monkeypatch)
    real, caller, raised = np.matmul, threading.get_ident(), []

    def matmul(a, b, out=None):
        if (threading.get_ident() == caller) == (half == "lower"):
            raised.append(ValueError(f"{half} half"))
            raise raised[-1]
        return real(a, b, out=out)

    a, b = np.ones((4096, 64)), np.ones((64, 64))
    before = threading.active_count()
    monkeypatch.setattr(np, "matmul", matmul)
    with pytest.raises(ValueError) as e:
        ad.matmul(a, b)
    assert e.value is raised[0] and len(raised) == 1
    assert threading.active_count() == before


def test_an_overflow_in_the_upper_half_stays_under_the_callers_errstate(monkeypatch):
    # forward_metrics ignores overflow in the forward pass, then refuses the
    # non-finite predictions: the first layer's 1e306 weights overflow in
    # both halves of its 500-row split, and no RuntimeWarning may escape
    started = spy_split_threads(monkeypatch)
    model = cv.init_params(cv.NetworkSpec("steinmetz", 784, 64, 10, "classification"), 1)
    huge = {name: np.full(p.shape, 1e306) if name in ("realfc1.w", "imagfc1.w") else p
            for name, p in model.params.items()}
    g = np.random.default_rng(35)
    ds = cv.Dataset(g.random((1000, 784)), g.random((1000, 784)), np.arange(1000) % 10,
                    "classification")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match="not all finite"):
            cv.evaluate(cv.Model(model.spec, huge), ds)
    assert len(started) == 2  # each branch's first layer


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity calls")
def test_a_process_limited_to_one_cpu_never_splits():
    code = """
import os, threading
import numpy as np
from cvlearn import autodiff as ad
started = []
class Spy(threading.Thread):
    def start(self):
        started.append(self)
        super().start()
threading.Thread = Spy
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
a, b = np.random.default_rng(1).random((2, 10000, 784)), np.ones((2, 784, 64))
assert ad.matmul(a, b).tobytes() == np.matmul(a, b).tobytes()
print(len(started))
"""
    done = python("-c", code)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["0"]
