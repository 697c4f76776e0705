"""``transforms.walk_row_blocks``: the DFT's, ``dft_encode``'s and the
Hilbert transform's row blocks, their upper half on a second CPU through
``autodiff.on_two_cpus``, give the bytes of the one-CPU walk; exactly one
thread starts per walk at the split size and none below it or in a
process limited to one CPU; an error in either half reaches the caller
with no thread left running, and the Hilbert transform's refusal sees
both halves.
"""

import os
import threading
import tracemalloc

import numpy as np
import pytest

import cvlearn as cv
from cvlearn import autodiff as ad
from cvlearn import transforms as tr
from cvlearn.errors import ContractError

from helpers import python, same_bytes, spy_split_threads

HILBERTS = (tr.hilbert_rows_array, tr.hilbert_adjoint_rows_array)


def _real_form(x: np.ndarray) -> cv.Dataset:
    return cv.Dataset(x, np.zeros_like(x), np.zeros(x.shape[0], dtype=int), "classification")


def _transforms(x: np.ndarray, z: np.ndarray) -> list:
    """Every walked transform of the real rows ``x`` and complex rows ``z``."""
    enc = cv.dft_encode(_real_form(x.reshape(-1, x.shape[-1])))
    return [enc.features_re, enc.features_im,
            *(tr.dft_array(a, inverse) for a in (x, z) for inverse in (False, True)),
            *(h(x) for h in HILBERTS)]


# (shape, walks that split): 784 wide, 41 rows a block, the last one
# shorter (2000: 32 rows, 1001: 17) or stacked; 1024 wide, 32 a block
@pytest.mark.parametrize("shape", [(2000, 784), (1001, 784), (3, 333, 784), (300, 1024)])
def test_split_walks_have_the_bytes_of_the_one_cpu_walk(monkeypatch, shape):
    started = spy_split_threads(monkeypatch)
    g = np.random.default_rng(shape[-2])
    x = g.standard_normal(shape)
    z = x + 1j * g.standard_normal(shape)
    split = _transforms(x, z)
    # one walk in dft_encode, each of the four dft_array calls and each Hilbert transform
    assert len(started) == 7, shape
    with monkeypatch.context() as one_cpu:
        one_cpu.setattr(ad, "_other_cpus", set)
        serial = _transforms(x, z)
    assert len(started) == 7
    for i, (a, b) in enumerate(zip(split, serial)):
        assert same_bytes(a, b), (shape, i)


def test_dft_encode_at_a_prime_width_splits_its_walk(monkeypatch):
    # 997 is prime: each block is a direct sum, ~n^2 multiply-adds a row
    started = spy_split_threads(monkeypatch)
    x = np.random.default_rng(997).standard_normal((101, 997))
    split = cv.dft_encode(_real_form(x))
    assert len(started) == 1
    with monkeypatch.context() as one_cpu:
        one_cpu.setattr(ad, "_other_cpus", set)
        serial = cv.dft_encode(_real_form(x))
    assert same_bytes(split.features_re, serial.features_re)
    assert same_bytes(split.features_im, serial.features_im)


# (m, n, splits): the fewest rows whose walk splits and one row fewer. At
# 784 wide a row costs 784 (28 + 28) multiply-adds, so each half needs 192
# rows; 397 rows split at row 205, leaving 192 above.
@pytest.mark.parametrize("m, n, splits", [
    (397, 784, True), (396, 784, False), (256, 1024, True), (255, 1024, False),
    (41, 997, True), (40, 997, False)])
def test_one_thread_per_walk_at_the_split_size(monkeypatch, m, n, splits):
    started = spy_split_threads(monkeypatch)
    x = np.random.default_rng(m).standard_normal((m, n))
    transforms = [lambda: cv.dft_encode(_real_form(x))]
    if n % 2 == 0:  # the DFT walks at composite n only, Hilbert at even n only
        transforms += [lambda: tr.dft_array(x), *(lambda h=h: h(x) for h in HILBERTS)]
    for transform in transforms:
        before = len(started)
        transform()
        assert len(started) - before == splits


@pytest.mark.parametrize("half", ["upper", "lower"])
def test_an_error_in_either_half_of_a_walk_reaches_the_caller(monkeypatch, half):
    spy_split_threads(monkeypatch)
    caller, raised = threading.get_ident(), []

    def block(lo, hi):
        if (threading.get_ident() == caller) == (half == "lower"):
            raised.append(ValueError(f"{half} half"))
            raise raised[-1]

    before = threading.active_count()
    with pytest.raises(ValueError) as e:
        tr.walk_row_blocks(2000, 784, block)
    assert e.value is raised[0] and len(raised) == 1
    assert threading.active_count() == before


def test_on_two_cpus_runs_the_upper_half_under_the_callers_errstate(monkeypatch):
    spy_split_threads(monkeypatch)
    for state in ({"over": "ignore"}, {"over": "raise", "invalid": "warn"}):
        with np.errstate(**state):
            lower, upper = ad.on_two_cpus(np.geterr, np.geterr, "cvlearn.autodiff.matmul")
        assert lower == upper and all(lower[k] == v for k, v in state.items())


@pytest.mark.parametrize("half", ["lower", "upper"])
def test_the_hilbert_refusal_combines_both_halves(monkeypatch, half):
    # 2000 rows split at row 984. Rows scaled by 1e12 in one half round to
    # a residue far above 1e-9 but within 1e-9 of their magnitude, so the
    # bound takes its scale from that half; a NaN residue in one block of
    # that half, between finite ones, refuses.
    started = spy_split_threads(monkeypatch)
    x = np.random.default_rng(12).standard_normal((2000, 784))
    x[:984] *= 1e12 if half == "lower" else 1.0
    x[984:] *= 1e12 if half == "upper" else 1.0
    split = tr.hilbert_rows_array(x)
    with monkeypatch.context() as one_cpu:
        one_cpu.setattr(ad, "_other_cpus", set)
        assert same_bytes(split, tr.hilbert_rows_array(x))
    real, caller, inverses = tr.dft_array, threading.get_ident(), []

    def dft_array(z, inverse=False):
        out = real(z, inverse)
        if inverse and (threading.get_ident() == caller) == (half == "lower"):
            inverses.append(out)
            if len(inverses) == 2:  # the half's second block
                out.imag[0, 0] = np.nan
        return out

    monkeypatch.setattr(tr, "dft_array", dft_array)
    with pytest.raises(ContractError, match="non-real"):
        tr.hilbert_rows_array(x)
    assert len(inverses) == (24 if half == "lower" else 25)
    assert len(started) == 2


def _peak_above(f, base: int) -> int:
    f()  # fills the kernel and twiddle caches
    tracemalloc.start()
    try:
        f()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - base


# 2000 x 784 with a block of 2^15 complex values (0.5 MiB), two blocks in
# flight where the walk splits. Measured above the outputs: dft_encode 2.21
# MiB (3.10 with 1 MiB blocks, one at a time), dft_array of real rows 1.23
# MiB (1.99), hilbert_rows_array 3.20 MiB (4.09). The margin, under 0.3 MiB,
# is less than one block's complex values.
def test_dft_encode_peak_with_half_size_blocks():
    x = np.random.default_rng(5).standard_normal((2000, 784))
    ds = _real_form(x)
    peak = _peak_above(lambda: cv.dft_encode(ds), 2 * x.nbytes)
    assert peak <= 2.5 * 2**20, peak


def test_dft_array_of_real_rows_peak_with_half_size_blocks():
    x = np.random.default_rng(5).standard_normal((2000, 784))
    peak = _peak_above(lambda: tr.dft_array(x), 2 * x.nbytes)
    assert peak <= 1.5 * 2**20, peak


def test_hilbert_rows_array_peak_with_half_size_blocks():
    x = np.random.default_rng(5).standard_normal((2000, 784))
    peak = _peak_above(lambda: tr.hilbert_rows_array(x), x.nbytes)
    assert peak <= 3.5 * 2**20, peak


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity calls")
def test_a_process_limited_to_one_cpu_never_splits_a_walk():
    code = """
import os, threading
import numpy as np
import cvlearn as cv
from cvlearn import transforms as tr
started = []
class Spy(threading.Thread):
    def start(self):
        started.append(self)
        super().start()
threading.Thread = Spy
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
x = np.random.default_rng(1).standard_normal((2000, 784))
cv.dft_encode(cv.Dataset(x, np.zeros_like(x), np.zeros(2000, dtype=int), "classification"))
tr.dft_array(x), tr.dft_array(x + 1j, inverse=True), tr.hilbert_rows_array(x)
print(len(started))
"""
    done = python("-c", code)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["0"]
