import hashlib
import re
import tracemalloc

import numpy as np
import pytest

from cvlearn.errors import ContractError
from cvlearn.rng import _BLOCK, Rng

from helpers import rng_reference


def test_same_seed_same_stream():
    assert np.array_equal(Rng(42).u64(100), Rng(42).u64(100))


def test_draws_continue_the_stream():
    r = Rng(7)
    first, second = r.u64(10), r.u64(10)
    joined = Rng(7).u64(20)
    assert np.array_equal(np.concatenate([first, second]), joined)


def test_substreams_are_independent_and_stable():
    a = Rng(1).substream("init/fc1.w").u64(8)
    b = Rng(1).substream("init/fc2.w").u64(8)
    assert not np.array_equal(a, b)
    assert np.array_equal(a, Rng(1).substream("init/fc1.w").u64(8))


def test_uniform_range_and_moments():
    u = Rng(3).uniform(-1.0, 1.0, 200_000)
    assert u.min() >= -1.0 and u.max() < 1.0
    assert abs(u.mean()) < 0.01
    assert abs(u.var() - 1.0 / 3.0) < 0.01


def test_normal_moments():
    z = Rng(5).normal(200_000)
    assert abs(z.mean()) < 0.01
    assert abs(z.var() - 1.0) < 0.02
    # ~68.27% mass within one standard deviation
    assert abs(np.mean(np.abs(z) < 1.0) - 0.6827) < 0.01


def test_normal_odd_count():
    assert Rng(9).normal(7).shape == (7,)
    assert Rng(9).normal((3, 5)).shape == (3, 5)


def test_permutation_valid_and_deterministic():
    p = Rng(11).permutation(1000)
    assert np.array_equal(np.sort(p), np.arange(1000))
    assert np.array_equal(p, Rng(11).permutation(1000))
    assert not np.array_equal(p, Rng(12).permutation(1000))


@pytest.mark.parametrize("shape", [(10**18, 10), (2**32, 2**32)])
@pytest.mark.parametrize("draw", ["uniform", "normal"])
def test_draw_counts_past_the_array_limit_raise_memory_error(draw, shape):
    # both counts wrap in int64 (the first past 2**63, the second to 0);
    # each fails before anything is allocated
    rng = Rng(1)
    with pytest.raises(MemoryError, match="cannot be allocated"):
        rng.uniform(0.0, 1.0, shape) if draw == "uniform" else rng.normal(shape)
    assert np.array_equal(rng.u64(3), Rng(1).u64(3))  # no draw was consumed


@pytest.mark.parametrize("seed", [0, 1, 2**63, 2**64 - 1, -1])
def test_extreme_seeds_work(seed):
    assert Rng(seed).u64(4).shape == (4,)


# each bad size raises before anything is drawn, so the stream continues
# exactly as if the call had not been made
@pytest.mark.parametrize("draw, size", [
    ("u64", -2), ("u64", 2.5), ("u64", (2, 3)), ("permutation", -1),
    ("normal", (2, -3)), ("normal", -1), ("normal", (2, 1.0)),
    ("uniform", (-2, -3)), ("uniform", 2.5), ("uniform", (4, 2.5)), ("uniform", "3"),
])
def test_bad_draw_sizes_raise_before_drawing(draw, size):
    rng = Rng(1)
    rng.u64(3)
    with pytest.raises(ContractError, match=re.escape(repr(size))):
        rng.uniform(0.0, 1.0, size) if draw == "uniform" else getattr(rng, draw)(size)
    fresh = Rng(1)
    fresh.u64(3)
    assert np.array_equal(rng.u64(3), fresh.u64(3))


B = _BLOCK
SIZES = [0, 1, B - 1, B, B + 1, 2 * B + 1]
# normal finishes B / 2 pairs a block (the pairs' first draws, then their
# second): B - 1, B and 2B - 1 fill their last block exactly, and B + 1,
# 2B + 1, 2B + 2 and 4B + 3 leave one or two pairs in it; at odd sizes the
# last pair's sin half is dropped
NORMAL_SIZES = SIZES + [2 * B - 1, 2 * B + 2, 4 * B + 3, (7, 11)]


@pytest.mark.parametrize("kind, sizes", [
    ("u64", SIZES), ("permutation", SIZES),
    ("uniform", SIZES + [(7, 11)]), ("normal", NORMAL_SIZES),
])
def test_blocked_draws_match_the_whole_array_formulas(kind, sizes):
    # the block size never changes a bit, nor where the stream continues
    for seed in (0, 2**63, 2**64 - 1, -1):
        for start in (0, 1, 777):
            for size in sizes:
                rng = Rng(seed)
                rng.u64(start)
                if kind == "uniform":
                    got = rng.uniform(-0.7, 2.5, size)
                    want = rng_reference(seed, start, kind, size, -0.7, 2.5)
                else:
                    got = getattr(rng, kind)(size)
                    want = rng_reference(seed, start, kind, size)
                case = (seed, start, size)
                assert got.dtype == want.dtype and got.shape == want.shape, case
                assert got.tobytes() == want.tobytes(), case
                n = int(np.prod(size))
                used = start + (n + n % 2 if kind == "normal" else n)
                assert np.array_equal(rng.u64(3), rng_reference(seed, used, "u64", 3)), case


GOLDEN_DRAWS = {
    "u64": lambda r: r.u64(37),
    "uniform": lambda r: r.uniform(-1.5, 2.5, (3, 7)),
    "permutation": lambda r: r.permutation(500),
    "normal": lambda r: r.normal(1001),
    "block_edge": lambda r: (r.u64(2**14 + 3), r.uniform(0.0, 0.3, 2**14 + 1),
                             r.normal(2**15 + 1)),
}
# sha256 of each draw's little-endian bytes and of the next u64(3), for
# Rng(2024) ("root") and its substream "golden". The block_edge sizes
# straddle the edges of blocks of 2**14 draws and stay fixed if the block
# size changes, as must every digest. u64, uniform and permutation are
# exact integer work and correctly rounded float steps, the same on every
# platform.
GOLDEN = {
    ("root", "u64"): "a849aa3cccab5341aa8af790a222cf9f536af3a60a01acd6b7ede8cdc8f641e2",
    ("root", "uniform"): "5212ff631de017458db7328b7ae074d962a212a86c96545fba7633fe85607252",
    ("root", "permutation"): "49073447ee56b96a518a6d882501d12520be9c1467acb2d1482f449cffbf77b2",
    ("golden", "u64"): "e237899ef2789e2c6527405b4409177a7e4fd1b5abbe240a9dff314b58955b92",
    ("golden", "uniform"): "32ab2f985003086d82570f0bf2b24e9be467915b0471856a2fc044746896b7b5",
    ("golden", "permutation"): "7613ce5bad08d3c2764825ca66251091bd077971f1dc39e9c7c987f834096e10",
}
# normal's bits also rest on numpy's float64 log, cos and sin, whose SIMD
# builds round differently: keyed by numpy major.minor and the targets
# those three run on (numpy's NPY_DISABLE_CPU_FEATURES picks a lower one)
_V3 = {
    ("root", "normal"): "09a994aa62f55fef2c78c7579679251b14264b6f1689c36c75e83f1a2867721d",
    ("root", "block_edge"): "661fe6408a99c4573222d821bab0dd412d2637ef3113324fa5b9ac7060b9dcae",
    ("golden", "normal"): "760f202905cc5c747e74925daded834072105a038f71fa64929620c6b392dabb",
    ("golden", "block_edge"): "7a631e7a836608df68a88e6562860797b57cb2c4884e0cdd7e22e559fe259c64",
}
GOLDEN_NORMAL = {
    ("2.4", "X86_V4"): {
        ("root", "normal"): "927436510e5fc6a69776b678bbda44c3a64914939a0cebe3ae4972a43389972c",
        ("root", "block_edge"): "e61e3f142ce9a1b37c9a7ec8f35a23ac255080995d1fa9226505ac9e534384c8",
        ("golden", "normal"): "760f202905cc5c747e74925daded834072105a038f71fa64929620c6b392dabb",
        ("golden", "block_edge"): "5946367bff0d7f09522f06f8aad0f27c2abffb3a5750423764865c108c02e123",
    },
    ("2.4", "X86_V3"): _V3,
    ("2.4", "baseline(X86_V2)"): _V3,
}


def _float_kernels() -> tuple:
    """(numpy major.minor, SIMD targets of float64 log, cos and sin)."""
    try:
        from numpy.lib.introspect import opt_func_info
    except ImportError:
        return ()
    info = opt_func_info(func_name="^(log|cos|sin)$", signature="float64")
    targets = sorted({v["dd"]["current"] for v in info.values()})
    return (".".join(np.__version__.split(".")[:2]), *targets)


@pytest.mark.parametrize("stream", ["root", "golden"])
@pytest.mark.parametrize("draw", list(GOLDEN_DRAWS))
def test_stream_matches_its_golden_digest(stream, draw):
    pins = GOLDEN
    if draw in ("normal", "block_edge"):
        key = _float_kernels()
        if key not in GOLDEN_NORMAL:
            pytest.skip(f"no normal digests recorded for numpy float kernels {key}")
        pins = GOLDEN_NORMAL[key]
    rng = Rng(2024) if stream == "root" else Rng(2024).substream("golden")
    out = GOLDEN_DRAWS[draw](rng)
    h = hashlib.sha256()
    for a in (out if isinstance(out, tuple) else (out,)) + (rng.u64(3),):
        h.update(np.ascontiguousarray(a, dtype=a.dtype.newbyteorder("<")).tobytes())
    assert h.hexdigest() == pins[stream, draw]


# 2000 x 784: the output is 12.5 MB. Each block of at most B draws is
# finished in place into its slice of the output, so only block-sized
# scratch comes on top: measured 12.87 MB (uniform) and 13.01 MB (normal),
# where whole-array temporaries took 37.6 and 62.7 MB.
@pytest.mark.parametrize("draw, pin_mb", [("uniform", 13.5), ("normal", 13.6)])
def test_draw_peak_is_its_output(draw, pin_mb):
    def run():
        rng = Rng(1)
        return rng.uniform(0.0, 0.3, (2000, 784)) if draw == "uniform" else rng.normal((2000, 784))
    run()
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= pin_mb * 1e6, peak
