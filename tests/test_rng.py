import numpy as np
import pytest

from cvlearn.rng import Rng


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
