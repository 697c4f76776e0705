import gc
import weakref

import numpy as np
import pytest

import cvlearn as cv
from cvlearn import autodiff as ad
from cvlearn.errors import ContractError, DataError, ShapeError

from helpers import block_relative_error, central_diff, relu_margin


def _leaf(tape, arr):
    return tape.leaf(np.asarray(arr, dtype=np.float64))


def test_matmul_identity():
    tape = cv.Tape()
    out = ad.matmul(_leaf(tape, np.eye(2)), _leaf(tape, [[3, 4], [5, 6]]))
    assert np.array_equal(out.data, [[3, 4], [5, 6]])


def test_matmul_dot_product():
    tape = cv.Tape()
    out = ad.matmul(_leaf(tape, [[1, 2]]), _leaf(tape, [[3], [4]]))
    assert np.array_equal(out.data, [[11]])


def test_matmul_shape_mismatch():
    tape = cv.Tape()
    with pytest.raises(ShapeError):
        ad.matmul(_leaf(tape, np.ones((2, 3))), _leaf(tape, np.ones((2, 3))))


def test_matmul_gradients_match_finite_differences():
    g = np.random.default_rng(0)
    a, b = g.standard_normal((3, 4)), g.standard_normal((4, 2))

    def loss_fn(params):
        tape = cv.Tape()
        ta = tape.leaf(params["a"], name="a")
        tb = tape.leaf(params["b"], name="b")
        return float(ad.sum_all(ad.matmul(ta, tb)).data)

    tape = cv.Tape()
    ta, tb = tape.leaf(a, name="a"), tape.leaf(b, name="b")
    grads = tape.backward(ad.sum_all(ad.matmul(ta, tb)))
    fd = central_diff(loss_fn, {"a": a, "b": b})
    assert block_relative_error(fd, grads) < 1e-6


def test_relu_values_and_subgradient_at_zero():
    tape = cv.Tape()
    x = _leaf(tape, [[-1.0, 0.0, 2.0]])
    out = ad.relu(x)
    assert np.array_equal(out.data, [[0.0, 0.0, 2.0]])
    tape.backward(ad.sum_all(out))
    assert np.array_equal(tape.grad(x), [[0.0, 0.0, 1.0]])


def test_relu_all_negative():
    tape = cv.Tape()
    x = _leaf(tape, [[-3.0, -1.0], [-0.5, -2.0]])
    out = ad.relu(x)
    assert np.array_equal(out.data, np.zeros((2, 2)))
    tape.backward(ad.sum_all(out))
    assert np.array_equal(tape.grad(x), np.zeros((2, 2)))


def test_mean_center_rows_examples():
    tape = cv.Tape()
    out = ad.mean_center_rows(_leaf(tape, [[1.0, 2.0, 3.0]]))
    assert np.allclose(out.data, [[-1.0, 0.0, 1.0]], atol=0)
    already = np.array([[1.0, -1.0, 0.5, -0.5]])
    out2 = ad.mean_center_rows(_leaf(cv.Tape(), already))
    assert np.allclose(out2.data, already, atol=1e-15)


def test_mean_center_rows_zero_sum_invariant():
    g = np.random.default_rng(1)
    for _ in range(20):
        x = g.standard_normal((5, 9)) * g.uniform(0.1, 100)
        out = ad.mean_center_rows(_leaf(cv.Tape(), x))
        assert np.abs(out.data.sum(axis=1)).max() <= 1e-12 * max(1, np.abs(x).max())


def test_concat_and_split():
    tape = cv.Tape()
    out = ad.concat(_leaf(tape, [[1.0, 2.0]]), _leaf(tape, [[3.0, 4.0]]), axis=1)
    assert np.array_equal(out.data, [[1.0, 2.0, 3.0, 4.0]])
    parts = ad.split(out, [1, 3], axis=1)
    assert np.array_equal(parts[0].data, [[1.0]])
    assert np.array_equal(parts[1].data, [[2.0, 3.0, 4.0]])


def test_backward_of_sum_is_ones():
    tape = cv.Tape()
    x = _leaf(tape, np.random.default_rng(2).standard_normal((3, 5)))
    tape.backward(ad.sum_all(x))
    assert np.array_equal(tape.grad(x), np.ones((3, 5)))


def test_backward_requires_scalar_loss():
    tape = cv.Tape()
    x = _leaf(tape, np.ones((2, 2)))
    with pytest.raises(ContractError):
        tape.backward(ad.relu(x))


def test_backward_relu_network_matches_finite_differences():
    g = np.random.default_rng(3)
    w = g.standard_normal((4, 6))
    x = g.standard_normal((6, 2))

    def loss_fn(params):
        tape = cv.Tape()
        tw = tape.leaf(params["w"], name="w")
        return float(ad.sum_all(ad.relu(ad.matmul(tw, tape.leaf(x)))).data)

    tape = cv.Tape()
    tw = tape.leaf(w, name="w")
    loss = ad.sum_all(ad.relu(ad.matmul(tw, tape.leaf(x))))
    if relu_margin(tape) < 1e-3:
        pytest.skip("instance too close to a relu kink")
    grads = tape.backward(loss)
    fd = central_diff(loss_fn, {"w": w})
    assert block_relative_error(fd, grads) < 1e-6


def test_backward_composite_network_with_penalty():
    from helpers import build_arch_loss
    for seed in range(10):
        built = build_arch_loss("analytic", "classification", seed, beta=0.001)
        if built is None:
            continue
        params, loss_fn, tape, loss = built
        grads = tape.backward(loss)
        fd = central_diff(loss_fn, params)
        assert block_relative_error(fd, grads) < 1e-5
        return
    pytest.fail("no kink-free instance found")


def test_backward_deterministic_bit_identical():
    g = np.random.default_rng(4)
    x = g.standard_normal((4, 8))
    w = g.standard_normal((8, 3))

    def run():
        tape = cv.Tape()
        tx, tw = tape.leaf(x, name="x"), tape.leaf(w, name="w")
        loss = ad.mean_all(ad.relu(ad.matmul(tx, tw)))
        return tape.backward(loss)

    g1, g2 = run(), run()
    for name in g1:
        assert np.array_equal(g1[name], g2[name])


def test_unreached_parameter_gets_zero_gradient():
    tape = cv.Tape()
    used = tape.leaf(np.ones((2, 2)), name="used")
    tape.leaf(np.ones(3), name="unused")
    grads = tape.backward(ad.sum_all(used))
    assert np.array_equal(grads["unused"], np.zeros(3))
    assert np.array_equal(grads["used"], np.ones((2, 2)))


def test_non_finite_rejected_at_creation():
    with pytest.raises(DataError):
        cv.Tape().leaf([np.nan, 1.0])
    with pytest.raises(DataError):
        ad.constant([np.inf])


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_debug_mode_checks_op_results():
    big = np.full((2, 2), 1e308)
    try:
        ad.set_debug(True)
        tape = cv.Tape()
        x = _leaf(tape, big)
        with pytest.raises(DataError):
            ad.mul(x, x)  # overflows to inf
    finally:
        ad.set_debug(False)
    tape = cv.Tape()
    x = _leaf(tape, big)
    out = ad.mul(x, x)  # silent without debug mode
    assert np.isinf(out.data).all()


def test_mixed_tapes_rejected():
    t1, t2 = cv.Tape(), cv.Tape()
    a = _leaf(t1, np.ones((2, 2)))
    b = _leaf(t2, np.ones((2, 2)))
    with pytest.raises(ContractError):
        ad.add(a, b)


def test_tensors_are_frozen():
    tape = cv.Tape()
    x = _leaf(tape, np.ones(3))
    with pytest.raises(ValueError):
        x.data[0] = 2.0


def _unary_cases(g):
    x = g.standard_normal((3, 4))
    return {
        "relu": (ad.relu, np.where(np.abs(x) < 1e-3, x + 0.01, x)),
        "sqrt": (ad.sqrt, np.abs(x) + 0.5),
        "scale": (lambda t: ad.scale(t, -1.7), x),
        "add_const": (lambda t: ad.add_const(t, 2.5), x),
        "transpose": (ad.transpose, x),
        "mean_center_rows": (ad.mean_center_rows, x),
        "split0": (lambda t: ad.split(t, [1, 3], axis=1)[0], x),
        "split1": (lambda t: ad.split(t, [1, 3], axis=1)[1], x),
    }


def _project(out, seed):
    """Random linear functional of the op output; keeps gradients nonzero."""
    c = ad.constant(np.random.default_rng(90_000 + seed).standard_normal(out.shape))
    return ad.sum_all(ad.mul(out, c))


@pytest.mark.parametrize("name", ["relu", "sqrt", "scale", "add_const",
                                  "transpose", "mean_center_rows",
                                  "split0", "split1"])
def test_unary_op_gradients_100_seeds(name):
    for seed in range(100):
        g = np.random.default_rng(seed)
        op, x = _unary_cases(g)[name]

        def loss_fn(params, op=op, seed=seed):
            tape = cv.Tape()
            return float(_project(op(tape.leaf(params["x"], name="x")), seed).data)

        tape = cv.Tape()
        tx = tape.leaf(x, name="x")
        grads = tape.backward(_project(op(tx), seed))
        fd = central_diff(loss_fn, {"x": x})
        assert block_relative_error(fd, grads) < 1e-5, f"{name} seed {seed}"


@pytest.mark.parametrize("name", ["add", "sub", "mul", "add_bias", "concat",
                                  "linear"])
def test_binary_op_gradients_100_seeds(name):
    ops = {"add": ad.add, "sub": ad.sub, "mul": ad.mul,
           "add_bias": ad.add_bias, "concat": lambda a, b: ad.concat(a, b, axis=1),
           "linear": ad.linear}
    b_shapes = {"add_bias": (4,), "linear": (5, 4)}
    for seed in range(100):
        g = np.random.default_rng(1000 + seed)
        a = g.standard_normal((3, 4))
        b = g.standard_normal(b_shapes.get(name, (3, 4)))

        def loss_fn(params, seed=seed):
            tape = cv.Tape()
            ta = tape.leaf(params["a"], name="a")
            tb = tape.leaf(params["b"], name="b")
            return float(_project(ops[name](ta, tb), seed).data)

        tape = cv.Tape()
        ta, tb = tape.leaf(a, name="a"), tape.leaf(b, name="b")
        grads = tape.backward(_project(ops[name](ta, tb), seed))
        fd = central_diff(loss_fn, {"a": a, "b": b})
        assert block_relative_error(fd, grads) < 1e-5, f"{name} seed {seed}"


def test_linear_with_bias_gradients_100_seeds():
    for seed in range(100):
        g = np.random.default_rng(2000 + seed)
        params = {"x": g.standard_normal((3, 4)), "w": g.standard_normal((5, 4)),
                  "b": g.standard_normal(5)}

        def run(params, seed=seed):
            tape = cv.Tape()
            x, w, b = (tape.leaf(params[k], name=k) for k in ("x", "w", "b"))
            return tape, _project(ad.linear(x, w, b), seed)

        tape, loss = run(params)
        grads = tape.backward(loss)
        fd = central_diff(lambda p: float(run(p)[1].data), params)
        assert block_relative_error(fd, grads) < 1e-5, f"linear+bias seed {seed}"


@pytest.mark.parametrize("shape", [(32, 5, 64), (32, 64, 64), (32, 128, 2)])
@pytest.mark.parametrize("bias", [True, False])
def test_linear_bit_identical_to_transpose_matmul_add_bias(shape, bias):
    m, d_in, d_out = shape
    g = np.random.default_rng(d_in * 1000 + d_out)
    x = g.standard_normal((m, d_in))
    w = g.standard_normal((d_out, d_in))
    b = g.standard_normal(d_out)
    upstream = g.standard_normal((m, d_out))

    def run(fused):
        tape = cv.Tape()
        tx, tw, tb = tape.leaf(x, name="x"), tape.leaf(w, name="w"), tape.leaf(b, name="b")
        if fused:
            out = ad.linear(tx, tw, tb if bias else None)
        else:
            out = ad.matmul(tx, ad.transpose(tw))
            if bias:
                out = ad.add_bias(out, tb)
        grads = tape.backward(ad.sum_all(ad.mul(out, ad.constant(upstream))))
        return out.data, grads

    value, grads = run(True)
    ref_value, ref_grads = run(False)
    assert np.array_equal(value, ref_value)
    for name in ("x", "w", "b"):
        assert np.array_equal(grads[name], ref_grads[name]), name


def test_linear_shape_mismatch():
    tape = cv.Tape()
    x, w = _leaf(tape, np.ones((2, 3))), _leaf(tape, np.ones((4, 2)))
    with pytest.raises(ShapeError):
        ad.linear(x, w)
    with pytest.raises(ShapeError):
        ad.linear(x, _leaf(tape, np.ones((4, 3))), _leaf(tape, np.ones(3)))


def test_dropped_tape_is_freed_without_cyclic_gc():
    gc.disable()
    try:
        tape = cv.Tape()
        x = tape.leaf(np.ones((2, 3)), name="x")
        loss = ad.sum_all(ad.relu(x))
        tape.backward(loss)
        ref = weakref.ref(tape)
        del tape
        assert ref() is None
        assert loss.tape is None  # tensors outlive their tape without keeping it
    finally:
        gc.enable()


def test_leaf_binds_float64_arrays_without_copying():
    arr = np.arange(6.0).reshape(2, 3)
    t = cv.Tape().leaf(arr)
    assert np.shares_memory(t.data, arr) and not t.data.flags.writeable
    assert arr.flags.writeable  # the caller's array stays writable
    converted = cv.Tape().leaf(np.arange(6).reshape(2, 3))  # int: copied
    assert converted.data.dtype == np.float64
