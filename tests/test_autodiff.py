import gc
import weakref

import numpy as np
import pytest

import cvlearn as cv
from cvlearn import autodiff as ad
from cvlearn import models
from cvlearn.errors import ContractError, DataError, ShapeError

from helpers import (block_relative_error, central_diff, in_out, linear_chain_reference,
                     relu_margin, sq_diff_chain_reference, weighted_sum)


def _relu_layer(form, tx):
    """A hidden layer with identity weights and zero biases over tensor
    ``tx``, so its pre-activation is ``tx``'s data: ``linear``, or one part
    of ``_complex_affine`` with the other channel a zero constant."""
    n = tx.shape[-1]
    eye, zeros = ad.constant(np.eye(n)), ad.constant(np.zeros(n))
    other = ad.constant(np.zeros(tx.shape))
    if form == "linear":
        return ad.linear(tx, eye, zeros, relu=True)
    layer = {"fc.wr": eye, "fc.wi": eye, "fc.br": zeros, "fc.bi": zeros}
    if form == "complex_re":
        return models._complex_affine([tx, other], layer, "fc", relu=True)[0]
    return models._complex_affine([other, tx], layer, "fc", relu=True)[1]


RELU_FORMS = ["linear", "complex_re", "complex_im"]


def test_relu_values_and_subgradient_at_zero():
    assert not hasattr(ad, "relu")  # ReLU runs only inside an affine node
    for form in RELU_FORMS:
        tape = cv.Tape()
        out = _relu_layer(form, tape.param([[-1.0, 0.0, 2.0]], "x"))
        assert out.relu and out.op in ("linear", "complex_affine"), form
        assert np.array_equal(out.data, [[0.0, 0.0, 2.0]]), form
        grads = tape.backward(weighted_sum(out, np.ones(out.shape)))
        assert np.array_equal(grads["x"], [[0.0, 0.0, 1.0]]), form


def test_relu_all_negative():
    for form in RELU_FORMS:
        tape = cv.Tape()
        out = _relu_layer(form, tape.param([[-3.0, -1.0], [-0.5, -2.0]], "x"))
        assert np.array_equal(out.data, np.zeros((2, 2))), form
        grads = tape.backward(weighted_sum(out, np.ones(out.shape)))
        assert np.array_equal(grads["x"], np.zeros((2, 2))), form


def test_relu_mask_from_output_is_the_preactivation_mask():
    # max(x, 0) > 0 exactly when x > 0, for -0, NaN and the infinities too
    x = np.array([[-0.0], [0.0], [np.nan], [np.inf], [-np.inf], [-2.0], [3.0], [5e-324]])
    up = np.arange(1.0, 9.0)[:, None]
    tape = cv.Tape()
    tx = tape.param(x, "x")
    # a 1 x 1 weight of 1 and a bias of -0 leave every x as it is
    out = ad.linear(tx, ad.constant([[1.0]]), ad.constant([-0.0]), relu=True)
    assert np.array_equal(out.data, np.maximum(x, 0.0), equal_nan=True)
    grads = tape.backward(weighted_sum(out, up))
    assert np.array_equal(grads["x"], up * (x > 0))


def test_mean_center_rows_examples():
    out = ad.mean_center_rows(ad.constant([[1.0, 2.0, 3.0]]))
    assert np.allclose(out.data, [[-1.0, 0.0, 1.0]], atol=0)
    already = np.array([[1.0, -1.0, 0.5, -0.5]])
    out2 = ad.mean_center_rows(ad.constant(already))
    assert np.allclose(out2.data, already, atol=1e-15)


def test_mean_center_rows_zero_sum_invariant():
    g = np.random.default_rng(1)
    for _ in range(20):
        x = g.standard_normal((5, 9)) * g.uniform(0.1, 100)
        out = ad.mean_center_rows(ad.constant(x))
        assert np.abs(out.data.sum(axis=1)).max() <= 1e-12 * max(1, np.abs(x).max())


def test_backward_of_member_losses_is_backward_of_their_sum():
    # a stacked [3] loss vector is differentiated as it stands: its seed of
    # ones is the upstream gradient a sum over its entries would pass down
    g = np.random.default_rng(2)
    tape = cv.Tape()
    a = tape.param(g.standard_normal((3, 4, 5)), "a")
    v = ad.mean_sq_diff(a, ad.constant(g.standard_normal((3, 4, 5))))
    assert v.shape == (3,)
    per_member = tape.backward(v)
    summed = tape.backward(weighted_sum(v, np.ones(3)))
    assert np.array_equal(per_member["a"], summed["a"])


def test_a_parent_listed_twice_gets_its_contributions_summed_in_list_order():
    # cvnn's head lists its inputs and weights once per part: a node adds
    # its contributions to a parent in list order, and an earlier node adds
    # its own after them
    c0, c1, c2 = np.random.default_rng(12).standard_normal((3, 4, 5))
    tape = cv.Tape()
    x = tape.param(np.zeros((4, 5)), "x")
    early = ad.record_op("early", np.zeros((4, 5)), (x,), (lambda g: c0,))
    late = ad.record_op("late", np.zeros((4, 5)), (x, early, x),
                        (lambda g: c1, lambda g: g, lambda g: c2))
    grads = tape.backward(weighted_sum(late, np.ones((4, 5))))
    assert np.array_equal(grads["x"], (c1 + c2) + c0)
    assert not np.array_equal(grads["x"], c1 + (c2 + c0))  # the order shows


def test_backward_requires_scalar_loss():
    tape = cv.Tape()
    x = tape.param(np.ones((2, 2)), "x")
    with pytest.raises(ContractError):
        tape.backward(ad.mean_center_rows(x))


def test_backward_relu_network_matches_finite_differences():
    g = np.random.default_rng(3)
    w = in_out(g.standard_normal((4, 6)))
    x = ad.constant(g.standard_normal((6, 2)).T)
    b = ad.constant(g.standard_normal(4))

    def loss_fn(params):
        tape = cv.Tape()
        tw = tape.param(params["w"], "w")
        return float(np.add.reduce(ad.linear(x, tw, b, relu=True).data, axis=None))

    tape = cv.Tape()
    tw = tape.param(w, "w")
    out = ad.linear(x, tw, b, relu=True)
    loss = weighted_sum(out, np.ones(out.shape))
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
    w = in_out(g.standard_normal((3, 8)))
    b = g.standard_normal(3)
    target = g.standard_normal((4, 3))

    def run():
        tape = cv.Tape()
        tx, tw, tb = tape.param(x, "x"), tape.param(w, "w"), tape.param(b, "b")
        loss = ad.mean_sq_diff(ad.linear(tx, tw, tb, relu=True), ad.constant(target))
        return tape.backward(loss)

    g1, g2 = run(), run()
    for name in g1:
        assert np.array_equal(g1[name], g2[name])


def test_unreached_parameter_gets_zero_gradient():
    tape = cv.Tape()
    used = tape.param(np.ones((2, 2)), "used")
    tape.param(np.ones(3), "unused")
    grads = tape.backward(weighted_sum(used, np.ones(used.shape)))
    assert np.array_equal(grads["unused"], np.zeros(3))
    assert np.array_equal(grads["used"], np.ones((2, 2)))


def test_non_finite_rejected_at_creation():
    with pytest.raises(DataError):
        ad.constant([np.inf])


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_op_results_are_not_checked_for_overflow():
    # divergence is caught on the loss and the Adam update, not per op
    tape = cv.Tape()
    x = tape.param(np.full((2, 2), 1e308), "x")
    out = ad.linear(x, x, tape.param(np.zeros(2), "b"))  # overflows to inf
    assert np.isinf(out.data).all()


def test_mixed_tapes_rejected():
    a = cv.Tape().param(np.ones((2, 2)), "a")
    b = cv.Tape().param(np.ones((2, 2)), "b")
    with pytest.raises(ContractError):
        ad.mean_sq_diff(a, b)


def test_tensors_are_frozen():
    x = cv.Tape().param(np.ones(3), "x")
    with pytest.raises(ValueError):
        x.data[0] = 2.0


def _pair(a, b):
    """The complex pair ``[a | b]`` as one tensor, read in place by a
    ``linear`` node with identity weights and zero biases: every entry
    is a product by 1 plus products by 0, so the values are exact."""
    n = a.shape[-1] + b.shape[-1]
    return ad.linear((a, b), ad.constant(np.eye(n)), ad.constant(np.zeros(n)))


def _unary_cases(g):
    """The ``sqrt`` and ``add_const`` rows keep the ids of the ops that
    cvnn's magnitude head was built from; both now live in the one
    magnitude node, checked here with one part held off the tape."""
    x = g.standard_normal((3, 4))
    away_from_zero = np.where(np.abs(x) < 1e-3, x + 0.01, x)
    zeros = ad.constant(np.zeros((3, 4)))
    # a constant under the sqrt, as eps was: c*c + eps, c bounded away from 0
    c = ad.constant(1.0 + np.abs(g.standard_normal((3, 4))))
    return {
        # the three forms of a hidden layer, each with pre-activation x
        "relu": (lambda t: tuple(_relu_layer(form, t) for form in RELU_FORMS),
                 away_from_zero),
        "mean_center_rows": (ad.mean_center_rows, x),
        "sqrt": (lambda t: models._magnitude(_pair(t, zeros)), away_from_zero),
        "add_const": (lambda t: models._magnitude(_pair(t, c)), x),
    }


def _project(out, seed):
    """Random linear functional of the op output; keeps gradients nonzero.
    A tuple of outputs is weighted by consecutive column blocks of one
    draw, as if they stood side by side."""
    g = np.random.default_rng(90_000 + seed)
    if not isinstance(out, tuple):
        return weighted_sum(out, g.standard_normal(out.shape))
    ends = np.cumsum([o.shape[-1] for o in out])
    w = g.standard_normal(out[0].shape[:-1] + (ends[-1],))
    return weighted_sum(out, tuple(np.split(w, ends[:-1], axis=-1)))


@pytest.mark.parametrize("name", ["relu", "mean_center_rows", "sqrt", "add_const"])
def test_unary_op_gradients_100_seeds(name):
    for seed in range(100):
        g = np.random.default_rng(seed)
        op, x = _unary_cases(g)[name]

        def loss_fn(params, op=op, seed=seed):
            tape = cv.Tape()
            return float(_project(op(tape.param(params["x"], "x")), seed).data)

        tape = cv.Tape()
        tx = tape.param(x, "x")
        grads = tape.backward(_project(op(tx), seed))
        fd = central_diff(loss_fn, {"x": x})
        assert block_relative_error(fd, grads) < 1e-5, f"{name} seed {seed}"


@pytest.mark.parametrize("name", ["linear", "mean_sq_diff", "mul"])
def test_binary_op_gradients_100_seeds(name):
    # "mul" keeps the id of the op that spelled the magnitude head's squares
    # y*y; with both parts on the tape it checks their summed operand paths
    # "linear" checks x and w under a constant bias; the next test adds b's gradient
    ops = {"mean_sq_diff": ad.mean_sq_diff, "mul": lambda a, b: models._magnitude(_pair(a, b)),
           "linear": lambda x, w: ad.linear(x, w, ad.constant(np.ones(5)))}
    b_shapes = {"linear": (5, 4)}
    for seed in range(100):
        g = np.random.default_rng(1000 + seed)
        a = g.standard_normal((3, 4))
        b = g.standard_normal(b_shapes.get(name, (3, 4)))
        b = in_out(b) if name == "linear" else b

        def loss_fn(params, seed=seed):
            tape = cv.Tape()
            ta, tb = tape.param(params["a"], "a"), tape.param(params["b"], "b")
            return float(_project(ops[name](ta, tb), seed).data)

        tape = cv.Tape()
        ta, tb = tape.param(a, "a"), tape.param(b, "b")
        grads = tape.backward(_project(ops[name](ta, tb), seed))
        fd = central_diff(loss_fn, {"a": a, "b": b})
        assert block_relative_error(fd, grads) < 1e-5, f"{name} seed {seed}"


def test_linear_with_bias_gradients_100_seeds():
    for seed in range(100):
        g = np.random.default_rng(2000 + seed)
        params = {"x": g.standard_normal((3, 4)), "w": in_out(g.standard_normal((5, 4))),
                  "b": g.standard_normal(5)}

        def run(params, seed=seed):
            tape = cv.Tape()
            x, w, b = (tape.param(params[k], k) for k in ("x", "w", "b"))
            return tape, _project(ad.linear(x, w, b), seed)

        tape, loss = run(params)
        grads = tape.backward(loss)
        fd = central_diff(lambda p: float(run(p)[1].data), params)
        assert block_relative_error(fd, grads) < 1e-5, f"linear+bias seed {seed}"


def _half(y, part):
    """The real (``part`` 0) or imaginary (1) half of a complex pair
    ``[yr | yi]`` as a tape node; backward gives the other half zeros."""
    n = y.shape[-1] // 2
    cols = slice(part * n, (part + 1) * n)

    def vjp(g):
        out = np.zeros(y.shape)
        out[..., cols] = g
        return out

    return ad.record_op("half", np.ascontiguousarray(y.data[..., cols]), (y,), (vjp,))


def _node_case(name, g):
    """(op over a dict of tape tensors, parameter arrays) for the one-node
    ops of cvnn's complex layer and magnitude head, of the penalised loss
    and of ``linear`` over one input or a pair of inputs (rvnn's first
    layer). ``complex_head`` is cvnn's head node ``[yr | yi]`` and
    ``complex_re``/``complex_im`` one half of it; with ``_relu`` they are
    one part of a hidden complex layer, and the ``linear`` ones hidden
    layers too. Every input of the node is a parameter."""
    relu = name.endswith("_relu")
    name = name.removesuffix("_relu")
    if name.startswith("complex"):
        lead = (2,) if name.endswith("stacked") else ()
        shapes = {"xr": (3, 4), "xi": (3, 4), "wr": (5, 4), "wi": (5, 4),
                  "br": (5,), "bi": (5,)}
        part = {"re": 0, "im": 1}.get(name.split("_")[1])

        def op(t):
            layer = {f"fc.{k}": t[k] for k in ("wr", "wi", "br", "bi")}
            y = models._complex_affine([t["xr"], t["xi"]], layer, "fc", relu)
            if relu:
                return y[part]
            return y if part is None else _half(y, part)

        return op, {k: in_out(v) if k[0] == "w" else v
                    for k, v in ((k, g.standard_normal(lead + s)) for k, s in shapes.items())}
    if name.startswith("linear_pair"):
        lead = (2,) if name.endswith("stacked") else ()
        shapes = {"xr": (3, 4), "xi": (3, 2), "w": (5, 6), "b": (5,)}
        return (lambda t: ad.linear((t["xr"], t["xi"]), t["w"], t["b"], relu),
                {k: in_out(v) if k == "w" else v
                 for k, v in ((k, g.standard_normal(lead + s)) for k, s in shapes.items())})
    if name.startswith("linear"):
        shapes = {"x": (3, 4), "w": (5, 4), "b": (5,)}
        return (lambda t: ad.linear(t["x"], t["w"], t["b"], relu),
                {k: in_out(v) if k == "w" else v
                 for k, v in ((k, g.standard_normal(s)) for k, s in shapes.items())})
    if name == "magnitude":
        parts = g.standard_normal((3, 4)), g.standard_normal((3, 4))
        return (lambda t: models._magnitude(t["y"]), {"y": np.concatenate(parts, axis=-1)})
    return (lambda t: cv.total_loss(t["task"], t["penalty"], 0.37),
            {"task": g.standard_normal(()), "penalty": g.standard_normal(())})


@pytest.mark.parametrize("name", ["complex_re", "complex_im", "complex_re_stacked",
                                  "complex_im_stacked", "complex_head",
                                  "complex_head_stacked", "magnitude", "total_loss",
                                  "linear_pair", "linear_pair_stacked"])
def test_node_gradients_100_seeds(name):
    for seed in range(100):
        op, params = _node_case(name, np.random.default_rng(3000 + seed))

        def run(params, op=op, seed=seed):
            tape = cv.Tape()
            return tape, _project(op({k: tape.param(v, k) for k, v in params.items()}), seed)

        tape, loss = run(params)
        grads = tape.backward(loss)
        fd = central_diff(lambda p: float(run(p)[1].data), params)
        assert block_relative_error(fd, grads) < 1e-5, f"{name} seed {seed}"


@pytest.mark.parametrize("name", ["linear", "linear_pair", "linear_pair_stacked",
                                  "complex_re", "complex_im", "complex_re_stacked",
                                  "complex_im_stacked"])
def test_fused_relu_bit_identical_to_separate_relu_node(name):
    # the node with its ReLU against the node without it followed by the
    # separate ReLU node it replaced: max(y, 0) forward, and g * (y > 0) on
    # the way back, here folded into the probe's weights
    for seed in range(20):
        fused_op, params = _node_case(name + "_relu", np.random.default_rng(seed))
        op, _ = _node_case(name, np.random.default_rng(seed))
        tape, plain_tape = cv.Tape(), cv.Tape()
        out = fused_op({k: tape.param(v, k) for k, v in params.items()})
        pre = op({k: plain_tape.param(v, k) for k, v in params.items()})
        upstream = np.random.default_rng(10_000 + seed).standard_normal(out.shape)
        grads = tape.backward(weighted_sum(out, upstream))
        want = plain_tape.backward(weighted_sum(pre, upstream * (pre.data > 0)))
        assert out.relu and not pre.relu
        assert np.array_equal(out.data, np.maximum(pre.data, 0.0)), seed
        for k in params:
            assert np.array_equal(grads[k], want[k]), (k, seed)


# (m, in, out), then the layers of the spectral networks (784 and 1568
# wide inputs, 10 classes) and two stacked [E, m, in] ensembles
@pytest.mark.parametrize("shape", [(32, 5, 64), (32, 64, 64), (32, 128, 2),
                                   (32, 784, 64), (32, 1568, 64), (32, 128, 10),
                                   (32, 64, 10), (2, 32, 784, 64), (5, 32, 64, 64)])
# every layer has its bias; the one-value parameter keeps the cases' ids
@pytest.mark.parametrize("bias", [True])
def test_linear_bit_identical_to_transpose_matmul_add_bias(shape, bias):
    *lead, m, d_in, d_out = shape
    g = np.random.default_rng(d_in * 1000 + d_out)
    x = g.standard_normal((*lead, m, d_in))
    w = in_out(g.standard_normal((*lead, d_out, d_in)))
    b = g.standard_normal((*lead, d_out))
    upstream = g.standard_normal((*lead, m, d_out))

    tape = cv.Tape()
    tx, tw, tb = tape.param(x, "x"), tape.param(w, "w"), tape.param(b, "b")
    out = ad.linear(tx, tw, tb)
    grads = tape.backward(weighted_sum(out, upstream))
    # each stacked member against the 2-D chain on its own slices
    for e in np.ndindex(*lead):
        ref_value, ref_grads = linear_chain_reference(x[e], w[e], b[e], upstream[e], bias)
        assert np.array_equal(out.data[e], ref_value)
        for name in ("x", "w", "b"):
            assert np.array_equal(grads[name][e], ref_grads[name]), name


def _linear_pair(xr, xi, w, b, upstream, joined=False):
    """Value and gradients of ``linear`` over (xr, xi), as a pair or, with
    ``joined``, over their concatenation as one constant input."""
    tape = cv.Tape()
    tw, tb = tape.param(w, "w"), tape.param(b, "b")
    if joined:
        out = ad.linear(ad.constant(np.concatenate([xr, xi], axis=-1)), tw, tb)
    else:
        out = ad.linear((tape.param(xr, "xr"), tape.param(xi, "xi")), tw, tb)
    return out.data, tape.backward(weighted_sum(out, upstream))


# (m, n_r, n_i, out): rvnn's first layer at the channel (dN = 5) and spectral
# (784) widths, uneven blocks, and stacked [E, m, n] ensembles of 2 and 5
@pytest.mark.parametrize("shape", [(32, 5, 5, 64), (32, 784, 784, 64), (3, 4, 2, 5),
                                   (2, 32, 784, 784, 64), (5, 32, 5, 5, 64)])
def test_linear_pair_form_bit_identical_to_hand_computed(shape):
    *lead, m, nr, ni, d_out = shape
    g = np.random.default_rng(nr * 1000 + ni + d_out + len(lead))
    xr, xi = g.standard_normal((*lead, m, nr)), g.standard_normal((*lead, m, ni))
    w = in_out(g.standard_normal((*lead, d_out, nr + ni)))
    b = g.standard_normal((*lead, d_out))
    upstream = g.standard_normal((*lead, m, d_out))
    value, grads = _linear_pair(xr, xi, w, b, upstream)
    for e in np.ndindex(*lead):
        we, u = w[e], upstream[e]
        assert np.array_equal(value[e], xr[e] @ we[:nr] + b[e] + xi[e] @ we[nr:])
        ref = {"xr": u @ we[:nr].T, "xi": u @ we[nr:].T,
               "w": np.concatenate([u.T @ xr[e], u.T @ xi[e]], axis=1).T,
               "b": np.add.reduce(u, axis=0)}
        for name, r in ref.items():
            assert np.array_equal(grads[name][e], r), name
        if lead:  # a stacked member rounds as it would alone
            solo_value, solo_grads = _linear_pair(xr[e], xi[e], w[e], b[e], u)
            assert np.array_equal(value[e], solo_value)
            for name, r in solo_grads.items():
                assert np.array_equal(grads[name][e], r), name
    # the joined input's one product over n_r + n_i columns rounds differently
    joined_value, joined_grads = _linear_pair(xr, xi, w, b, upstream, joined=True)
    assert np.abs(value - joined_value).max() <= 1e-12 * np.abs(joined_value).max()
    for name in ("w", "b"):
        scale = np.abs(joined_grads[name]).max()
        assert np.abs(grads[name] - joined_grads[name]).max() <= 1e-12 * scale, name


@pytest.mark.parametrize("lead", [(), (3,)])
@pytest.mark.parametrize("relu", [False, True])
def test_linear_one_block_is_the_lone_tensor(lead, relu):
    g = np.random.default_rng(len(lead) + 2 * relu)
    params = {"x": g.standard_normal((*lead, 7, 4)),
              "w": in_out(g.standard_normal((*lead, 5, 4))),
              "b": g.standard_normal((*lead, 5))}
    upstream = g.standard_normal((*lead, 7, 5))
    runs = []
    for wrap in (lambda x: x, lambda x: (x,)):
        tape = cv.Tape()
        t = {k: tape.param(v, k) for k, v in params.items()}
        out = ad.linear(wrap(t["x"]), t["w"], t["b"], relu)
        runs.append((out.data, tape.backward(weighted_sum(out, upstream))))
    (value, grads), (block_value, block_grads) = runs
    assert np.array_equal(block_value, value)
    for k in params:
        assert np.array_equal(block_grads[k], grads[k]), k


def test_linear_pair_shape_mismatch():
    w, b = ad.constant(np.ones((5, 4))), ad.constant(np.ones(4))
    x1, x2, x3 = (ad.constant(np.ones((2, n))) for n in (1, 2, 3))
    ad.linear((x2, x3), w, b)  # widths 2 + 3 split w's 5 input rows
    # widths that do not add up, rows or axes that differ, none, and three
    # blocks whose widths 2 + 2 + 1 do split the 5 rows: one block or a pair
    for pair in [(x3, x3), (x2, x2), (x2, ad.constant(np.ones((3, 3)))),
                 (x2, ad.constant(np.ones((1, 2, 3)))), (), (x2, x2, x1)]:
        with pytest.raises(ShapeError):
            ad.linear(pair, w, b)


# 2-D operands, the recipe batch shapes, and stacked [E, m, n] ensembles; the
# 50 members of 3 x 5 give many weights whose g * (1 / 15) and g / 15 differ
@pytest.mark.parametrize("shape", [(3, 4), (32, 2), (32, 64), (2, 32, 2), (5, 32, 64),
                                   (50, 3, 5)])
def test_mean_sq_diff_bit_identical_to_sub_mul_mean_chain(shape):
    g = np.random.default_rng(sum(shape))
    a, b = g.standard_normal(shape), g.standard_normal(shape)
    upstream = g.standard_normal(shape[:-2])  # one weight per stacked member

    tape = cv.Tape()
    ta, tb = tape.param(a, "a"), tape.param(b, "b")
    out = ad.mean_sq_diff(ta, tb)
    grads = tape.backward(weighted_sum(out, upstream))
    ref_value, ref_grads = sq_diff_chain_reference(a, b, upstream)
    assert out.data.shape == shape[:-2]
    assert np.array_equal(out.data, ref_value)
    for name in ("a", "b"):
        assert np.array_equal(grads[name], ref_grads[name]), name


@pytest.mark.parametrize("on_tape", ["a", "b"])
def test_mean_sq_diff_one_operand_on_the_tape(on_tape):
    # b's gradient is the negation of a's, computed once per backward; it
    # must not depend on a being on the tape
    g = np.random.default_rng(11)
    a, b = g.standard_normal((32, 64)), g.standard_normal((32, 64))
    upstream = g.standard_normal(())
    tape = cv.Tape()
    ta = tape.param(a, "a") if on_tape == "a" else ad.constant(a)
    tb = tape.param(b, "b") if on_tape == "b" else ad.constant(b)
    grads = tape.backward(weighted_sum(ad.mean_sq_diff(ta, tb), upstream))
    assert list(grads) == [on_tape]
    assert np.array_equal(grads[on_tape], sq_diff_chain_reference(a, b, upstream)[1][on_tape])


def test_mean_sq_diff_shape_mismatch():
    with pytest.raises(ShapeError):
        ad.mean_sq_diff(ad.constant(np.ones((2, 3))), ad.constant(np.ones((2, 4))))
    with pytest.raises(ShapeError):
        ad.mean_sq_diff(ad.constant(np.ones(3)), ad.constant(np.ones(3)))


def test_linear_shape_mismatch():
    x, w = ad.constant(np.ones((2, 3))), ad.constant(np.ones((2, 4)))
    with pytest.raises(ShapeError):
        ad.linear(x, w, ad.constant(np.ones(4)))
    with pytest.raises(ShapeError):
        ad.linear(x, ad.constant(np.ones((3, 4))), ad.constant(np.ones(3)))


def test_linear_requires_a_bias():
    with pytest.raises(TypeError):
        ad.linear(ad.constant(np.ones((2, 3))), ad.constant(np.ones((3, 4))))


def test_dropped_tape_is_freed_without_cyclic_gc():
    gc.disable()
    try:
        tape = cv.Tape()
        x = tape.param(np.ones((2, 3)), "x")
        out = ad.linear(x, tape.param(np.ones((3, 2)), "w"), ad.constant(np.zeros(2)),
                        relu=True)
        loss = weighted_sum(out, np.ones(out.shape))
        tape.backward(loss)
        ref = weakref.ref(tape)
        del tape
        assert ref() is None
        assert loss._tape() is None  # tensors outlive their tape without keeping it
    finally:
        gc.enable()


def test_leaf_binds_float64_arrays_without_copying():
    arr = np.arange(6.0).reshape(2, 3)
    t = cv.Tape().param(arr, "x")
    assert np.shares_memory(t.data, arr) and not t.data.flags.writeable
    assert arr.flags.writeable  # the caller's array stays writable
    converted = cv.Tape().param(np.arange(6).reshape(2, 3), "x")  # int: copied
    assert converted.data.dtype == np.float64
