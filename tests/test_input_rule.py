"""One input rule at the library boundary (``autodiff.real_array``).

Every public array argument binds through one check: ragged, complex,
string, object and non-finite input is refused with a DataError that
names the argument, before numpy can drop an imaginary part, misread a
string or turn None into NaN. Valid inputs keep every bit.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

import cvlearn as cv
from cvlearn import autodiff as ad
from cvlearn import diagnostics as dg
from cvlearn import transforms as tr
from cvlearn.errors import ContractError, DataError, ShapeError, ValidationError
from cvlearn.models import ForwardResult

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
hnp = pytest.importorskip("hypothesis.extra.numpy")

CVLEARN_ERRORS = (ContractError, DataError, ShapeError, ValidationError)

HILBERT = ["hilbert_freq", "hilbert_adjoint_rows_array", "dht_cotangent", "analytic_signal"]
TRANSFORMS = ["dft_array", "dft_direct_array"] + HILBERT


def refused(call, name: str, error=DataError):
    """``call()`` raises ``error`` naming ``name``, with no numpy warning first."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=name):
            call()


def _model(kind: str, members: int = 0) -> cv.Model:
    model = cv.init_params(cv.NetworkSpec(kind, 4, 6, 3, "classification"), 1)
    if members:
        return cv.Model(model.spec, {k: np.stack([p] * members) for k, p in model.params.items()})
    return model


def _signals(shape=(3, 8), seed=0) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal(shape)


# ---------------------------------------------------------------------------
# the rule itself


def test_real_array_views_float64_c_order_input_and_converts_the_rest():
    x = _signals()
    view = ad.real_array(x, "x")
    assert np.shares_memory(view, x) and not view.flags.writeable and x.flags.writeable
    fortran = np.asfortranarray(x)
    for given in (x.astype(np.float32), x.tolist(), fortran):
        out = ad.real_array(given, "x")
        assert out.flags.c_contiguous and not out.flags.writeable
        assert np.array_equal(out, np.asarray(given, dtype=np.float64))
    assert ad.real_array(np.float64(2.5), "x").shape == ()  # a 0-d input stays 0-d
    ids = ad.real_array(np.arange(3), "labels", None)
    assert ids.dtype == np.int64


@pytest.mark.parametrize("bad, message", [
    ([[1.0, 2.0], [3.0]], "x must be a rectangular array"),
    (np.ones(3) + 1j, "x must hold real numbers, got dtype complex128"),
    (np.array(["1.0", "2.0"]), "x must hold real numbers, got dtype <U3"),
    (np.array([None, 1.0]), "x must hold real numbers, got dtype object"),
    (np.array([1.0, np.nan]), "x contains non-finite values"),
    (np.array([-np.inf, 1.0]), "x contains non-finite values"),
])
def test_real_array_refuses_what_numpy_would_misread(bad, message):
    refused(lambda: ad.real_array(bad, "x"), message)


# ---------------------------------------------------------------------------
# refusals that passed silently or raised numpy's own error before the rule


@pytest.mark.parametrize("kind", ["rvnn", "cvnn", "steinmetz", "analytic"])
@pytest.mark.parametrize("bad", ["complex", "string"])
def test_forward_refuses_complex_or_string_x_re(kind, bad):
    model, x = _model(kind), _signals((5, 4))
    x_re = x + 1j if bad == "complex" else x.astype(str)
    refused(lambda: cv.forward(model, x_re, x), "x_re")
    refused(lambda: cv.forward(model, x, x_re), "x_im")
    # valid inputs keep their bits, whatever container or dtype they come in
    ref = cv.forward(model, ad.trusted_constant(x), ad.trusted_constant(x)).pred.data
    for given in (x, x.tolist(), np.asfortranarray(x)):
        assert np.array_equal(cv.forward(model, given, given).pred.data, ref)


@pytest.mark.parametrize("kind", ["rvnn", "cvnn", "steinmetz", "analytic"])
def test_model_refuses_a_complex_parameter(kind):
    model = _model(kind)
    name = next(iter(model.params))
    params = dict(model.params, **{name: model.params[name] + 1j})
    refused(lambda: cv.Model(model.spec, params), f"parameter {name}")
    nan = dict(model.params, **{name: np.full_like(model.params[name], np.nan)})
    refused(lambda: cv.Model(model.spec, nan), f"parameter {name} contains non-finite")
    # a valid parameter dict is kept as read-only views of the caller's arrays
    given = {k: p.copy() for k, p in model.params.items()}
    rebuilt = cv.Model(model.spec, given)
    for k, p in rebuilt.params.items():
        assert np.shares_memory(p, given[k]) and not p.flags.writeable
        assert np.array_equal(p, model.params[k]) and given[k].flags.writeable


@pytest.mark.parametrize("transform", HILBERT)
def test_hilbert_transforms_refuse_complex_input(transform):
    f, z = getattr(tr, transform), _signals()
    arg = {"hilbert_adjoint_rows_array": "g", "dht_cotangent": "x",
           "analytic_signal": "x"}.get(transform, "z")
    refused(lambda: f(z + 1j), f"{arg} must hold real numbers")
    refused(lambda: f(z.astype(str)), f"{arg} must hold real numbers")
    refused(lambda: f(np.where(z > 1, np.inf, z)), f"{arg} contains non-finite")
    assert np.array_equal(f(z.tolist()), f(z))
    assert np.array_equal(f(z.astype(np.float32)), f(z.astype(np.float32).astype(np.float64)))


def test_mse_refuses_a_complex_target():
    pred = ad.constant(_signals())
    refused(lambda: cv.mse(pred, _signals() + 1j), "target must hold real numbers")
    assert np.array_equal(cv.mse(pred, _signals().tolist()).data,
                          cv.mse(pred, ad.trusted_constant(_signals())).data)


@pytest.mark.parametrize("diagnostic", ["latent_orthogonality", "latent_orthogonality_counted",
                                        "covariance_comparison"])
def test_latent_diagnostics_refuse_a_nan_row(diagnostic):
    # a NaN row was once skipped as a zero row: 0.9999999999999998 from 3 rows
    f = getattr(dg, diagnostic)
    z_re, z_im = _signals((3, 4), 1), _signals((3, 4), 2)
    nan_row = z_re.copy()
    nan_row[1] = np.nan
    refused(lambda: f(nan_row, z_im), "z_re contains non-finite")
    refused(lambda: f(z_re, nan_row), "z_im contains non-finite")
    refused(lambda: f(z_re + 1j, z_im), "z_re must hold real numbers")
    assert f(z_re.tolist(), z_im.tolist()) == f(z_re, z_im)


@pytest.mark.parametrize("metric, width", [("accuracy", 3), ("mse_metric", 2),
                                           ("mag_phase_mse", 2)])
def test_metrics_refuse_zero_rows(metric, width):
    f = getattr(dg, metric)
    target = np.zeros(0, dtype=np.int64) if metric == "accuracy" else np.zeros((0, width))
    name = "pred_logits" if metric == "accuracy" else "pred"
    refused(lambda: f(np.zeros((0, width)), target), f"{name} is empty")
    pred = _signals((4, width))
    target = np.array([0, 2, 1, 1]) if metric == "accuracy" else _signals((4, width), 1)
    assert f(pred.tolist(), target.tolist()) == f(pred, target)


@pytest.mark.parametrize("transform", ["dft_array", "dft_direct_array"])
@pytest.mark.parametrize("bad", [np.array(["1", "2", "3"]), np.array([None, None, None]),
                                 np.array([1.0, np.nan, 2.0])])
def test_dfts_refuse_string_object_and_non_finite_input(transform, bad):
    refused(lambda: getattr(tr, transform)(bad), "z ")
    z = _signals((2, 6)) + 1j * _signals((2, 6), 1)
    f = getattr(tr, transform)
    assert np.array_equal(f(z.tolist()), f(z))
    assert np.array_equal(f(z.real.astype(np.int64)), f(z.real.astype(np.int64) + 0j))


# ---------------------------------------------------------------------------
# a bounded fuzzer over the public array functions

# Finite entries stay within 1e100, so a valid input's sums and squares
# cannot overflow: what a transform or a metric does with finite values
# near the float limit is a property of the computation, not of the rule
# that binds its input.
_FLOATS = st.one_of(st.floats(-1e100, 1e100),
                    st.sampled_from([math.nan, math.inf, -math.inf, 0.0]))
_OBJECTS = st.one_of(st.none(), _FLOATS, st.integers(-5, 5), st.text(max_size=2))
_DTYPES = ["?", "i1", "i8", "u8", "f2", "f4", "f8", "c8", "c16", "U3", "S3", "O", "M8[D]"]


def _elements(dtype: np.dtype):
    if dtype == np.float64:
        return _FLOATS
    if dtype == np.complex128:
        return st.builds(complex, _FLOATS, _FLOATS)
    if dtype.kind == "O":
        return _OBJECTS
    return hnp.from_dtype(dtype)


@st.composite
def _arrays(draw, shape=None):
    """An arbitrary-dtype array: 0-d, empty, stacked or plain, with
    non-finite entries; now and then a ragged list instead."""
    if draw(st.integers(0, 19)) == 0:
        return [[1.0, 2.0], [3.0]]
    dtype = np.dtype(draw(st.sampled_from(_DTYPES)))
    if shape is None:
        shape = draw(hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=8))
    return draw(hnp.arrays(dtype, shape, elements=_elements(dtype)))


def _shape_near(good: tuple):
    """Mostly the shape a function accepts, else any small shape."""
    return st.one_of(st.just(good), hnp.array_shapes(min_dims=0, max_dims=3, min_side=0,
                                                     max_side=8))


def _all_finite(result) -> bool:
    if isinstance(result, ForwardResult):
        pair = result.latent_pair
        tensors = (result.pred, result.latent) + ((pair.z_re, pair.z_im) if pair else ())
        return all(_all_finite(t.data) for t in tensors if t is not None)
    if isinstance(result, tuple):
        return all(map(_all_finite, result))
    return bool(np.isfinite(result).all())


def _finite_or_refused(call):
    """``call()`` returns an all-finite result or raises a cvlearn error;
    any numpy warning or other exception fails the test."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = call()
        except CVLEARN_ERRORS:
            return
    assert _all_finite(result), result


_MODELS = {(kind, members): _model(kind, members)
           for kind in ("rvnn", "cvnn", "steinmetz", "analytic") for members in (0, 2)}


@hypothesis.settings(max_examples=120, deadline=None)
@hypothesis.given(st.data())
def test_fuzz_forward(data):
    key = data.draw(st.sampled_from(sorted(_MODELS)))
    shape = data.draw(_shape_near((2, 3, 4) if key[1] else (3, 4)))
    x_re = data.draw(_arrays(shape))
    x_im = data.draw(st.one_of(_arrays(shape), _arrays()))
    _finite_or_refused(lambda: cv.forward(_MODELS[key], x_re, x_im))


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(st.sampled_from(TRANSFORMS), st.booleans(), st.data())
def test_fuzz_transforms(transform, inverse, data):
    z = data.draw(_arrays(data.draw(_shape_near((2, 8)))))
    f = getattr(tr, transform)
    _finite_or_refused(lambda: f(z, inverse) if transform.startswith("dft") else f(z))


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(st.sampled_from(["accuracy", "mse_metric", "mag_phase_mse",
                                   "latent_orthogonality", "latent_orthogonality_counted",
                                   "covariance_comparison"]), st.data())
def test_fuzz_diagnostics(diagnostic, data):
    shape = data.draw(_shape_near((4, 6)))
    a = data.draw(_arrays(shape))
    b = data.draw(st.one_of(_arrays(shape[:1] if diagnostic == "accuracy" else shape),
                            _arrays()))
    _finite_or_refused(lambda: getattr(dg, diagnostic)(a, b))


_DIM = st.one_of(st.integers(-3, 12), st.sampled_from([True, np.int64(3), np.uint8(2)]))
_SIZES = st.one_of(_DIM, st.tuples(), st.tuples(_DIM), st.tuples(_DIM, _DIM),
                   st.tuples(_DIM, _DIM, _DIM),
                   st.sampled_from([None, 2.0, "3", [2, 3], (2, 1.5), 1j]))


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(st.sampled_from(["u64", "uniform", "normal", "permutation"]), _SIZES)
def test_fuzz_rng_draw_sizes(draw, size):
    rng = cv.Rng(7)
    call = {"u64": lambda: rng.u64(size), "permutation": lambda: rng.permutation(size),
            "uniform": lambda: rng.uniform(-1.0, 1.0, size),
            "normal": lambda: rng.normal(size)}[draw]
    _finite_or_refused(call)
