"""The four architectures: RVNN, CVNN, and the dual-subnetwork pair.

All are small fully connected networks over paired real/imaginary
feature matrices; a complex output is one [.., 2k] array, the k real
parts then the k imaginary parts. "steinmetz" runs separate two-layer
ReLU subnetworks on the real and imaginary channels, mean-centers each
latent row, and feeds both latents, read in place, to a shared linear
head. "analytic" is the same forward graph; it differs only in
training, where the Hilbert consistency penalty is added to the loss.
"rvnn" treats the two channels as one real vector, its first layer
reading both blocks in place; "cvnn" uses complex linear layers (kept
as real weight pairs, one tape node per hidden part and one for the
[yr | yi] head, recorded here like its one-node magnitude head) with
ReLU applied independently to each part.

Every hidden layer's ReLU runs in place inside its affine node (the
``relu`` of ``ad.linear`` and ``_complex_affine``), so a layer is one
node and one activation-sized array. Off the tape, cvnn's complex layer
frees each input part after its last product, so it holds at most four
activation-sized arrays.

Each forward product goes through ``ad.matmul``, which computes a large
product's two row halves on two threads, bit for bit the whole product,
into the array the whole product would allocate: an evaluation over
thousands of rows uses a second CPU and allocates nothing more (cvnn's
layer still holds at most four), and a 32-row training batch starts no
thread.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from typing import Optional

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor, record_op
from .data import TASKS, json_field, parse_json_object, read_array
from .errors import ContractError, DataError, ShapeError
from .rng import Rng

KINDS = ("rvnn", "cvnn", "steinmetz", "analytic")

MAGNITUDE_EPS = 1e-12  # under the sqrt of the CVNN magnitude head

CHECKPOINT_FORMAT = "cvlearn-checkpoint-v2"


@dataclass(frozen=True)
class NetworkSpec:
    kind: str
    input_dim: int
    latent_dim: int
    output_dim: int
    task: str

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ContractError(f"unknown architecture kind: {self.kind!r}")
        if self.task not in TASKS:
            raise ContractError(f"unknown task: {self.task!r}")
        if self.input_dim < 1 or self.latent_dim < 1 or self.output_dim < 1:
            raise ContractError("network dimensions must be positive")
        if self.latent_dim % 2 != 0:
            raise ContractError(
                f"latent_dim must be even for the Hilbert penalty, got {self.latent_dim}")

    @property
    def head_width(self) -> int:
        """Output width of the final real layer: k logits, or 2k stacked
        (re, im) values for complex regression."""
        if self.task == "classification":
            return self.output_dim
        return 2 * self.output_dim

    def check_fits(self, ds, what: str) -> None:
        """Raise DataError, naming ``what`` and both sides, unless the dataset
        fits this network: the same task and feature width dN, and k equal to
        output_dim, or for classification at most output_dim (a split may
        lack the last classes; a Dataset's class ids are below its k)."""
        k_fits = (ds.k <= self.output_dim if ds.task == "classification"
                  else ds.k == self.output_dim)
        if (ds.task, ds.dn) != (self.task, self.input_dim) or not k_fits:
            raise DataError(f"{what} (task {ds.task}, dN={ds.dn}, k={ds.k}) does not fit "
                            f"the network (task {self.task}, dN={self.input_dim}, "
                            f"k={self.output_dim})")


@dataclass
class Model:
    """A network's parameters, bound by ``ad.real_array`` as read-only views
    in the spec's declared order and shape, or construction raises DataError
    (forward binds them unchecked). An ensemble's carry a leading [E] axis."""
    spec: NetworkSpec
    params: dict[str, np.ndarray]

    def __post_init__(self):
        self.params = {name: ad.real_array(p, f"parameter {name}")
                       for name, p in self.params.items()}
        got = [(name, p.shape) for name, p in self.params.items()]
        lead = got[0][1][:-2] if got else ()  # every layout starts with a weight matrix
        want = [(name, lead + shape) for name, shape in _param_shapes(self.spec).items()]
        if len(lead) > 1 or got != want:
            raise DataError(f"parameters {got} do not match the spec's layout {want}")


@dataclass
class LatentPair:
    """Mean-centered latent channels of the dual-subnetwork forward pass."""
    z_re: Tensor
    z_im: Tensor


@dataclass
class ForwardResult:
    pred: Tensor
    latent_pair: Optional[LatentPair] = None  # steinmetz/analytic (centered), cvnn (raw)
    latent: Optional[Tensor] = None           # rvnn joint latent [b, 2*latent_dim]


def _param_shapes(spec: NetworkSpec) -> dict[str, tuple]:
    """Parameter names and shapes in declared (serialization) order; each
    weight is [in, out], the layout ``x @ w`` reads."""
    dn, ln, out = spec.input_dim, spec.latent_dim, spec.head_width
    if spec.kind == "rvnn":
        return {
            "fc1.w": (2 * dn, ln), "fc1.b": (ln,),
            "fc2.w": (ln, 2 * ln), "fc2.b": (2 * ln,),
            "fc3.w": (2 * ln, out), "fc3.b": (out,),
        }
    if spec.kind == "cvnn":
        k = spec.output_dim
        shapes = {}
        for name, (i, o) in (("fc1", (dn, ln)), ("fc2", (ln, ln)), ("fc3", (ln, k))):
            shapes[f"{name}.wr"] = (i, o)
            shapes[f"{name}.wi"] = (i, o)
            shapes[f"{name}.br"] = (o,)
            shapes[f"{name}.bi"] = (o,)
        return shapes
    # steinmetz / analytic share one parameterization
    return {
        "realfc1.w": (dn, ln), "realfc1.b": (ln,),
        "realfc2.w": (ln, ln), "realfc2.b": (ln,),
        "imagfc1.w": (dn, ln), "imagfc1.b": (ln,),
        "imagfc2.w": (ln, ln), "imagfc2.b": (ln,),
        "regressor.w": (2 * ln, out), "regressor.b": (out,),
    }


def init_params(spec: NetworkSpec, seed: int) -> Model:
    """Weights uniform in [-1/sqrt(fan_in), 1/sqrt(fan_in)], biases zero.

    Each parameter draws from its own named substream, so initialization
    is deterministic per (spec, seed) and independent of evaluation order.
    A weight draws its values in [out, in] order and stores their
    transpose. Raises MemoryError for a parameter too large to allocate.
    """
    root = Rng(seed)
    params = {}
    for name, shape in _param_shapes(spec).items():
        if len(shape) == 1:
            params[name] = np.zeros(shape)
        else:
            bound = 1.0 / np.sqrt(shape[0])
            draw = root.substream(f"init/{name}").uniform(-bound, bound, shape[::-1])
            params[name] = draw.T.copy()
    return Model(spec=spec, params=params)


def param_views(flat: np.ndarray, shapes: dict[str, tuple]) -> dict[str, np.ndarray]:
    """``flat``, made read-only, cut in order into C-order views of ``shapes``."""
    flat.setflags(write=False)
    views, end = {}, 0
    for name, shape in shapes.items():
        start, end = end, end + math.prod(shape)
        views[name] = flat[start:end].reshape(shape)
    return views


def param_count(model: Model) -> int:
    return sum(p.size for p in model.params.values())


def _rvnn(spec: NetworkSpec, p: dict, xr: Tensor, xi: Tensor) -> ForwardResult:
    """Joint processing of both channels as one real vector; latent width
    2*latent_dim. The first layer reads the two channel blocks in place
    (``linear``'s pair form), so the joined [m, 2*dN] input is never built."""
    latent = ad.linear(ad.linear((xr, xi), p["fc1.w"], p["fc1.b"], relu=True),
                       p["fc2.w"], p["fc2.b"], relu=True)
    return ForwardResult(pred=ad.linear(latent, p["fc3.w"], p["fc3.b"]), latent=latent)


def _complex_affine(xs: list, p: dict, layer: str, relu: bool = False):
    """(yr + i yi) = (xr + i xi)(wr + i wi) + (br + i bi), with
    ``yr = xr @ wr + br - xi @ wi`` and ``yi = xi @ wr + bi + xr @ wi``.
    Takes ``[xr, xi]`` in a list that it empties. A hidden layer (``relu``)
    returns ``[yr, yi]``, one tape node per part, the real part first; the
    head returns one node, ``yr`` and ``yi`` written into the halves of its
    [.., m, 2 out] value, which lists the imaginary part's parents
    ``(xi, xr, wr, wi, bi)`` and then the real part's ``(xr, xi, wr, wi,
    br)``, each with its part's VJPs fed its half of the gradient. Backward
    sums a repeated parent's contributions in list order, the imaginary
    part's first, as it summed two part nodes'.

    Each part is ``linear``'s two-block form, its shapes checked by the same
    rule: ``yr`` over ``(xr, xi)`` against ``[wr; -wi]`` and ``yi`` over
    ``(xi, xr)`` against ``[wr; wi]``. Each weight gradient is ``x.T @ g``
    and the cross term's gradient is ``-g`` or ``g``, so values and
    gradients match two ``linear`` nodes joined by ``-`` or ``+`` bit for
    bit. With ``relu``, each part is ``max(y, 0)`` applied in place to its
    own fresh sum, and backward masks its gradient by that output, as in
    ``linear``.

    The products run as ``xr @ wr``, ``xr @ wi``, ``xi @ wi``, ``xi @ wr``.
    Off a tape nothing else holds an input once ``xs`` is emptied, so each
    is freed after its second product: at most four [m, out] arrays are
    live.
    """
    wr, wi, br, bi = (p[f"{layer}.{n}"] for n in ("wr", "wi", "br", "bi"))
    for i, w, b in ((0, wr, br), (1, wi, bi), (1, wr, bi)):  # all four weights agree
        ad.check_affine(xs[i:i + 1], w, b)
    ins = tuple(xs) if ad.find_tape((*xs, wr, wi, br, bi)) is not None else ()
    ar, ai = (x.data for x in xs)
    xs.clear()
    n = wr.shape[-1]
    head = None if relu else np.empty(ar.shape[:-1] + (2 * n,))
    yr = ad.matmul(ar, wr.data, out=None if relu else head[..., :n])
    yr += br.data[..., None, :]
    q = ad.matmul(ar, wi.data)
    del ar
    np.subtract(yr, ad.matmul(ai, wi.data), out=yr)  # negation is exact
    yi = ad.matmul(ai, wr.data, out=None if relu else head[..., n:])
    del ai
    yi += bi.data[..., None, :]
    np.add(yi, q, out=yi)
    if not ins:
        if relu:
            return [record_op("complex_affine", y, (), (), True) for y in (yr, yi)]
        return record_op("complex_affine", head, (), ())

    def part(x1: Tensor, x2: Tensor, cross) -> tuple:
        # VJPs of x1 @ wr + b + cross(x2 @ wi) to (x1, x2, wr, wi, b)
        x1t, x2t = x1.data.swapaxes(-1, -2), x2.data.swapaxes(-1, -2)
        return (lambda g: g @ wr.data.swapaxes(-1, -2),
                lambda g: cross(g) @ wi.data.swapaxes(-1, -2),
                lambda g: x1t @ g,
                lambda g: x2t @ cross(g),
                lambda g: np.add.reduce(g, axis=-2))

    xr, xi = ins
    re, im = part(xr, xi, np.negative), part(xi, xr, lambda g: g)
    if relu:
        return [record_op("complex_affine", yr, (xr, xi, wr, wi, br), re, True),
                record_op("complex_affine", yi, (xi, xr, wr, wi, bi), im, True)]
    return record_op("complex_affine", head, (xi, xr, wr, wi, bi, xr, xi, wr, wi, br),
                     [lambda g, v=v: v(g[..., n:]) for v in im]
                     + [lambda g, v=v: v(g[..., :n]) for v in re])


def _magnitude(y: Tensor) -> Tensor:
    """Per-class magnitude ``sqrt(yr*yr + yi*yi + eps)`` of the complex
    pair ``y = [yr | yi]`` as one tape node; eps keeps it differentiable
    at zero. Each part's gradient is ``t + t`` with
    ``t = g * (0.5 / value) * y``, the square's two operand paths summed,
    bit for bit what the multiply, add and sqrt chain accumulated
    (doubling is exact, so ``t * 2.0`` is ``t + t``)."""
    n = y.shape[-1] // 2
    yr, yi = y.data[..., :n], y.data[..., n:]
    value = np.sqrt(yr * yr + yi * yi + MAGNITUDE_EPS)
    return record_op("magnitude", value, (y,),
                     (lambda g: np.tile(g * (0.5 / value), 2) * y.data * 2.0,))


def _cvnn(spec: NetworkSpec, p: dict, xr: Tensor, xi: Tensor) -> ForwardResult:
    """Complex layers; the regression output is the head's ``[yr | yi]``
    and the classification head its per-class magnitude. Layer 1's outputs
    pass to layer 2 in the list it empties, so a pass off the tape frees
    each after its last product."""
    zr, zi = _complex_affine(_complex_affine([xr, xi], p, "fc1", relu=True), p, "fc2",
                             relu=True)
    y = _complex_affine([zr, zi], p, "fc3")
    pred = _magnitude(y) if spec.task == "classification" else y
    return ForwardResult(pred=pred, latent_pair=LatentPair(z_re=zr, z_im=zi))


def _steinmetz(spec: NetworkSpec, p: dict, xr: Tensor, xi: Tensor) -> ForwardResult:
    """Separate subnetworks per channel, mean-centered latents, shared head.
    No local holds a branch's activations, so a pass off the tape frees
    each once the next op has read it."""
    def branch(x: Tensor, part: str) -> Tensor:
        w1, b1, w2, b2 = (p[f"{part}{name}"] for name in ("fc1.w", "fc1.b", "fc2.w", "fc2.b"))
        return ad.mean_center_rows(ad.linear(ad.linear(x, w1, b1, relu=True), w2, b2, relu=True))

    z_re, z_im = branch(xr, "real"), branch(xi, "imag")
    pred = ad.linear((z_re, z_im), p["regressor.w"], p["regressor.b"])
    return ForwardResult(pred=pred, latent_pair=LatentPair(z_re=z_re, z_im=z_im))


# analytic is the steinmetz graph; only its training loss differs
_BODIES = {"rvnn": _rvnn, "cvnn": _cvnn, "steinmetz": _steinmetz, "analytic": _steinmetz}


def forward(model: Model, x_re, x_im, tape: Optional[Tape] = None) -> ForwardResult:
    """The forward pass of every architecture, used by training and evaluation.

    Inputs enter as constants, given no gradient, so backward stops at
    the first layer. Arrays bind through ``ad.constant``'s input rule,
    without copying; constant Tensors (``ad.trusted_constant`` over a
    Dataset's checked features) are used as they are. Parameters bind to ``tape``;
    with no tape (evaluation) they bind as trusted constants, checked when
    the Model was built, and the pass builds no graph: each activation is
    freed once the next op has read it. Each hidden layer's ReLU runs in
    place on its affine node's product, so a layer allocates one
    activation, on a tape or off.
    """
    spec = model.spec
    xr, xi = (x if isinstance(x, Tensor) else ad.constant(x, name)
              for x, name in ((x_re, "x_re"), (x_im, "x_im")))
    # [m, dN] inputs, or [E, m, dN] for an ensemble
    if xr.ndim not in (2, 3) or xr.shape != xi.shape:
        raise ShapeError(
            f"inputs must be matching 2-D (or stacked 3-D) arrays, "
            f"got {xr.shape} and {xi.shape}")
    if xr.shape[-1] != spec.input_dim:
        raise ShapeError(
            f"input feature width {xr.shape[-1]} != network input_dim {spec.input_dim}")
    p = {name: ad.trusted_constant(arr) if tape is None else tape.param(arr, name)
         for name, arr in model.params.items()}
    return _BODIES[spec.kind](spec, p, xr, xi)


def latent_channels(result: ForwardResult) -> tuple[np.ndarray, np.ndarray]:
    """Latent (re, im) channel arrays of a forward pass, for diagnostics.

    rvnn has one joint latent; its first/second halves are reported as
    the channel split.
    """
    if result.latent_pair is not None:
        return result.latent_pair.z_re.data, result.latent_pair.z_im.data
    half = result.latent.shape[-1] // 2
    return result.latent.data[..., :half], result.latent.data[..., half:]


# ---------------------------------------------------------------------------
# checkpoints: one JSON header line, then raw little-endian float64 blobs
# in declared parameter order and shape, each weight [in, out]


def save_checkpoint(model: Model, path, seed: int, epoch: int) -> None:
    """Write one network; a stacked ensemble raises ContractError. Each
    parameter is written whole, from its own buffer when it is in C order,
    as in every Model that cvlearn builds."""
    if [p.shape for p in model.params.values()] != list(_param_shapes(model.spec).values()):
        raise ContractError("save_checkpoint writes one network, not a stacked ensemble")
    header = {
        "format": CHECKPOINT_FORMAT,
        "spec": asdict(model.spec),
        "seed": int(seed),
        "epoch": int(epoch),
        "params": [{"name": n, "shape": list(p.shape)}
                   for n, p in model.params.items()],
        "dtype": "f64", "endianness": "little",
    }
    with open(path, "wb") as f:
        f.write(json.dumps(header).encode("utf-8") + b"\n")
        for p in model.params.values():
            f.write(np.ascontiguousarray(p, "<f8"))


def _header_spec(header: dict) -> NetworkSpec:
    spec = json_field(header, "spec", dict, "checkpoint header")
    # the annotations are strings under postponed evaluation
    kinds = {"str": str, "int": int}
    values = {f.name: json_field(spec, f.name, kinds[f.type], "checkpoint header", "spec.")
              for f in fields(NetworkSpec)}
    try:
        return NetworkSpec(**values)
    except ContractError as e:
        raise DataError(f"checkpoint header: field spec: {e}") from None


def load_checkpoint(path) -> tuple[Model, dict]:
    """Returns (model, header), the parameters read-only views of one buffer
    the blob is read into. Raises DataError on malformed files."""
    with open(path, "rb") as f:
        header = parse_json_object(f.readline(), "checkpoint header")
        if header.get("format") != CHECKPOINT_FORMAT:
            raise DataError(f"unexpected checkpoint format: {header.get('format')!r}")
        if (header.get("dtype"), header.get("endianness")) != ("f64", "little"):
            raise DataError("checkpoint header: only f64 little-endian parameters are supported")
        spec = _header_spec(header)
        listed = []
        for i, entry in enumerate(json_field(header, "params", list, "checkpoint header")):
            name = json_field(entry, "name", str, "checkpoint header", f"params[{i}].")
            shape = json_field(entry, "shape", list, "checkpoint header", f"params[{i}].")
            if not all(isinstance(d, int) and not isinstance(d, bool) for d in shape):
                raise DataError(f"checkpoint header: field params[{i}].shape "
                                "must be a list of integers")
            listed.append((name, tuple(shape)))
        shapes = _param_shapes(spec)
        if listed != list(shapes.items()):
            raise DataError(f"checkpoint header: field params lists {listed}, not the "
                            f"spec's {list(shapes.items())}")
        flat = read_array(f, "checkpoint blob", "<f8", (sum(map(math.prod, shapes.values())),))
    return Model(spec=spec, params=param_views(flat, shapes)), header
