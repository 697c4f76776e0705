"""The four architectures: RVNN, CVNN, and the dual-subnetwork pair.

All are small fully connected networks over paired real/imaginary
feature matrices. "steinmetz" runs separate two-layer ReLU subnetworks
on the real and imaginary channels, mean-centers each latent row, and
feeds the concatenation to a shared linear head. "analytic" is the same
forward graph; it differs only in training, where the Hilbert
consistency penalty is added to the loss. "rvnn" concatenates the
channels up front; "cvnn" uses complex linear layers (kept as real
weight pairs) with ReLU applied independently to each part.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor
from .errors import ContractError, DataError, ShapeError
from .rng import Rng

KINDS = ("rvnn", "cvnn", "steinmetz", "analytic")
TASKS = ("classification", "complex_regression")

MAGNITUDE_EPS = 1e-12  # under the sqrt of the CVNN magnitude head

CHECKPOINT_FORMAT = "cvlearn-checkpoint-v1"


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

    def to_dict(self) -> dict:
        return {"kind": self.kind, "input_dim": self.input_dim,
                "latent_dim": self.latent_dim, "output_dim": self.output_dim,
                "task": self.task}


@dataclass
class Model:
    """A network's parameters; training also holds an ensemble of E
    members as one Model whose parameters carry a leading [E] axis."""
    spec: NetworkSpec
    params: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        # forward binds parameters unchecked; training re-checks every update
        for name, p in self.params.items():
            if not np.isfinite(p).all():
                raise DataError(f"parameter {name!r} has non-finite values")


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
    """Parameter names and shapes in declared (serialization) order."""
    dn, ln, out = spec.input_dim, spec.latent_dim, spec.head_width
    if spec.kind == "rvnn":
        return {
            "fc1.w": (ln, 2 * dn), "fc1.b": (ln,),
            "fc2.w": (2 * ln, ln), "fc2.b": (2 * ln,),
            "fc3.w": (out, 2 * ln), "fc3.b": (out,),
        }
    if spec.kind == "cvnn":
        k = spec.output_dim
        shapes = {}
        for name, (o, i) in (("fc1", (ln, dn)), ("fc2", (ln, ln)), ("fc3", (k, ln))):
            shapes[f"{name}.wr"] = (o, i)
            shapes[f"{name}.wi"] = (o, i)
            shapes[f"{name}.br"] = (o,)
            shapes[f"{name}.bi"] = (o,)
        return shapes
    # steinmetz / analytic share one parameterization
    return {
        "realfc1.w": (ln, dn), "realfc1.b": (ln,),
        "realfc2.w": (ln, ln), "realfc2.b": (ln,),
        "imagfc1.w": (ln, dn), "imagfc1.b": (ln,),
        "imagfc2.w": (ln, ln), "imagfc2.b": (ln,),
        "regressor.w": (out, 2 * ln), "regressor.b": (out,),
    }


def init_params(spec: NetworkSpec, seed: int) -> Model:
    """Weights uniform in [-1/sqrt(fan_in), 1/sqrt(fan_in)], biases zero.

    Each parameter draws from its own named substream, so initialization
    is deterministic per (spec, seed) and independent of evaluation order.
    """
    root = Rng(seed)
    params = {}
    for name, shape in _param_shapes(spec).items():
        if len(shape) == 1:
            params[name] = np.zeros(shape)
        else:
            bound = 1.0 / np.sqrt(shape[1])
            params[name] = root.substream(f"init/{name}").uniform(-bound, bound, shape)
    return Model(spec=spec, params=params)


def param_count(model: Model) -> int:
    return sum(p.size for p in model.params.values())


def _rvnn(spec: NetworkSpec, p: dict, xr: Tensor, xi: Tensor) -> ForwardResult:
    """Joint processing of the concatenated channels; latent width 2*latent_dim."""
    h = ad.relu(ad.linear(ad.concat(xr, xi), p["fc1.w"], p["fc1.b"]))
    latent = ad.relu(ad.linear(h, p["fc2.w"], p["fc2.b"]))
    return ForwardResult(pred=ad.linear(latent, p["fc3.w"], p["fc3.b"]), latent=latent)


def _complex_affine(xr: Tensor, xi: Tensor, p: dict, layer: str) -> tuple[Tensor, Tensor]:
    """(yr + i yi) = (wr + i wi)(xr + i xi) + (br + i bi), via real matmuls."""
    wr, wi = p[f"{layer}.wr"], p[f"{layer}.wi"]
    yr = ad.add_bias(ad.sub(ad.linear(xr, wr), ad.linear(xi, wi)), p[f"{layer}.br"])
    yi = ad.add_bias(ad.add(ad.linear(xi, wr), ad.linear(xr, wi)), p[f"{layer}.bi"])
    return yr, yi


def _cvnn(spec: NetworkSpec, p: dict, xr: Tensor, xi: Tensor) -> ForwardResult:
    """Complex layers; the classification head is the per-class magnitude."""
    yr, yi = _complex_affine(xr, xi, p, "fc1")
    yr, yi = ad.relu(yr), ad.relu(yi)
    yr, yi = _complex_affine(yr, yi, p, "fc2")
    zr, zi = ad.relu(yr), ad.relu(yi)
    yr, yi = _complex_affine(zr, zi, p, "fc3")
    if spec.task == "classification":
        # per-class magnitude; eps keeps the sqrt differentiable at zero
        sq = ad.add_const(ad.add(ad.mul(yr, yr), ad.mul(yi, yi)), MAGNITUDE_EPS)
        pred = ad.sqrt(sq)
    else:
        pred = ad.concat(yr, yi)
    return ForwardResult(pred=pred, latent_pair=LatentPair(z_re=zr, z_im=zi))


def _steinmetz(spec: NetworkSpec, p: dict, xr: Tensor, xi: Tensor) -> ForwardResult:
    """Separate subnetworks per channel, mean-centered latents, shared head."""
    hr = ad.relu(ad.linear(xr, p["realfc1.w"], p["realfc1.b"]))
    hr = ad.relu(ad.linear(hr, p["realfc2.w"], p["realfc2.b"]))
    z_re = ad.mean_center_rows(hr)
    hi = ad.relu(ad.linear(xi, p["imagfc1.w"], p["imagfc1.b"]))
    hi = ad.relu(ad.linear(hi, p["imagfc2.w"], p["imagfc2.b"]))
    z_im = ad.mean_center_rows(hi)
    pred = ad.linear(ad.concat(z_re, z_im), p["regressor.w"], p["regressor.b"])
    return ForwardResult(pred=pred, latent_pair=LatentPair(z_re=z_re, z_im=z_im))


# analytic is the steinmetz graph; only its training loss differs
_BODIES = {"rvnn": _rvnn, "cvnn": _cvnn, "steinmetz": _steinmetz, "analytic": _steinmetz}


def forward(model: Model, x_re, x_im, tape: Optional[Tape] = None) -> ForwardResult:
    """The forward pass of every architecture, used by training and evaluation.

    Inputs enter as constants: checked for NaN/Inf and bound without
    copying, but given no gradient, so backward stops at the first layer.
    Parameters bind to ``tape`` (a fresh one when None).
    """
    spec = model.spec
    x_re, x_im = np.asarray(x_re, dtype=np.float64), np.asarray(x_im, dtype=np.float64)
    # [m, dN] inputs, or [E, m, dN] for an ensemble
    if x_re.ndim not in (2, 3) or x_re.shape != x_im.shape:
        raise ShapeError(
            f"inputs must be matching 2-D (or stacked 3-D) arrays, "
            f"got {x_re.shape} and {x_im.shape}")
    if x_re.shape[-1] != spec.input_dim:
        raise ShapeError(
            f"input feature width {x_re.shape[-1]} != network input_dim {spec.input_dim}")
    tape = tape if tape is not None else Tape()
    p = {name: tape.param(arr, name) for name, arr in model.params.items()}
    return _BODIES[spec.kind](spec, p, ad.constant(x_re), ad.constant(x_im))


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
# in declared parameter order


def save_checkpoint(model: Model, path, seed: int, epoch: int) -> None:
    header = {
        "format": CHECKPOINT_FORMAT,
        "spec": model.spec.to_dict(),
        "seed": int(seed),
        "epoch": int(epoch),
        "params": [{"name": n, "shape": list(p.shape)}
                   for n, p in model.params.items()],
        "dtype": "f64", "endianness": "little",
    }
    blob = np.concatenate([p.ravel() for p in model.params.values()], dtype="<f8")
    with open(path, "wb") as f:
        f.write(json.dumps(header).encode("utf-8") + b"\n")
        f.write(blob.tobytes())


_JSON_TYPES = {dict: "an object", list: "an array", str: "a string", int: "an integer"}


def _field(obj, key: str, kind: type, where: str = ""):
    """``obj[key]`` when ``obj`` is a JSON object holding a ``kind`` value
    there (JSON booleans are not integers); DataError naming the field
    otherwise."""
    if not isinstance(obj, dict) or key not in obj:
        raise DataError(f"checkpoint header: missing field {where}{key}")
    value = obj[key]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise DataError(f"checkpoint header: field {where}{key} must be {_JSON_TYPES[kind]}")
    return value


def _header_spec(header: dict) -> NetworkSpec:
    spec = _field(header, "spec", dict)
    fields = {key: _field(spec, key, kind, "spec.") for key, kind in
              (("kind", str), ("input_dim", int), ("latent_dim", int),
               ("output_dim", int), ("task", str))}
    try:
        return NetworkSpec(**fields)
    except ContractError as e:
        raise DataError(f"checkpoint header: field spec: {e}") from None


def load_checkpoint(path) -> tuple[Model, dict]:
    """Returns (model, header). Raises DataError on malformed files."""
    with open(path, "rb") as f:
        header_line = f.readline()
        blob = f.read()
    try:
        header = json.loads(header_line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise DataError(f"checkpoint header is not valid JSON: {e}") from e
    if not isinstance(header, dict):
        raise DataError("checkpoint header is not a JSON object")
    if header.get("format") != CHECKPOINT_FORMAT:
        raise DataError(f"unexpected checkpoint format: {header.get('format')!r}")
    spec = _header_spec(header)
    expected = _param_shapes(spec)
    params = {}
    offset = 0
    for i, entry in enumerate(_field(header, "params", list)):
        name = _field(entry, "name", str, f"params[{i}].")
        shape = _field(entry, "shape", list, f"params[{i}].")
        if not all(isinstance(d, int) and not isinstance(d, bool) for d in shape):
            raise DataError(f"checkpoint header: field params[{i}].shape "
                            "must be a list of integers")
        shape = tuple(shape)
        if name not in expected or expected[name] != shape:
            raise DataError(f"checkpoint parameter {name!r} has unexpected shape {shape}")
        nbytes = int(np.prod(shape)) * 8
        if offset + nbytes > len(blob):
            raise DataError(f"checkpoint blob truncated at parameter {name!r}")
        arr = np.frombuffer(blob[offset:offset + nbytes], dtype="<f8").reshape(shape)
        if not np.isfinite(arr).all():
            raise DataError(f"checkpoint parameter {name!r} has non-finite values")
        params[name] = arr.astype(np.float64)
        offset += nbytes
    if offset != len(blob):
        raise DataError("checkpoint blob has trailing bytes")
    if set(params) != set(expected):
        missing = sorted(set(expected) - set(params))
        raise DataError(f"checkpoint missing parameters: {missing}")
    return Model(spec=spec, params=params), header
