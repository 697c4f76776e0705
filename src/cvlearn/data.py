"""Datasets on disk and the generators used by the experiments.

CVDS directory layout (all binary blobs little-endian, row-major):

    meta.json        {"M", "dN", "k", "task", "dtype": "f64",
                      "endianness": "little", "provenance"}
    features_re.bin  M x dN float64
    features_im.bin  M x dN float64 (optional: absent means all-zero,
                     the "real form" used as dft_encode input)
    labels.bin       classification: M uint32 class ids
                     complex_regression: M x 2k float64, each row the k
                     real parts then the k imaginary parts

Random draws go through named substreams of the caller's seed, so every
generator is deterministic per (arguments, seed).
"""

from __future__ import annotations

import contextlib
import errno
import json
import math
import numbers
import os
import sys
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .autodiff import real_array
from .errors import ContractError, DataError
from .rng import Rng
from .transforms import dft_array, row_blocks

TASKS = ("classification", "complex_regression")

# the paper's channel: FIR taps, square-term coefficient, window length
TAPS = (0.432 + 0.297j, 0.349 - 0.074j, 0.202 + 0.166j, 0.112 + 0.094j, 0.051 + 0.036j)
NL_COEFF = 0.15 + 0.10j
SEQ_LEN = 5


@dataclass(frozen=True)
class Dataset:
    """In-memory complex-feature dataset, checked once where it is made.

    labels is an int64 [M] array of class ids for classification, or a
    float64 [M, 2k] complex regression target matrix, each row k real
    parts then k imaginary parts. For classification, num_classes fixes k
    even when a split lacks some class; it defaults to max(label) + 1.

    Construction binds each array through ``autodiff.real_array`` (a
    read-only view when no conversion is needed; the caller's own arrays
    stay writable) and checks shapes, class ids and count and a string
    provenance, each error naming the field. The instance is frozen, so
    training and evaluation bind its arrays without checking them again.
    """
    features_re: np.ndarray
    features_im: np.ndarray
    labels: np.ndarray
    task: str
    provenance: str = ""
    num_classes: int | None = None

    def __post_init__(self):
        def put(name, value):
            object.__setattr__(self, name, value)

        put("features_re", real_array(self.features_re, "features_re"))
        put("features_im", real_array(self.features_im, "features_im"))
        if self.task not in TASKS:
            raise DataError(f"unknown task: {self.task!r}")
        if not isinstance(self.provenance, str):
            raise DataError(f"provenance must be a string, got {type(self.provenance).__name__}")
        if self.features_re.ndim != 2 or self.features_re.shape != self.features_im.shape:
            raise DataError("features_re and features_im must be matching 2-D arrays")
        if self.m < 1:
            raise DataError("dataset must contain at least one sample")
        if self.dn < 1:
            raise DataError("features_re and features_im must have at least one column")
        if self.task == "classification":
            given = real_array(self.labels, "labels", None)
            with np.errstate(invalid="ignore"):
                ids = np.ascontiguousarray(given, dtype=np.int64)
            if not np.array_equal(ids, given):
                raise DataError("labels: class ids must be whole numbers in int64 range")
            ids.setflags(write=False)  # a fresh array, or the checked view
            put("labels", ids)
            if self.labels.shape != (self.m,):
                raise DataError(f"labels shape {self.labels.shape} != (M,) = ({self.m},)")
            if (self.labels < 0).any():
                raise DataError("negative class id in labels")
            k, top = self.num_classes, int(self.labels.max())
            if k is not None and (isinstance(k, bool) or not isinstance(k, numbers.Integral)
                                  or k <= top):  # so k >= 1, as ids are >= 0
                raise DataError(f"num_classes {k!r} must be an integer above class id {top}")
            put("num_classes", top + 1 if k is None else int(k))
        else:
            put("labels", real_array(self.labels, "labels"))
            shape = self.labels.shape
            if len(shape) != 2 or shape[0] != self.m or shape[1] % 2 or self.k < 1:
                raise DataError(f"labels shape {shape} != (M, 2k) with k >= 1")
            put("num_classes", None)

    @property
    def m(self) -> int:
        return self.features_re.shape[0]

    @property
    def dn(self) -> int:
        return self.features_re.shape[1]

    @property
    def k(self) -> int:
        if self.task == "classification":
            return self.num_classes
        return self.labels.shape[1] // 2

    def take(self, m: int) -> "Dataset":
        """First m samples, copied, so they do not keep the full arrays alive."""
        if not 1 <= m <= self.m:
            raise ContractError(f"take({m}) out of range for M={self.m}")
        return replace(self, features_re=self.features_re[:m].copy(),
                       features_im=self.features_im[:m].copy(),
                       labels=self.labels[:m].copy(),
                       provenance=f"{self.provenance}|take({m})")


def parse_json_object(blob: bytes, what: str, error: type = DataError) -> dict:
    """``blob`` decoded as UTF-8 and parsed as a JSON object; ``error``
    naming ``what`` (e.g. "meta.json") when it is not one."""
    try:
        value = json.loads(blob.decode("utf-8"))
    except (ValueError, RecursionError) as e:
        # ValueError: undecodable bytes or bad JSON; RecursionError:
        # nesting deeper than the parser's stack
        raise error(f"{what} is not valid JSON: {e}") from None
    if not isinstance(value, dict):
        raise error(f"{what} must be a JSON object, got {type(value).__name__}")
    return value


_JSON_TYPES = {dict: "an object", list: "an array", str: "a string", int: "an integer"}


def json_field(obj, key: str, kind: type, what: str, where: str = ""):
    """``obj[key]`` when ``obj`` is a JSON object holding a ``kind`` value
    there (JSON booleans are not integers); DataError naming ``what`` (e.g.
    "meta.json") and the field otherwise."""
    if not isinstance(obj, dict) or key not in obj:
        raise DataError(f"{what}: missing field {where}{key}")
    value = obj[key]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise DataError(f"{what}: field {where}{key} must be {_JSON_TYPES[kind]}")
    return value


# ---------------------------------------------------------------------------
# CVDS directory format


def save_cvds(ds: Dataset, path) -> None:
    """Write ``ds`` as a CVDS directory, all four files or none: a failed
    save leaves the files already there as they were, and removes the
    directory again when it made it and nothing else was put there."""
    if ds.task == "classification" and int(ds.labels.max(initial=0)) >= 2 ** 32:
        raise DataError("class ids exceed uint32 range")
    labels = np.ascontiguousarray(ds.labels, "<u4" if ds.task == "classification" else "<f8")
    path = Path(path)
    meta = {"M": ds.m, "dN": ds.dn, "k": ds.k, "task": ds.task,
            "dtype": "f64", "endianness": "little", "provenance": ds.provenance}
    names = ("meta.json", "features_re.bin", "features_im.bin", "labels.bin")
    with output_dir(path), staged(*(path / n for n in names)) as (
            meta_tmp, re_tmp, im_tmp, labels_tmp):
        meta_tmp.write_text(json.dumps(meta, indent=1), encoding="utf-8")
        # write_bytes takes a contiguous array's buffer as it is, with no copy
        re_tmp.write_bytes(np.ascontiguousarray(ds.features_re, dtype="<f8"))
        im_tmp.write_bytes(np.ascontiguousarray(ds.features_im, dtype="<f8"))
        labels_tmp.write_bytes(labels)


@contextlib.contextmanager
def output_dir(path: Path):
    """Make directory ``path`` (and its parents) for a block that writes
    into it. When the block raises, remove ``path`` again if this call
    made it and nothing was left in it."""
    fresh = not path.exists()
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield
    except BaseException:
        if fresh:
            with contextlib.suppress(OSError):  # rmdir refuses a non-empty directory
                path.rmdir()
        raise


@contextlib.contextmanager
def staged(*paths: Path):
    """A temp file beside each of ``paths``; all replace their targets
    when the block ends normally, none when it raises, and none is left.
    A target that is a directory raises IsADirectoryError before any is
    replaced."""
    tmps = []
    try:
        for path in paths:
            try:
                fd, tmp = tempfile.mkstemp(suffix=".tmp", prefix=f".{path.name}.",
                                           dir=path.parent)
            except OSError as e:  # name the target, not a temp file never made
                raise type(e)(e.errno, e.strerror, str(path)) from None
            os.close(fd)
            tmps.append(Path(tmp))
        yield tmps
        for path in paths:
            if path.is_dir():
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
        for tmp, path in zip(tmps, paths):
            os.replace(tmp, path)
    finally:
        for tmp in tmps:
            tmp.unlink(missing_ok=True)


def _cvds_file(path: Path, name: str) -> Path:
    f = path / name
    if not f.exists():
        raise DataError(f"missing CVDS file: {f}")
    return f


def read_array(fh, name: str, dtype: str, shape: tuple) -> np.ndarray:
    """The rest of open file ``fh`` read straight into a fresh ``dtype`` array of
    ``shape``; DataError naming ``name``, before any allocation, when it does not fit."""
    expected = math.prod(shape) * np.dtype(dtype).itemsize
    size = os.fstat(fh.fileno()).st_size - fh.tell()
    if size == expected:
        out = np.empty(shape, dtype)
        if fh.readinto(out) == size:
            return out
    raise DataError(f"{name}: expected {expected} bytes for {np.dtype(dtype).name} "
                    f"shape {shape}, found {size}")


def load_cvds(path) -> Dataset:
    """Load a CVDS directory; a missing features_im.bin means zeros.

    The header and blob sizes are checked here; the values (finiteness,
    class ids, provenance) by the Dataset they build. Each blob is read
    straight into the array the Dataset keeps."""
    path = Path(path)

    def blob(name: str, dtype: str, shape: tuple) -> np.ndarray:
        with _cvds_file(path, name).open("rb") as fh:
            return read_array(fh, name, dtype, shape)

    meta = parse_json_object(_cvds_file(path, "meta.json").read_bytes(), "meta.json")
    m, dn, k = (json_field(meta, key, int, "meta.json") for key in ("M", "dN", "k"))
    task = json_field(meta, "task", str, "meta.json")
    if meta.get("dtype", "f64") != "f64" or meta.get("endianness", "little") != "little":
        raise DataError("meta.json: only f64 little-endian CVDS data is supported")
    if task not in TASKS:
        raise DataError(f"meta.json: unknown task {task!r}")
    if m < 1 or dn < 1 or k < 1:
        raise DataError("meta.json: M, dN, k must be positive")
    re = blob("features_re.bin", "<f8", (m, dn))
    if (path / "features_im.bin").exists():
        im = blob("features_im.bin", "<f8", (m, dn))
    else:
        im = np.zeros_like(re)
    if task == "classification":
        labels = blob("labels.bin", "<u4", (m,))
    else:
        labels = blob("labels.bin", "<f8", (m, 2 * k))
    return Dataset(re, im, labels, task, provenance=meta.get("provenance", ""),
                   num_classes=k if task == "classification" else None)


# ---------------------------------------------------------------------------
# feature encoding and ablations


def dft_encode(ds: Dataset) -> Dataset:
    """Replace real-form features by their per-row spectra; labels pass through.

    The real and imaginary parts are written straight into the two output
    arrays, one block of rows (about 1 MiB of complex values) at a time,
    so the peak beyond the outputs is a few MiB at any M. The blocks are
    ``transforms.row_blocks``', so every bit is that of ``dft_array`` over
    the whole array.
    """
    if ds.features_im.any():  # no [M, dN] mask; -0.0 is zero and NaN is not
        raise DataError("dft_encode expects a real-form dataset (features_im all zero)")
    x = ds.features_re
    re, im = np.empty(x.shape), np.empty(x.shape)
    for lo, hi in row_blocks(*x.shape):
        spectra = dft_array(x[lo:hi])
        re[lo:hi], im[lo:hi] = spectra.real, spectra.imag
    return replace(ds, features_re=re, features_im=im,
                   provenance=f"{ds.provenance}|dft_encode")


def add_complex_noise(ds: Dataset, eta: float, seed: int) -> Dataset:
    """Add eta-scaled circular complex Gaussian noise to every feature entry.

    Each noise entry has independent real and imaginary parts of variance
    1/2, so its complex variance is 1; labels are untouched. eta = 0 returns
    ``ds`` itself, which is immutable; features that overflow name ``eta``.
    """
    if not 0.0 <= eta < math.inf:
        raise ContractError(f"eta must be finite and non-negative, got {eta}")
    if eta == 0.0:
        return ds
    rng = Rng(seed)
    shape = ds.features_re.shape
    half = math.sqrt(0.5)
    re, im = (rng.substream(f"noise/{part}").normal(shape) for part in ("re", "im"))
    with np.errstate(over="ignore"):  # an overflow to inf: the Dataset check reports it
        for noise, features in ((re, ds.features_re), (im, ds.features_im)):
            noise *= eta * half  # in place, so only the two outputs are made
            noise += features
    try:
        return replace(ds, features_re=re, features_im=im,
                       provenance=f"{ds.provenance}|noise(eta={eta},seed={seed})")
    except DataError as e:
        raise DataError(f"noise at eta={eta}: {e}") from None


# ---------------------------------------------------------------------------
# synthetic nonlinear channel


@dataclass(frozen=True)
class ChannelSpec:
    """The paper's nonlinear FIR channel (``TAPS``, square-term ``NL_COEFF``,
    ``SEQ_LEN``-sample windows) at a chosen input circularity and SNR."""
    rho: float = math.sqrt(2.0) / 2.0
    snr_db: float = 5.0

    def __post_init__(self):
        if not 0.0 <= self.rho <= 1.0:
            raise ContractError(f"rho must lie in [0, 1], got {self.rho}")
        try:
            ratio = 10.0 ** (self.snr_db / 10.0)  # signal to noise power
        except OverflowError:
            ratio = math.inf
        # a ratio that is 0, subnormal or infinite would break the noise power
        if not sys.float_info.min <= ratio < math.inf:
            raise ContractError(f"snr_db must be finite, with 10**(snr_db/10) a positive "
                                f"normal float (about -3076 to 3082), got {self.snr_db}")


def gen_channel_dataset(spec: ChannelSpec, m: int, seed: int) -> Dataset:
    """Draw channel inputs, push them through filter + square nonlinearity
    + noise, and emit sliding-window samples.

    Inputs are x = sqrt(1 - rho^2) * a + i * rho * b with a, b standard
    Gaussian streams; rho sets the circularity of the input law. Each
    sample's features are SEQ_LEN consecutive inputs (oldest first) and
    its label is the noisy channel output aligned with the newest input.
    Noise power is set from the empirical clean-output power to hit
    snr_db. Deterministic per (spec, m, seed).
    """
    if m < 1:
        raise ContractError("m must be >= 1")
    rng = Rng(seed)
    total = m + SEQ_LEN - 1
    a = rng.substream("channel/re").normal(total)
    b = rng.substream("channel/im").normal(total)
    x = math.sqrt(1.0 - spec.rho ** 2) * a + 1j * spec.rho * b

    filtered = np.convolve(x, np.asarray(TAPS, dtype=np.complex128))[:total]
    clean = filtered + NL_COEFF * filtered ** 2
    # outputs aligned with the last entry of each window
    clean = clean[SEQ_LEN - 1:]

    signal_power = float(np.mean(np.abs(clean) ** 2))
    noise_power = signal_power / (10.0 ** (spec.snr_db / 10.0))
    half = math.sqrt(0.5)
    w = (rng.substream("channel/noise-re").normal(m)
         + 1j * rng.substream("channel/noise-im").normal(m)) * half
    y = clean + math.sqrt(noise_power) * w

    idx = np.arange(SEQ_LEN)[None, :] + np.arange(m)[:, None]
    windows = x[idx]
    provenance = (f"channel(rho={spec.rho:.6g},snr_db={spec.snr_db:.6g},"
                  f"m={m},seed={seed})")
    return Dataset(windows.real, windows.imag, np.stack([y.real, y.imag], axis=1),
                   "complex_regression", provenance=provenance)
