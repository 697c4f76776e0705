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

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ContractError, DataError
from .rng import Rng
from .transforms import dft_array

TASKS = ("classification", "complex_regression")

DEFAULT_TAPS = (0.432 + 0.297j, 0.349 - 0.074j, 0.202 + 0.166j,
                0.112 + 0.094j, 0.051 + 0.036j)
DEFAULT_NL_COEFF = 0.15 + 0.10j


@dataclass
class Dataset:
    """In-memory complex-feature dataset.

    labels is an int64 [M] array of class ids for classification, or a
    complex128 [M, k] target matrix for complex regression. For
    classification, num_classes fixes k even when a split happens not to
    contain every class; it defaults to max(label) + 1.
    """
    features_re: np.ndarray
    features_im: np.ndarray
    labels: np.ndarray
    task: str
    provenance: str = ""
    num_classes: int | None = None

    def __post_init__(self):
        self.features_re = np.ascontiguousarray(self.features_re, dtype=np.float64)
        self.features_im = np.ascontiguousarray(self.features_im, dtype=np.float64)
        if self.task not in TASKS:
            raise DataError(f"unknown task: {self.task!r}")
        if self.features_re.ndim != 2 or self.features_re.shape != self.features_im.shape:
            raise DataError("features_re and features_im must be matching 2-D arrays")
        if self.m < 1:
            raise DataError("dataset must contain at least one sample")
        if self.task == "classification":
            self.labels = np.ascontiguousarray(self.labels, dtype=np.int64)
            if self.labels.shape != (self.m,):
                raise DataError(f"labels shape {self.labels.shape} != (M,) = ({self.m},)")
            if (self.labels < 0).any():
                raise DataError("negative class id in labels")
            if self.num_classes is None:
                self.num_classes = int(self.labels.max()) + 1
            elif int(self.labels.max()) >= self.num_classes:
                raise DataError(
                    f"class id {int(self.labels.max())} >= num_classes {self.num_classes}")
        else:
            self.labels = np.ascontiguousarray(self.labels, dtype=np.complex128)
            if self.labels.ndim != 2 or self.labels.shape[0] != self.m:
                raise DataError(f"labels shape {self.labels.shape} != (M, k)")
            self.num_classes = None
        for name, arr in (("features_re", self.features_re),
                          ("features_im", self.features_im)):
            if not np.isfinite(arr).all():
                raise DataError(f"{name} contains non-finite values")
        if self.task == "complex_regression":
            if not np.isfinite(self.labels.view(np.float64)).all():
                raise DataError("labels contain non-finite values")

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
        return self.labels.shape[1]

    def replace(self, features_re=None, features_im=None, labels=None,
                provenance=None) -> "Dataset":
        """Copy with overridden fields; task and class count carry over."""
        return Dataset(
            self.features_re.copy() if features_re is None else features_re,
            self.features_im.copy() if features_im is None else features_im,
            self.labels.copy() if labels is None else labels,
            self.task,
            provenance=self.provenance if provenance is None else provenance,
            num_classes=self.num_classes)

    def take(self, m: int) -> "Dataset":
        """First m samples."""
        if not 1 <= m <= self.m:
            raise ContractError(f"take({m}) out of range for M={self.m}")
        return self.replace(features_re=self.features_re[:m].copy(),
                            features_im=self.features_im[:m].copy(),
                            labels=self.labels[:m].copy(),
                            provenance=f"{self.provenance}|take({m})")


def stacked_targets(ds: Dataset) -> np.ndarray:
    """Regression targets as [M, 2k]: k real parts then k imaginary parts."""
    if ds.task != "complex_regression":
        raise ContractError("stacked_targets requires a complex_regression dataset")
    return np.concatenate([ds.labels.real, ds.labels.imag], axis=1)


# ---------------------------------------------------------------------------
# CVDS directory format


def save_cvds(ds: Dataset, path) -> None:
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    k = ds.k
    meta = {"M": ds.m, "dN": ds.dn, "k": k, "task": ds.task,
            "dtype": "f64", "endianness": "little", "provenance": ds.provenance}
    (path / "meta.json").write_text(json.dumps(meta, indent=1), encoding="utf-8")
    (path / "features_re.bin").write_bytes(
        np.ascontiguousarray(ds.features_re, dtype="<f8").tobytes())
    (path / "features_im.bin").write_bytes(
        np.ascontiguousarray(ds.features_im, dtype="<f8").tobytes())
    if ds.task == "classification":
        if int(ds.labels.max(initial=0)) >= 2 ** 32:
            raise DataError("class ids exceed uint32 range")
        blob = np.ascontiguousarray(ds.labels, dtype="<u4").tobytes()
    else:
        blob = np.ascontiguousarray(
            stacked_targets(ds), dtype="<f8").tobytes()
    (path / "labels.bin").write_bytes(blob)


def _read_matrix(path: Path, name: str, rows: int, cols: int) -> np.ndarray:
    f = path / name
    if not f.exists():
        raise DataError(f"missing CVDS file: {f}")
    blob = f.read_bytes()
    expected = rows * cols * 8
    if len(blob) != expected:
        raise DataError(f"{name}: expected {expected} bytes for "
                        f"{rows}x{cols} float64, found {len(blob)}")
    arr = np.frombuffer(blob, dtype="<f8").reshape(rows, cols).astype(np.float64)
    if not np.isfinite(arr).all():
        raise DataError(f"{name}: non-finite values")
    return arr


def load_cvds(path) -> Dataset:
    """Load a CVDS directory; a missing features_im.bin means zeros."""
    path = Path(path)
    meta_file = path / "meta.json"
    if not meta_file.exists():
        raise DataError(f"missing CVDS file: {meta_file}")
    try:
        meta = json.loads(meta_file.read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        raise DataError(f"meta.json is not valid JSON: {e}") from e
    if not isinstance(meta, dict):
        raise DataError("meta.json is not a JSON object")
    for fieldname in ("M", "dN", "k", "task"):
        if fieldname not in meta:
            raise DataError(f"meta.json missing field {fieldname!r}")
    for fieldname in ("M", "dN", "k"):
        value = meta[fieldname]
        if not isinstance(value, int) or isinstance(value, bool):
            raise DataError(f"meta.json: field {fieldname!r} must be an integer, "
                            f"got {value!r}")
    m, dn, k, task = meta["M"], meta["dN"], meta["k"], meta["task"]
    if meta.get("dtype", "f64") != "f64" or meta.get("endianness", "little") != "little":
        raise DataError("meta.json: only f64 little-endian CVDS data is supported")
    if task not in TASKS:
        raise DataError(f"meta.json: unknown task {task!r}")
    if m < 1 or dn < 1 or k < 1:
        raise DataError("meta.json: M, dN, k must be positive")
    re = _read_matrix(path, "features_re.bin", m, dn)
    if (path / "features_im.bin").exists():
        im = _read_matrix(path, "features_im.bin", m, dn)
    else:
        im = np.zeros_like(re)
    labels_file = path / "labels.bin"
    if not labels_file.exists():
        raise DataError(f"missing CVDS file: {labels_file}")
    blob = labels_file.read_bytes()
    if task == "classification":
        if len(blob) != m * 4:
            raise DataError(f"labels.bin: expected {m * 4} bytes of uint32 ids, "
                            f"found {len(blob)}")
        labels = np.frombuffer(blob, dtype="<u4").astype(np.int64)
        if labels.max(initial=0) >= k:
            raise DataError(f"labels.bin: class id {labels.max()} >= k={k}")
    else:
        if len(blob) != m * 2 * k * 8:
            raise DataError(f"labels.bin: expected {m * 2 * k * 8} bytes for "
                            f"{m}x{2 * k} float64 targets, found {len(blob)}")
        flat = np.frombuffer(blob, dtype="<f8").reshape(m, 2 * k)
        if not np.isfinite(flat).all():
            raise DataError("labels.bin: non-finite values")
        labels = flat[:, :k] + 1j * flat[:, k:]
    return Dataset(re, im, labels, task, provenance=meta.get("provenance", ""),
                   num_classes=k if task == "classification" else None)


# ---------------------------------------------------------------------------
# feature encoding and ablations


def dft_encode_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row DFT of real signals; returns (re, im) spectra."""
    rows = np.ascontiguousarray(rows, dtype=np.float64)
    spectra = dft_array(rows.astype(np.complex128))
    return (np.ascontiguousarray(spectra.real),
            np.ascontiguousarray(spectra.imag))


def dft_encode(ds: Dataset) -> Dataset:
    """Replace real-form features by their per-row spectra; labels pass through."""
    if np.any(ds.features_im != 0.0):
        raise DataError("dft_encode expects a real-form dataset (features_im all zero)")
    re, im = dft_encode_rows(ds.features_re)
    return ds.replace(features_re=re, features_im=im,
                      provenance=f"{ds.provenance}|dft_encode")


def add_complex_noise(ds: Dataset, eta: float, seed: int) -> Dataset:
    """Add eta-scaled circular complex Gaussian noise to every feature entry.

    Each noise entry has independent real and imaginary parts of
    variance 1/2, so its complex variance is 1; labels are untouched.
    eta = 0 returns the data unchanged.
    """
    if eta < 0:
        raise ContractError("eta must be non-negative")
    if eta == 0.0:
        return ds.replace()
    rng = Rng(seed)
    shape = ds.features_re.shape
    half = math.sqrt(0.5)
    re = ds.features_re + eta * half * rng.substream("noise/re").normal(shape)
    im = ds.features_im + eta * half * rng.substream("noise/im").normal(shape)
    return ds.replace(features_re=re, features_im=im,
                      provenance=f"{ds.provenance}|noise(eta={eta},seed={seed})")


# ---------------------------------------------------------------------------
# synthetic nonlinear channel


@dataclass(frozen=True)
class ChannelSpec:
    """Nonlinear FIR channel with controllable input circularity and SNR."""
    rho: float = math.sqrt(2.0) / 2.0
    taps: tuple = DEFAULT_TAPS
    nl_coeff: complex = DEFAULT_NL_COEFF
    snr_db: float = 5.0
    seq_len: int = 5

    def __post_init__(self):
        if not 0.0 <= self.rho <= 1.0:
            raise ContractError(f"rho must lie in [0, 1], got {self.rho}")
        if len(self.taps) == 0 or not any(abs(t) > 0 for t in self.taps):
            raise ContractError("taps must contain a nonzero coefficient")
        if self.seq_len < 1:
            raise ContractError("seq_len must be >= 1")


def gen_channel_dataset(spec: ChannelSpec, m: int, seed: int) -> Dataset:
    """Draw channel inputs, push them through filter + square nonlinearity
    + noise, and emit sliding-window samples.

    Inputs are x = sqrt(1 - rho^2) * a + i * rho * b with a, b standard
    Gaussian streams; rho sets the circularity of the input law. Each
    sample's features are seq_len consecutive inputs (oldest first) and
    its label is the noisy channel output aligned with the newest input.
    Noise power is set from the empirical clean-output power to hit
    snr_db. Deterministic per (spec, m, seed).
    """
    if m < 1:
        raise ContractError("m must be >= 1")
    rng = Rng(seed)
    total = m + spec.seq_len - 1
    a = rng.substream("channel/re").normal(total)
    b = rng.substream("channel/im").normal(total)
    x = math.sqrt(1.0 - spec.rho ** 2) * a + 1j * spec.rho * b

    taps = np.asarray(spec.taps, dtype=np.complex128)
    filtered = np.convolve(x, taps)[:total]
    clean = filtered + spec.nl_coeff * filtered ** 2
    # outputs aligned with the last entry of each window
    clean = clean[spec.seq_len - 1:]

    signal_power = float(np.mean(np.abs(clean) ** 2))
    noise_power = signal_power / (10.0 ** (spec.snr_db / 10.0))
    half = math.sqrt(0.5)
    w = (rng.substream("channel/noise-re").normal(m)
         + 1j * rng.substream("channel/noise-im").normal(m)) * half
    y = clean + math.sqrt(noise_power) * w

    idx = np.arange(spec.seq_len)[None, :] + np.arange(m)[:, None]
    windows = x[idx]
    provenance = (f"channel(rho={spec.rho:.6g},snr_db={spec.snr_db:.6g},"
                  f"m={m},seed={seed})")
    return Dataset(windows.real, windows.imag, y[:, None], "complex_regression",
                   provenance=provenance)
