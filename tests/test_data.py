import json
import tracemalloc
import warnings
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path

import numpy as np
import pytest

import cvlearn as cv
from cvlearn import transforms as tr
from cvlearn.data import NL_COEFF, SEQ_LEN, TAPS, ChannelSpec, Dataset
from cvlearn.errors import ContractError, DataError
from cvlearn.rng import Rng

from helpers import random_regression, same_bytes, synthetic_classification


def test_cvds_roundtrip_classification_bitwise(tmp_path):
    ds = synthetic_classification(13, 6, 3, seed=0)
    cv.save_cvds(ds, tmp_path / "d")
    back = cv.load_cvds(tmp_path / "d")
    assert np.array_equal(back.features_re, ds.features_re)
    assert np.array_equal(back.features_im, ds.features_im)
    assert np.array_equal(back.labels, ds.labels)
    assert back.task == ds.task and back.provenance == ds.provenance


def test_cvds_roundtrip_regression_bitwise(tmp_path):
    ds = random_regression(7, 4, 2, seed=1)
    cv.save_cvds(ds, tmp_path / "d")
    back = cv.load_cvds(tmp_path / "d")
    assert np.array_equal(back.features_re, ds.features_re)
    assert np.array_equal(back.labels, ds.labels)


def test_cvds_regression_round_trip_keeps_every_target_byte(tmp_path):
    # targets load as the [M, 2k] blob holds them, so a -0.0 part stays -0.0
    cv.save_cvds(random_regression(3, 2, 2, seed=4), tmp_path / "a")
    flat = np.fromfile(tmp_path / "a" / "labels.bin", "<f8").reshape(3, 4)
    flat[0, 3] = flat[1, 0] = -0.0  # an imaginary and a real part
    (tmp_path / "a" / "labels.bin").write_bytes(flat.tobytes())
    cv.save_cvds(cv.load_cvds(tmp_path / "a"), tmp_path / "b")
    assert (tmp_path / "b" / "labels.bin").read_bytes() == flat.tobytes()


def test_cvds_truncated_blob_rejected(tmp_path):
    ds = synthetic_classification(5, 4, 2, seed=2)
    cv.save_cvds(ds, tmp_path / "d")
    blob_path = tmp_path / "d" / "features_re.bin"
    blob_path.write_bytes(blob_path.read_bytes()[:-8])
    with pytest.raises(DataError, match="features_re.bin"):
        cv.load_cvds(tmp_path / "d")


def test_cvds_header_row_mismatch_rejected(tmp_path):
    ds = synthetic_classification(2, 4, 2, seed=3)
    cv.save_cvds(ds, tmp_path / "d")
    meta = json.loads((tmp_path / "d" / "meta.json").read_text())
    meta["M"] = 3
    (tmp_path / "d" / "meta.json").write_text(json.dumps(meta))
    with pytest.raises(DataError):
        cv.load_cvds(tmp_path / "d")


@pytest.mark.parametrize("field,value", [
    ("M", "abc"), ("M", 2.7), ("M", 2.0), ("M", True), ("dN", "4"), ("dN", None),
    ("k", 2.5), ("k", False)])
def test_cvds_header_counts_must_be_json_integers(field, value, tmp_path):
    ds = synthetic_classification(2, 4, 2, seed=3)
    cv.save_cvds(ds, tmp_path / "d")
    meta = json.loads((tmp_path / "d" / "meta.json").read_text())
    meta[field] = value
    (tmp_path / "d" / "meta.json").write_text(json.dumps(meta))
    with pytest.raises(DataError, match=f"^meta.json: field {field} must be an integer$"):
        cv.load_cvds(tmp_path / "d")


@pytest.mark.parametrize("field,value,needle", [
    ("M", None, "missing field M"), ("task", None, "missing field task"),
    ("task", 3, "field task must be a string")])
def test_cvds_header_fields_named(field, value, needle, tmp_path):
    cv.save_cvds(synthetic_classification(2, 4, 2, seed=3), tmp_path / "d")
    meta = json.loads((tmp_path / "d" / "meta.json").read_text())
    if value is None:
        del meta[field]
    else:
        meta[field] = value
    (tmp_path / "d" / "meta.json").write_text(json.dumps(meta))
    with pytest.raises(DataError, match=f"^meta.json: {needle}$"):
        cv.load_cvds(tmp_path / "d")


def test_cvds_missing_file_named(tmp_path):
    ds = synthetic_classification(3, 4, 2, seed=4)
    cv.save_cvds(ds, tmp_path / "d")
    (tmp_path / "d" / "labels.bin").unlink()
    with pytest.raises(DataError, match="labels.bin"):
        cv.load_cvds(tmp_path / "d")


def test_cvds_non_finite_rejected(tmp_path):
    ds = synthetic_classification(3, 4, 2, seed=5)
    cv.save_cvds(ds, tmp_path / "d")
    bad = np.full((3, 4), np.nan, dtype="<f8")
    (tmp_path / "d" / "features_re.bin").write_bytes(bad.tobytes())
    with pytest.raises(DataError, match="features_re"):
        cv.load_cvds(tmp_path / "d")


@pytest.mark.parametrize("task,blob,values,needle", [
    ("classification", "features_im.bin", np.array([np.inf] * 12), "features_im"),
    ("classification", "labels.bin", np.array([0, 2, 1], dtype="<u4"), "class id 2"),
    ("complex_regression", "labels.bin", np.array([1.0, np.nan] * 3), "labels"),
])
def test_cvds_values_checked_by_the_dataset_they_build(tmp_path, task, blob, values, needle):
    ds = (synthetic_classification(3, 4, 2, seed=5) if task == "classification"
          else cv.gen_channel_dataset(cv.ChannelSpec(), 3, seed=5))
    cv.save_cvds(ds, tmp_path / "d")
    (tmp_path / "d" / blob).write_bytes(values.astype(values.dtype.newbyteorder("<")).tobytes())
    with pytest.raises(DataError, match=needle):
        cv.load_cvds(tmp_path / "d")


@pytest.mark.parametrize("value", [np.inf, -np.inf])
def test_cvds_infinite_regression_label_warns_nothing(tmp_path, value):
    # the Dataset check is the only report: no numpy warning before it
    cv.save_cvds(cv.gen_channel_dataset(cv.ChannelSpec(), 3, seed=5), tmp_path / "d")
    flat = np.fromfile(tmp_path / "d" / "labels.bin", dtype="<f8")
    flat[1] = value     # an imaginary part
    flat.tofile(tmp_path / "d" / "labels.bin")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match="labels"):
            cv.load_cvds(tmp_path / "d")


def test_cvds_meta_provenance_must_be_a_string(tmp_path):
    cv.save_cvds(synthetic_classification(3, 4, 2, seed=5), tmp_path / "d")
    meta = json.loads((tmp_path / "d" / "meta.json").read_text())
    meta["provenance"] = {"a": [1]}
    (tmp_path / "d" / "meta.json").write_text(json.dumps(meta))
    with pytest.raises(DataError, match="provenance must be a string"):
        cv.load_cvds(tmp_path / "d")


def test_cvds_real_form_missing_im_is_zero(tmp_path):
    ds = synthetic_classification(4, 6, 2, seed=6)
    cv.save_cvds(ds, tmp_path / "d")
    (tmp_path / "d" / "features_im.bin").unlink()
    back = cv.load_cvds(tmp_path / "d")
    assert np.all(back.features_im == 0)
    assert np.array_equal(back.features_re, ds.features_re)


def test_dataset_validation():
    with pytest.raises(DataError):
        Dataset(np.ones((2, 3)), np.ones((2, 4)), np.zeros(2, dtype=int),
                "classification")
    with pytest.raises(DataError):
        Dataset(np.full((2, 3), np.nan), np.ones((2, 3)),
                np.zeros(2, dtype=int), "classification")
    with pytest.raises(DataError):
        Dataset(np.ones((2, 3)), np.ones((2, 3)), np.zeros(2, dtype=int),
                "clustering")
    # class ids that int64 conversion would truncate or wrap
    for labels in ([0.5, 1.7, 2.0], [0.0, np.nan, 1.0], [0.0, 2.0 ** 63, 1.0]):
        with pytest.raises(DataError, match="labels"):
            Dataset(np.ones((3, 2)), np.ones((3, 2)), np.array(labels), "classification")
    whole = Dataset(np.ones((3, 2)), np.ones((3, 2)), np.array([0.0, 1.0, 2.0]),
                    "classification")
    assert whole.labels.dtype == np.int64 and whole.labels.tolist() == [0, 1, 2]
    # non-numeric and mistyped fields, each named, with no numpy warning first
    two = np.ones((2, 2))
    bad = [
        ("labels", (two, two, np.array(["a", "b"]), "classification")),
        ("labels", (two, two, [None, 1], "classification")),
        ("labels", (two, two, np.array([0 + 1j, 1 + 0j]), "classification")),
        ("labels", (two, two, [0, [1]], "classification")),
        ("features_re", (np.array([["a", "b"], ["c", "d"]]), two, [0, 1],
                         "classification")),
        ("features_im", (two, np.array([[0j, 1j], [1j, 0j]]), [0, 1], "classification")),
        ("labels", (two, two, np.array([["1.5"], ["2"]]), "complex_regression")),
        # widths that load_cvds refuses (dN and k must be positive)
        ("features_re", (np.ones((2, 0)), np.ones((2, 0)), [0, 1], "classification")),
        ("features_re", (np.ones((2, 0)), np.ones((2, 0)), np.ones((2, 1)),
                         "complex_regression")),
        ("labels", (two, two, np.ones((2, 0)), "complex_regression")),
        # regression targets are k real parts then k imaginary parts
        ("labels", (two, two, np.array([[1j], [2.0]]), "complex_regression")),
        ("labels", (two, two, np.ones((2, 3)), "complex_regression")),
        ("labels", (two, two, np.ones(2), "complex_regression")),
    ]
    bad += [("num_classes", (two, two, [0, 1], "classification", "", k))
            for k in (2.5, True, 0, -1, 1, "3")]
    bad += [("provenance", (two, two, labels, task, p))
            for task, labels in (("classification", [0, 1]),
                                 ("complex_regression", [[1.0, 0.0], [2.0, 0.0]]))
            for p in ({"a": [1]}, None, 3, b"p", ["p"])]
    for needle, args in bad:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match=needle):
                Dataset(*args)
    k = Dataset(two, two, [0, 1], "classification", num_classes=np.int64(3)).num_classes
    assert k == 3 and type(k) is int


def test_failed_save_leaves_existing_dataset_untouched(tmp_path):
    cv.save_cvds(synthetic_classification(2, 4, 2, seed=3), tmp_path / "d")
    before = {f.name: f.read_bytes() for f in (tmp_path / "d").iterdir()}
    wide = Dataset(np.zeros((3, 5)), np.zeros((3, 5)), np.array([0, 1, 2 ** 32]),
                   "classification")
    with pytest.raises(DataError, match="uint32"):
        cv.save_cvds(wide, tmp_path / "d")
    assert {f.name: f.read_bytes() for f in (tmp_path / "d").iterdir()} == before
    with pytest.raises(DataError, match="uint32"):
        cv.save_cvds(wide, tmp_path / "fresh")
    assert not (tmp_path / "fresh").exists()


@pytest.mark.parametrize("task", ["classification", "complex_regression"])
def test_failed_third_write_leaves_existing_dataset_untouched(tmp_path, monkeypatch, task):
    def make(seed):
        return (synthetic_classification(4, 3, 2, seed=seed) if task == "classification"
                else random_regression(4, 3, 2, seed=seed))

    cv.save_cvds(make(1), tmp_path / "d")
    before = {f.name: f.read_bytes() for f in (tmp_path / "d").iterdir()}
    writes = []

    def counted(write):
        def wrapper(self, data, *args, **kwargs):
            writes.append(self.name)
            if len(writes) == 3:
                raise OSError(28, "No space left on device", str(self))
            return write(self, data, *args, **kwargs)
        return wrapper

    # meta.json is written as text and the blobs as bytes
    for method in ("write_text", "write_bytes"):
        monkeypatch.setattr(Path, method, counted(getattr(Path, method)))
    with pytest.raises(OSError, match="No space left"):
        cv.save_cvds(make(2), tmp_path / "d")
    assert len(writes) == 3 and writes[2].startswith(".features_im.bin.")
    assert {f.name: f.read_bytes() for f in (tmp_path / "d").iterdir()} == before
    monkeypatch.undo()
    # the same save, unhindered, replaces all four files
    for out in ("d", "ref"):
        cv.save_cvds(make(2), tmp_path / out)
    assert ({f.name: f.read_bytes() for f in (tmp_path / "d").iterdir()}
            == {f.name: f.read_bytes() for f in (tmp_path / "ref").iterdir()})


@pytest.mark.parametrize("name", ["meta.json", "features_re.bin", "features_im.bin",
                                  "labels.bin"])
def test_save_over_a_directory_target_replaces_nothing(tmp_path, name):
    cv.save_cvds(synthetic_classification(4, 3, 2, seed=1), tmp_path / "d")
    (tmp_path / "d" / name).unlink()
    (tmp_path / "d" / name).mkdir()
    before = {f.name: f.is_dir() or f.read_bytes() for f in (tmp_path / "d").iterdir()}
    with pytest.raises(IsADirectoryError, match=name):
        cv.save_cvds(synthetic_classification(4, 3, 2, seed=2), tmp_path / "d")
    assert {f.name: f.is_dir() or f.read_bytes()
            for f in (tmp_path / "d").iterdir()} == before


def test_failed_save_to_a_new_path_leaves_no_directory(tmp_path, monkeypatch):
    writes = []
    write_bytes = Path.write_bytes

    def failing_second(self, data):
        writes.append(self.name)
        if len(writes) == 2:
            raise OSError(28, "No space left on device", str(self))
        return write_bytes(self, data)

    monkeypatch.setattr(Path, "write_bytes", failing_second)
    ds = synthetic_classification(4, 3, 2, seed=1)
    with pytest.raises(OSError, match="No space left"):
        cv.save_cvds(ds, tmp_path / "fresh")
    assert not (tmp_path / "fresh").exists()
    # a directory that was there before the save stays, empty
    (tmp_path / "empty").mkdir()
    writes.clear()
    with pytest.raises(OSError, match="No space left"):
        cv.save_cvds(ds, tmp_path / "empty")
    assert list((tmp_path / "empty").iterdir()) == []


@pytest.mark.parametrize("task", ["classification", "complex_regression"])
def test_dataset_is_frozen_and_read_only(task):
    re = np.ones((3, 4))
    labels = np.zeros(3, dtype=np.int64) if task == "classification" \
        else np.ones((3, 2))
    ds = Dataset(re, np.zeros((3, 4)), labels, task)
    for name in ("features_re", "features_im", "labels"):
        with pytest.raises(ValueError):
            getattr(ds, name)[0] = 1
    with pytest.raises(FrozenInstanceError):
        ds.features_re = np.zeros((3, 4))
    with pytest.raises(FrozenInstanceError):
        ds.provenance = "edited"
    # the caller's arrays stay writable, and the Dataset shares them
    assert np.shares_memory(ds.features_re, re) and np.shares_memory(ds.labels, labels)
    re[0, 0] = 2.0
    labels[0] = labels[1]


def test_replace_shares_the_arrays_it_does_not_override():
    ds = random_regression(5, 4, 2, seed=3)
    out = replace(ds, features_im=np.zeros((5, 4)), provenance="p")
    assert np.shares_memory(out.features_re, ds.features_re)
    assert np.shares_memory(out.labels, ds.labels)
    assert not np.shares_memory(out.features_im, ds.features_im)
    same = cv.add_complex_noise(ds, 0.0, seed=1)
    assert same is ds
    for name in ("features_re", "features_im", "labels"):
        assert np.shares_memory(getattr(same, name), getattr(ds, name)), name
    sub = ds.take(2)
    for name in ("features_re", "features_im", "labels"):
        assert not np.shares_memory(getattr(sub, name), getattr(ds, name)), name


def test_dft_encode_constant_rows():
    rows = np.full((2, 8), 3.0)
    ds = Dataset(rows, np.zeros_like(rows), np.zeros(2, dtype=int),
                 "classification")
    enc = cv.dft_encode(ds)
    assert np.allclose(enc.features_re[:, 0], 24.0, atol=1e-12)
    assert np.abs(enc.features_re[:, 1:]).max() < 1e-12
    assert np.abs(enc.features_im).max() < 1e-12


def test_dft_encode_known_row():
    ds = Dataset(np.array([[1.0, 2.0, 3.0, 4.0]]), np.zeros((1, 4)),
                 np.zeros(1, dtype=int), "classification")
    enc = cv.dft_encode(ds)
    assert np.allclose(enc.features_re[0], [10, -2, -2, -2], atol=1e-12)
    assert np.allclose(enc.features_im[0], [0, 2, 0, -2], atol=1e-12)


def test_dft_encode_conjugate_symmetry_and_inverse():
    g = np.random.default_rng(8)
    rows = g.standard_normal((5, 12))
    ds = Dataset(rows, np.zeros_like(rows), np.zeros(5, dtype=int),
                 "classification")
    enc = cv.dft_encode(ds)
    spec = enc.features_re + 1j * enc.features_im
    # X[b] == conj(X[n-b]) for real input rows
    sym = np.conj(spec[:, (-np.arange(12)) % 12])
    assert np.abs(spec - sym).max() <= 1e-9 * np.abs(spec).max()
    back = tr.dft_array(spec, inverse=True)
    assert np.abs(back.real - rows).max() <= 1e-9
    assert np.abs(back.imag).max() <= 1e-9


def _real_form(m: int, n: int, seed: int) -> Dataset:
    x = np.random.default_rng(seed).standard_normal((m, n))
    return Dataset(x, np.zeros_like(x), np.zeros(m, dtype=int), "classification")


# n: prime (2, 3, 97, 997: the direct sum) and composite (64, 784: the
# split); m around one block of rows, where the last block could hold one row
@pytest.mark.parametrize("n", [2, 3, 64, 97, 784, 997])
def test_dft_encode_bit_identical_to_whole_array_transform(n):
    block = max(2, tr._ROW_BLOCK // n)
    for m in sorted({1, 2, block - 1, block, block + 1, 2000}):
        ds = _real_form(m, n, seed=n + m)
        enc = cv.dft_encode(ds)
        whole = tr.dft_array(ds.features_re)
        assert same_bytes(enc.features_re, whole.real), (n, m)
        assert same_bytes(enc.features_im, whole.imag), (n, m)


def test_dft_encode_peak_is_its_outputs():
    # 2000 x 784: the two float64 outputs are 25.1 MB. Spectra are written
    # into them a block of rows at a time; measured 4.1 MiB above them (the
    # Dataset's finiteness masks and one block's complex temporaries), where
    # a whole-array complex input and output and their copies took 25.9 MiB.
    # Now 3.10 MiB, pinned by the test below.
    ds = _real_form(2000, 784, seed=5)
    cv.dft_encode(ds)  # fills the kernel and twiddle caches
    tracemalloc.start()
    try:
        cv.dft_encode(ds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * ds.features_re.nbytes + (8 << 20), peak


def test_dft_encode_peak_is_its_outputs_without_a_complex_copy():
    # 2000 x 784: the two float64 outputs are 25.1 MB. Each block of real
    # rows goes through the split's real first stage, so no block is copied
    # to complex; measured 3.10 MiB above the outputs, where the complex copy
    # of each block took them to 4.09 MiB. 0.5 MiB is half of that copy.
    ds = _real_form(2000, 784, seed=5)
    cv.dft_encode(ds)  # fills the kernel and twiddle caches
    tracemalloc.start()
    try:
        cv.dft_encode(ds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * ds.features_re.nbytes + 3.6 * 2**20, peak


def test_dft_encode_checks_for_real_form_without_a_full_size_mask():
    # 2000 x 784: a features_im != 0 mask is 1.57 MB. The imaginary channel
    # is read in place, and a refused input allocates no output: measured
    # 9 kB, the error's own. One nonzero entry, the last, is found.
    x = np.random.default_rng(7).standard_normal((2000, 784))
    im = np.zeros_like(x)
    im[-1, -1] = 1.0
    ds = Dataset(x, im, np.zeros(2000, dtype=int), "classification")
    tracemalloc.start()
    try:
        with pytest.raises(DataError, match="real-form"):
            cv.dft_encode(ds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1e5, peak


def test_save_cvds_writes_without_copying_its_arrays(tmp_path):
    # 2000 x 784: each feature block is 12.5 MB. The files are written from
    # the arrays' own buffers; measured 0.02 MB of bookkeeping, where a
    # bytes copy of each block before writing it took 12.6 MB. 1 MB is
    # under a tenth of one block.
    ds = cv.dft_encode(_real_form(2000, 784, seed=6))
    cv.save_cvds(ds, tmp_path / "warm")
    tracemalloc.start()
    try:
        cv.save_cvds(ds, tmp_path / "d")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1e6, peak
    # each file is its array's raw little-endian bytes, as before
    for name, arr in (("features_re.bin", ds.features_re.astype("<f8")),
                      ("features_im.bin", ds.features_im.astype("<f8")),
                      ("labels.bin", ds.labels.astype("<u4"))):
        assert (tmp_path / "d" / name).read_bytes() == arr.tobytes(), name


def test_dft_encode_requires_real_form():
    ds = synthetic_classification(3, 4, 2, seed=9)
    with pytest.raises(DataError):
        cv.dft_encode(ds)


def test_noise_eta_zero_identity():
    ds = synthetic_classification(4, 5, 2, seed=10)
    out = cv.add_complex_noise(ds, 0.0, seed=3)
    assert np.array_equal(out.features_re, ds.features_re)
    assert np.array_equal(out.features_im, ds.features_im)


def test_noise_variance_matches_eta_squared():
    m, dn = 2000, 500  # one million complex entries
    ds = Dataset(np.zeros((m, dn)), np.zeros((m, dn)),
                 np.zeros(m, dtype=int), "classification")
    eta = 2.0  # ablation grid end point
    out = cv.add_complex_noise(ds, eta, seed=11)
    power = np.mean(out.features_re ** 2 + out.features_im ** 2)
    assert abs(power / eta ** 2 - 1.0) < 0.03
    # halves split evenly between the channels
    assert abs(out.features_re.var() / (eta ** 2 / 2) - 1.0) < 0.05


def test_noise_different_seeds_mean_zero_difference():
    ds = Dataset(np.zeros((200, 50)), np.zeros((200, 50)),
                 np.zeros(200, dtype=int), "classification")
    a = cv.add_complex_noise(ds, 1.0, seed=1)
    b = cv.add_complex_noise(ds, 1.0, seed=2)
    diff = a.features_re - b.features_re
    assert not np.array_equal(a.features_re, b.features_re)
    assert abs(diff.mean()) <= 4.0 / np.sqrt(diff.size)


def test_add_complex_noise_peak():
    # 2000 x 784: each output channel is 12.5 MB. Rng.normal draws into its
    # output a block at a time, and the noise is scaled and the features
    # added in place, so the peak is the two outputs: measured 26.66 MB.
    # Scaling into a copy took 37.63 MB, and whole-array draws 75.27 MB.
    x = np.random.default_rng(1).standard_normal((2000, 784))
    ds = Dataset(x, 0.5 * x, np.zeros(2000, dtype=int), "classification")
    cv.add_complex_noise(ds, 0.5, seed=3)
    tracemalloc.start()
    try:
        cv.add_complex_noise(ds, 0.5, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 28e6, peak


def test_noise_deterministic_per_seed():
    ds = synthetic_classification(5, 6, 2, seed=12)
    a = cv.add_complex_noise(ds, 0.5, seed=7)
    b = cv.add_complex_noise(ds, 0.5, seed=7)
    assert np.array_equal(a.features_re, b.features_re)
    assert np.array_equal(a.features_im, b.features_im)


def test_channel_spec_validation():
    with pytest.raises(ContractError):
        ChannelSpec(rho=1.5)
    # the channel itself is fixed: only the input law and the SNR vary
    assert [f.name for f in fields(ChannelSpec)] == ["rho", "snr_db"]


def test_channel_circular_input_variance_split():
    ds = cv.gen_channel_dataset(ChannelSpec(), 60_000, seed=13)
    assert abs(ds.features_re.var() / 0.5 - 1.0) < 0.03
    assert abs(ds.features_im.var() / 0.5 - 1.0) < 0.03


def test_channel_rho_zero_real_input():
    ds = cv.gen_channel_dataset(ChannelSpec(rho=0.0), 500, seed=14)
    assert np.all(ds.features_im == 0)
    assert ds.features_re.std() > 0.5


def test_channel_snr_hits_target():
    # re-derive the clean outputs from the documented substreams and compare
    spec = ChannelSpec()
    m, seed = 200_000, 15
    ds = cv.gen_channel_dataset(spec, m, seed)
    rng = Rng(seed)
    total = m + SEQ_LEN - 1
    a = rng.substream("channel/re").normal(total)
    b = rng.substream("channel/im").normal(total)
    x = np.sqrt(1 - spec.rho ** 2) * a + 1j * spec.rho * b
    filt = np.convolve(x, np.asarray(TAPS))[:total]
    clean = (filt + NL_COEFF * filt ** 2)[SEQ_LEN - 1:]
    noise = ds.labels[:, 0] + 1j * ds.labels[:, 1] - clean
    snr_db = 10 * np.log10(np.mean(np.abs(clean) ** 2) / np.mean(np.abs(noise) ** 2))
    assert abs(snr_db - spec.snr_db) < 0.1


def test_channel_windows_align_chronologically():
    spec = ChannelSpec()
    ds = cv.gen_channel_dataset(spec, 50, seed=16)
    # consecutive windows overlap by SEQ_LEN - 1 entries
    assert np.allclose(ds.features_re[1, :-1], ds.features_re[0, 1:])
    assert np.allclose(ds.features_im[1, :-1], ds.features_im[0, 1:])


def test_channel_deterministic():
    a = cv.gen_channel_dataset(ChannelSpec(), 100, seed=17)
    b = cv.gen_channel_dataset(ChannelSpec(), 100, seed=17)
    assert np.array_equal(a.features_re, b.features_re)
    assert np.array_equal(a.labels, b.labels)
    c = cv.gen_channel_dataset(ChannelSpec(), 100, seed=18)
    assert not np.array_equal(a.features_re, c.features_re)


def test_take_subsets_rows():
    ds = synthetic_classification(10, 4, 2, seed=18)
    sub = ds.take(4)
    assert sub.m == 4
    assert np.array_equal(sub.features_re, ds.features_re[:4])
    with pytest.raises(ContractError):
        ds.take(11)


def test_class_count_survives_subsetting(tmp_path):
    # a split missing the top class keeps the declared k
    labels = np.array([0, 1, 2, 0, 0, 0], dtype=np.int64)
    ds = Dataset(np.ones((6, 4)), np.ones((6, 4)), labels, "classification",
                 num_classes=3)
    assert ds.take(2).k == 3
    cv.save_cvds(ds.take(2), tmp_path / "d")
    assert cv.load_cvds(tmp_path / "d").k == 3
    with pytest.raises(DataError):
        Dataset(np.ones((6, 4)), np.ones((6, 4)), labels, "classification",
                num_classes=2)
