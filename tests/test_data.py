import json

import numpy as np
import pytest

import cvlearn as cv
from cvlearn import transforms as tr
from cvlearn.data import ChannelSpec, Dataset, stacked_targets
from cvlearn.errors import ContractError, DataError
from cvlearn.rng import Rng

from helpers import random_regression, synthetic_classification


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
    with pytest.raises(DataError, match=f"'{field}' must be an integer"):
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


def test_stacked_targets_layout():
    ds = random_regression(3, 4, 2, seed=7)
    t = stacked_targets(ds)
    assert t.shape == (3, 4)
    assert np.array_equal(t[:, :2], ds.labels.real)
    assert np.array_equal(t[:, 2:], ds.labels.imag)


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


def test_noise_deterministic_per_seed():
    ds = synthetic_classification(5, 6, 2, seed=12)
    a = cv.add_complex_noise(ds, 0.5, seed=7)
    b = cv.add_complex_noise(ds, 0.5, seed=7)
    assert np.array_equal(a.features_re, b.features_re)
    assert np.array_equal(a.features_im, b.features_im)


def test_channel_spec_validation():
    with pytest.raises(ContractError):
        ChannelSpec(rho=1.5)
    with pytest.raises(ContractError):
        ChannelSpec(taps=(0.0, 0.0))


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
    total = m + spec.seq_len - 1
    a = rng.substream("channel/re").normal(total)
    b = rng.substream("channel/im").normal(total)
    x = np.sqrt(1 - spec.rho ** 2) * a + 1j * spec.rho * b
    filt = np.convolve(x, np.asarray(spec.taps))[:total]
    clean = (filt + spec.nl_coeff * filt ** 2)[spec.seq_len - 1:]
    noise = ds.labels[:, 0] - clean
    snr_db = 10 * np.log10(np.mean(np.abs(clean) ** 2) / np.mean(np.abs(noise) ** 2))
    assert abs(snr_db - spec.snr_db) < 0.1


def test_channel_windows_align_chronologically():
    spec = ChannelSpec()
    ds = cv.gen_channel_dataset(spec, 50, seed=16)
    # consecutive windows overlap by seq_len - 1 entries
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
