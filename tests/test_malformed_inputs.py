"""Malformed CVDS directories, checkpoints and command-line inputs.

The loaders either return or raise DataError, whatever the bytes on
disk; through the CLI every malformed input ends in its documented exit
code (1 for validation errors, 2 for data errors and unreadable files)
with one stderr line and no traceback.
"""

import contextlib
import io
import json
import tempfile
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import cvlearn as cv
import cvlearn.cli  # noqa: F401  (binds cv.cli)
from cvlearn.errors import DataError

from helpers import cli, synthetic_classification

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# every value Python's json module can produce, NaN and +-Infinity included
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=8)

META_KEYS = ("M", "dN", "k", "task", "dtype", "endianness", "provenance")
BLOBS = ("features_re.bin", "features_im.bin", "labels.bin")
HEADER_KEYS = ("format", "spec", "seed", "epoch", "params", "dtype", "endianness")
SPEC_KEYS = tuple(f.name for f in fields(cv.NetworkSpec))

DATASETS = {
    "classification": synthetic_classification(3, 2, 2, seed=1),
    "complex_regression": cv.gen_channel_dataset(cv.ChannelSpec(), 3, seed=1),
}
SPEC = cv.NetworkSpec(kind="rvnn", input_dim=2, latent_dim=2, output_dim=2,
                      task="classification")


def _checkpoint_bytes() -> tuple[dict, bytes]:
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "ckpt.bin"
        cv.save_checkpoint(cv.init_params(SPEC, 1), path, seed=1, epoch=0)
        header_line, blob = path.read_bytes().split(b"\n", 1)
    return json.loads(header_line), blob


HEADER, BLOB = _checkpoint_bytes()


def _returns_or_data_error(load, path) -> bool:
    """True when ``load(path)`` returns, False when it raises DataError;
    any other exception fails the test."""
    try:
        load(path)
    except DataError:
        return False
    return True


def _cvds(task: str, edit) -> bool:
    """Save the task's dataset, apply ``edit(dir)`` and load it back."""
    with tempfile.TemporaryDirectory() as d:
        cv.save_cvds(DATASETS[task], d)
        edit(Path(d))
        return _returns_or_data_error(cv.load_cvds, d)


def _write_checkpoint(path: Path, header, blob: bytes) -> None:
    path.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + blob)


def _checkpoint(header, blob: bytes) -> bool:
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "ckpt.bin"
        _write_checkpoint(path, header, blob)
        return _returns_or_data_error(cv.load_checkpoint, path)


def _with_overrides(data, header: dict) -> dict:
    """``header`` with arbitrary JSON drawn under its known keys, under
    the keys of its spec, and under the keys of one params entry."""
    header = json.loads(json.dumps(header))
    for key in data.draw(st.sets(st.sampled_from(HEADER_KEYS))):
        header[key] = data.draw(JSON)
    if isinstance(header.get("spec"), dict):
        for key in data.draw(st.sets(st.sampled_from(SPEC_KEYS))):
            header["spec"][key] = data.draw(JSON)
    entries = header.get("params")
    if isinstance(entries, list) and entries and data.draw(st.booleans()):
        i = data.draw(st.integers(0, len(entries) - 1))
        if isinstance(entries[i], dict):
            entries[i][data.draw(st.sampled_from(("name", "shape")))] = data.draw(JSON)
    return header


def _resized(data, blob: bytes) -> bytes:
    """``blob`` truncated, extended or replaced by arbitrary bytes of its
    own length (which may decode to NaN or Inf)."""
    how = data.draw(st.sampled_from(("truncate", "extend", "replace")))
    if how == "truncate":
        return blob[:data.draw(st.integers(0, max(len(blob) - 1, 0)))]
    if how == "extend":
        return blob + data.draw(st.binary(min_size=1, max_size=24))
    return data.draw(st.binary(min_size=len(blob), max_size=len(blob)))


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(
    kind=st.sampled_from(cv.models.KINDS), task=st.sampled_from(sorted(DATASETS)),
    dims=st.tuples(st.integers(1, 4), st.integers(1, 3), st.integers(1, 3)),
    seed=st.integers(0, 2 ** 32 - 1), grow=st.none() | st.integers(0, 11))
def test_every_model_that_constructs_round_trips_through_a_checkpoint(
        kind, task, dims, seed, grow):
    """Random finite parameters at the spec's shapes, or with parameter
    ``grow`` one entry longer: a Model that constructs saves and loads back
    equal, and one that does not names the layout."""
    dn, half_ln, k = dims
    spec = cv.NetworkSpec(kind=kind, input_dim=dn, latent_dim=2 * half_ln, output_dim=k,
                          task=task)
    g = np.random.default_rng(seed)
    params = {name: g.standard_normal(shape)
              for name, shape in cv.models._param_shapes(spec).items()}
    if grow is not None:
        name = list(params)[grow % len(params)]
        params[name] = g.standard_normal(params[name].size + 1)
    try:
        model = cv.Model(spec, params)
    except DataError as e:
        assert grow is not None and "layout" in str(e)
        return
    with tempfile.TemporaryDirectory() as d:
        cv.save_checkpoint(model, Path(d) / "ckpt.bin", seed=seed, epoch=3)
        loaded, header = cv.load_checkpoint(Path(d) / "ckpt.bin")
    assert loaded.spec == spec and (header["seed"], header["epoch"]) == (seed, 3)
    assert list(loaded.params) == list(params)
    for name, p in params.items():
        assert np.array_equal(loaded.params[name], p)


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(st.sampled_from(sorted(DATASETS)),
                  st.dictionaries(st.sampled_from(META_KEYS), JSON, min_size=1),
                  st.sets(st.sampled_from(META_KEYS)))
def test_load_cvds_meta_arbitrary_json_under_known_keys(task, overrides, dropped):
    def edit(d):
        meta = json.loads((d / "meta.json").read_text())
        for key in dropped:
            meta.pop(key)
        meta.update(overrides)
        (d / "meta.json").write_text(json.dumps(meta))
    _cvds(task, edit)


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(st.sampled_from(sorted(DATASETS)), st.binary(max_size=64))
def test_load_cvds_meta_arbitrary_bytes(task, blob):
    assert not _cvds(task, lambda d: (d / "meta.json").write_bytes(blob))


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(st.sampled_from(sorted(DATASETS)), st.sampled_from(BLOBS), st.data())
def test_load_cvds_blobs_of_any_length(task, name, data):
    def edit(d):
        (d / name).write_bytes(_resized(data, (d / name).read_bytes()))
    _cvds(task, edit)


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(st.data())
def test_load_checkpoint_header_arbitrary_json_under_known_keys(data):
    _checkpoint(_with_overrides(data, HEADER), BLOB)


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(st.data())
def test_load_checkpoint_blob_of_any_length(data):
    _checkpoint(HEADER, _resized(data, BLOB))


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(st.binary(max_size=64), st.booleans())
def test_load_checkpoint_header_arbitrary_bytes(line, newline):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "ckpt.bin"
        path.write_bytes(line + (b"\n" + BLOB if newline else b""))
        assert not _returns_or_data_error(cv.load_checkpoint, path)


def _main(*argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = cv.cli.main([str(a) for a in argv])
    return code, err.getvalue()


@hypothesis.settings(max_examples=25, deadline=None)
@hypothesis.given(st.data())
def test_cli_eval_malformed_checkpoint_exits_2_with_one_line(data):
    header, blob = HEADER, BLOB
    if data.draw(st.booleans()):
        header = _with_overrides(data, HEADER)
    else:
        blob = _resized(data, BLOB)
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "ckpt.bin"
        _write_checkpoint(path, header, blob)
        hypothesis.assume(not _returns_or_data_error(cv.load_checkpoint, path))
        cv.save_cvds(DATASETS["classification"], Path(d) / "ds")
        code, err = _main("eval", "--checkpoint", path, "--dataset", Path(d) / "ds")
    assert code == 2
    assert err.startswith("data error: ") and err.count("\n") == 1, err


def test_fuzz_base_inputs_load():
    # the unmutated inputs are valid, so the fuzzers start from working files
    for task in DATASETS:
        assert _cvds(task, lambda d: None)
    assert _checkpoint(HEADER, BLOB)


# ---------------------------------------------------------------------------
# the CLI, one process per input: exit code, one stderr line, no traceback


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """A channel CVDS set, a trained checkpoint and a good train config."""
    w = tmp_path_factory.mktemp("malformed")
    cv.save_cvds(cv.gen_channel_dataset(cv.ChannelSpec(), 40, seed=1), w / "chan")
    config = {"arch": "rvnn", "latent_dim": 4, "train_dataset": str(w / "chan"),
              "learning_rate": 0.01, "epochs": 1}
    (w / "good.json").write_text(json.dumps(config))
    cv.run_training(config, w / "run")
    return w


def _bad_checkpoint(w: Path) -> Path:
    # every parameter listed at the spec's declared shape, the first 2**62 x 10
    # float64s: np.prod of such a shape wraps around in int64
    header = json.loads((w / "run" / "checkpoint.bin").read_bytes().split(b"\n", 1)[0])
    header["spec"]["latent_dim"] = 2 ** 62
    shapes = cv.models._param_shapes(cv.NetworkSpec(**header["spec"]))
    header["params"] = [{"name": name, "shape": list(shape)} for name, shape in shapes.items()]
    _write_checkpoint(w / "huge.bin", header, b"")
    return w / "huge.bin"


def _features_dir(w: Path) -> Path:
    d = w / "dirblob"
    cv.save_cvds(cv.gen_channel_dataset(cv.ChannelSpec(), 4, seed=2), d)
    (d / "features_re.bin").unlink()
    (d / "features_re.bin").mkdir()
    return d


def _cvds_bad_meta(w: Path) -> Path:
    d = w / "badmeta"
    cv.save_cvds(cv.gen_channel_dataset(cv.ChannelSpec(), 4, seed=2), d)
    (d / "meta.json").write_bytes(b'{"M": 4, "task": "\xff\xfe"}')
    return d


def _cvds_inf_label(w: Path) -> Path:
    d = w / "inflabel"
    cv.save_cvds(cv.gen_channel_dataset(cv.ChannelSpec(), 4, seed=2), d)
    flat = np.fromfile(d / "labels.bin", dtype="<f8")
    flat[1] = np.inf    # an imaginary part: 1j * inf made numpy warn
    flat.tofile(d / "labels.bin")
    return d


def _overflowing_checkpoint(w: Path, scale: float = 1e200) -> Path:
    # finite parameters whose products overflow on the way through the network
    header, blob = (w / "run" / "checkpoint.bin").read_bytes().split(b"\n", 1)
    path = w / f"overflow{scale:g}.bin"
    _write_checkpoint(path, json.loads(header),
                      (np.frombuffer(blob, dtype="<f8") * scale).tobytes())
    return path


def _huge_latent_checkpoint(w: Path) -> Path:
    # latents of about 1e160, whose covariance norm is beyond float range,
    # while fc3's 1e-160 weights keep the predictions finite
    scales = {"fc1.w": 1e80, "fc1.b": 1e80, "fc2.w": 1e80, "fc2.b": 1e160, "fc3.w": 1e-160}
    header, blob = (w / "run" / "checkpoint.bin").read_bytes().split(b"\n", 1)
    header = json.loads(header)
    flat = np.frombuffer(blob, dtype="<f8").copy()
    start = 0
    for entry in header["params"]:
        end = start + int(np.prod(entry["shape"]))
        flat[start:end] *= scales.get(entry["name"], 1.0)
        start = end
    _write_checkpoint(w / "huge-latent.bin", header, flat.tobytes())
    return w / "huge-latent.bin"


def _config(w: Path, name: str, content: bytes) -> Path:
    (w / name).write_bytes(content)
    return w / name


def _latent_config(w: Path, latent_dim: int) -> Path:
    config = json.loads((w / "good.json").read_text())
    return _config(w, f"latent{latent_dim}.json",
                   json.dumps({**config, "latent_dim": latent_dim}).encode())


CASES = {
    "eval-missing-checkpoint": (2, "absent.bin", lambda w: [
        "eval", "--checkpoint", w / "absent.bin", "--dataset", w / "chan"]),
    "eval-checkpoint-is-directory": (2, "Is a directory", lambda w: [
        "eval", "--checkpoint", w / "chan", "--dataset", w / "chan"]),
    "eval-checkpoint-huge-shape": (2, "checkpoint blob: expected", lambda w: [
        "eval", "--checkpoint", _bad_checkpoint(w), "--dataset", w / "chan"]),
    "eval-checkpoint-overflows": (2, "not all finite", lambda w: [
        "eval", "--checkpoint", _overflowing_checkpoint(w), "--dataset", w / "chan",
        "--out", w / "o1.json"]),
    "diag-checkpoint-overflows": (2, "not all finite", lambda w: [
        "diag", "--checkpoint", _overflowing_checkpoint(w), "--dataset", w / "chan",
        "--out", w / "o2.json"]),
    # predictions and metrics stay finite; the latent covariance norm does not
    "diag-latent-covariance-overflows": (2, "latent covariance norm is not finite",
                                         lambda w: ["diag", "--checkpoint",
                                                    _huge_latent_checkpoint(w),
                                                    "--dataset", w / "chan"]),
    "train-config-is-directory": (2, "Is a directory", lambda w: [
        "train", "--config", w / "chan", "--out", w / "r1"]),
    "train-config-not-utf8": (1, "config is not valid JSON", lambda w: [
        "train", "--config", _config(w, "latin.json", b'{"arch": "\xe9"}'),
        "--out", w / "r2"]),
    "train-out-is-a-file": (2, "File exists", lambda w: [
        "train", "--config", w / "good.json", "--out", w / "good.json"]),
    # the first weight needs 8e16 bytes, beyond any address space
    "train-latent-dim-too-big": (1, "latent_dim", lambda w: [
        "train", "--config", _latent_config(w, 10 ** 15), "--out", w / "r3"]),
    # 8e19 bytes: past numpy's size limit, and np.prod of the shape wraps
    "train-latent-dim-past-array-limit": (1, "latent_dim", lambda w: [
        "train", "--config", _latent_config(w, 10 ** 18), "--out", w / "r4"]),
    "gen-features-blob-is-directory": (2, "Is a directory", lambda w: [
        "gen", "--task", "noise", "--eta", "0.5", "--in", _features_dir(w),
        "--out", w / "n1"]),
    "gen-meta-not-utf8": (2, "meta.json is not valid JSON", lambda w: [
        "gen", "--task", "noise", "--eta", "0.5", "--in", _cvds_bad_meta(w),
        "--out", w / "n2"]),
    "gen-labels-inf": (2, "labels", lambda w: [
        "gen", "--task", "noise", "--eta", "0.5", "--in", _cvds_inf_label(w),
        "--out", w / "n8"]),
    "gen-eta-nan": (1, "eta", lambda w: [
        "gen", "--task", "noise", "--eta", "nan", "--in", w / "chan", "--out", w / "n3"]),
    "gen-eta-inf": (1, "eta", lambda w: [
        "gen", "--task", "noise", "--eta", "inf", "--in", w / "chan", "--out", w / "n4"]),
    "gen-snr-db-nan": (1, "snr_db", lambda w: [
        "gen", "--task", "channel", "--m", "8", "--snr-db", "nan", "--out", w / "n5"]),
    # 10**(snr_db/10) overflows, or underflows to zero
    "gen-snr-db-overflows": (1, "snr_db", lambda w: [
        "gen", "--task", "channel", "--m", "8", "--snr-db=3100", "--out", w / "n9"]),
    "gen-snr-db-underflows": (1, "snr_db", lambda w: [
        "gen", "--task", "channel", "--m", "8", "--snr-db=-3300", "--out", w / "n10"]),
    "gen-eta-overflows": (2, "non-finite", lambda w: [
        "gen", "--task", "noise", "--eta", "1e308", "--in", w / "chan", "--out", w / "n11"]),
    # the channel draws alone need 8e15 bytes, beyond any address space
    "gen-m-too-big": (1, "--m", lambda w: [
        "gen", "--task", "channel", "--m", 10 ** 15, "--out", w / "n6"]),
    # past numpy's size limit
    "gen-m-past-array-limit": (1, "--m", lambda w: [
        "gen", "--task", "channel", "--m", 10 ** 20, "--out", w / "n7"]),
    "experiment-seeds-0": (1, "n_seeds", lambda w: [
        "experiment", "--recipe", "channel-id", "--seeds", "0", "--out", w / "e1"]),
    "experiment-seeds-negative": (1, "n_seeds", lambda w: [
        "experiment", "--recipe", "channel-id", "--seeds", "-2", "--out", w / "e2"]),
    # usage errors: the parser's own message, as one error: line
    "usage-no-command": (1, "required: command", lambda w: []),
    "usage-unknown-command": (1, "invalid choice: 'bogus'", lambda w: ["bogus"]),
    "usage-train-no-flags": (1, "required: --config, --out", lambda w: ["train"]),
    "usage-gen-unknown-task": (1, "argument --task: invalid choice", lambda w: [
        "gen", "--task", "bogus", "--out", "x"]),
    "usage-gen-m-not-an-int": (1, "argument --m: invalid int value", lambda w: [
        "gen", "--task", "channel", "--m", "abc", "--out", "x"]),
    "usage-eval-checkpoint-no-value": (1, "argument --checkpoint: expected one", lambda w: [
        "eval", "--checkpoint"]),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_bad_input_one_line_no_traceback(work, case):
    code, needle, argv = CASES[case]
    out = cli(*argv(work), cwd=work)
    assert out.returncode == code, out.stderr
    assert "Traceback" not in out.stderr
    assert len(out.stderr.splitlines()) == 1, out.stderr
    assert out.stderr.startswith("data error: " if code == 2 else "error: "), out.stderr
    assert needle in out.stderr, out.stderr


def test_cli_help_exits_0(work):
    out = cli("train", "--help", cwd=work)
    assert (out.returncode, out.stderr) == (0, "")
    assert "--config" in out.stdout


@pytest.mark.parametrize("case", ["train-latent-dim-too-big",
                                  "train-latent-dim-past-array-limit"])
def test_cli_failed_train_writes_no_run_files(work, case):
    _, _, argv = CASES[case]
    args = argv(work)
    out_dir = Path(args[args.index("--out") + 1])
    assert cli(*args, cwd=work).returncode != 0
    assert not out_dir.exists()  # nor run files, nor the directory the run made


def test_cli_failed_train_keeps_an_existing_out_dir(work):
    empty, used = work / "kept-empty", work / "kept-used"
    empty.mkdir()
    used.mkdir()
    (used / "notes.txt").write_text("mine")
    for out_dir in (empty, used):
        out = cli("train", "--config", _latent_config(work, 10 ** 15), "--out", out_dir,
                  cwd=work)
        assert out.returncode == 1 and "latent_dim" in out.stderr, out.stderr
    assert list(empty.iterdir()) == []
    assert [f.name for f in used.iterdir()] == ["notes.txt"]
    assert (used / "notes.txt").read_text() == "mine"


@pytest.mark.parametrize("case", ["eval-checkpoint-overflows", "diag-checkpoint-overflows"])
def test_cli_overflowing_checkpoint_writes_no_out_file(work, case):
    _, _, argv = CASES[case]
    args = argv(work)
    assert cli(*args, cwd=work).returncode == 2
    assert not Path(args[args.index("--out") + 1]).exists()


# 1e200: the predictions overflow; 1e60: they stay finite, their squared errors do not
@pytest.mark.parametrize("scale", [1e200, 1e60])
def test_evaluate_overflowing_parameters_is_a_data_error(work, scale):
    model, _ = cv.load_checkpoint(_overflowing_checkpoint(work, scale))
    ds = cv.load_cvds(work / "chan")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy warning before the error
        with pytest.raises(DataError, match="not all finite"):
            cv.evaluate(model, ds)


def test_cli_diag_large_latents_have_finite_covariance_norms(work):
    # a checkpoint scaled by 1e40 gives latents of about 1e80, whose squared
    # entries would overflow; the covariance is taken on rescaled latents
    out = cli("diag", "--checkpoint", _overflowing_checkpoint(work, 1e40),
              "--dataset", work / "chan", cwd=work)
    assert (out.returncode, out.stderr) == (0, ""), out.stderr
    payload = json.loads(out.stdout)
    norms = [payload[key] for key in ("norm_j", "norm_s", "norm_ratio")]
    assert all(np.isfinite(norms)), norms
    assert payload["norm_j"] >= payload["norm_s"] > 0


@pytest.mark.parametrize("kernel,argv", [
    ("_dft_kernel", ["gen", "--task", "dft-encode"]),
    ("_cotangent_kernel", ["hilbert", "--method", "cotangent"])])
def test_cli_out_of_memory_is_one_error_line(tmp_path, monkeypatch, kernel, argv):
    # a stand-in for a dense kernel too large to allocate: a real request of
    # that size may be granted by the OS and then killed when touched
    def unaffordable(n, *args):
        raise MemoryError(f"Unable to allocate a {n} x {n} kernel")
    monkeypatch.setattr(cv.transforms, kernel, unaffordable)
    real_form = cv.Dataset(np.ones((2, 6)), np.zeros((2, 6)), np.array([0, 1]), "classification")
    cv.save_cvds(real_form, tmp_path / "d")
    code, err = _main(*argv, "--in", tmp_path / "d", "--out", tmp_path / "out")
    assert code == 1
    assert err.startswith(f"error: {argv[0]}: out of memory") and err.count("\n") == 1, err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("case", ["gen-m-too-big", "gen-m-past-array-limit"])
def test_cli_failed_gen_writes_no_output_dir(work, case):
    _, _, argv = CASES[case]
    args = argv(work)
    assert cli(*args, cwd=work).returncode == 1
    assert not Path(args[args.index("--out") + 1]).exists()


def test_checkpoint_other_dtype_rejected(work):
    header, blob = (work / "run" / "checkpoint.bin").read_bytes().split(b"\n", 1)
    header = {**json.loads(header), "dtype": "f32"}
    _write_checkpoint(work / "f32.bin", header, blob)
    with pytest.raises(DataError, match="f64"):
        cv.load_checkpoint(work / "f32.bin")


def test_checkpoint_parameter_listed_twice_rejected(work):
    header, blob = (work / "run" / "checkpoint.bin").read_bytes().split(b"\n", 1)
    header = json.loads(header)
    first = header["params"][0]
    header["params"].insert(0, dict(first))
    _write_checkpoint(work / "twice.bin", header,
                      np.zeros(first["shape"]).tobytes() + blob)
    with pytest.raises(DataError, match="field params lists"):
        cv.load_checkpoint(work / "twice.bin")


def test_non_finite_eta_and_snr_name_the_field():
    ds = DATASETS["complex_regression"]
    for eta in (np.nan, np.inf, -1.0):
        with pytest.raises(cv.ContractError, match="eta"):
            cv.add_complex_noise(ds, eta, seed=1)
    for snr_db in (np.nan, np.inf, -np.inf):
        with pytest.raises(cv.ContractError, match="snr_db"):
            cv.ChannelSpec(snr_db=snr_db)
