"""Golden SHA-256 digests of training, recipe and CLI results at channel
shapes (dN 5, lN 64).

Tier-1's determinism tests compare two runs inside one process; these
pins compare against the bits the code produced when they were recorded,
so a change that moves any of them fails here. A change that moves bits
on purpose updates the affected digests together with a before/after
table in CHANGES.md.

Floating-point results depend on numpy's kernels and on the BLAS kernel
picked at run time, so the digests are keyed by numpy's major.minor
version, the bundled OpenBLAS's runtime core and the SIMD target numpy
dispatches its float64 ``log``, ``sin`` and ``cos`` to (the Box-Muller
draws behind every initialization and dataset go through them); on any
other key the tests skip. At these shapes the digests do not depend on
the BLAS thread count (checked at 1 and 2 threads).
"""

import contextlib
import ctypes
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cvlearn as cv
import cvlearn.cli  # noqa: F401  (binds cv.cli)
from cvlearn.models import KINDS
from cvlearn.recipes import run_channel_id
from cvlearn.rng import Rng
from cvlearn.train import train_models

# (numpy major.minor, OpenBLAS runtime core, float64 log/sin/cos SIMD
# target) -> result name -> sha256
DIGESTS = {
    ("2.4", "SkylakeX", "X86_V4"): {
        "run_channel_id":
            "e7e89667c97cc838276503caaa72c35c3a8743bf6dd060c04aebe03d15057b85",
        "train_models/rvnn/E1":
            "4c85bcdeb333e49b393b892040886188c4768bee2c170a1961a196d3df1e52f8",
        "train_models/rvnn/E3":
            "dd19d46584d67d9a17e6367d7f8b41ca5509857a50c38ccd558055ec3a7dda41",
        "train_models/cvnn/E1":
            "21fee17f7e9c6b914b0c51f871c92e1992d46b7ef4a8c66469033d6e5fb00b8c",
        "train_models/cvnn/E3":
            "5523328f1e6418da7023884d48efa647f1a504b8a8285eeaa9443852adee9696",
        "train_models/steinmetz/E1":
            "7aa49001425909ee0909e194b82e947e7479586029f4dd1ef5d9c7a4b1dd54b3",
        "train_models/steinmetz/E3":
            "45ac87d728576f6f8b5bc3dc01127c59472980fe4e5bc86a5bce3340c787b910",
        "train_models/analytic/E1":
            "2850327e25336b6ce09131c9834a9c01090d2e76aa66f2d1cb4987930c9e929d",
        "train_models/analytic/E3":
            "1692cedc4bf43437151b59601eb181ce94b7a4245002f19ed29c978141f002c7",
        "cli_train/checkpoint.bin":
            "5e07bb629867a576905c472a7316a2212b29e12d3f2f167b42a6e5bcb261d6f7",
        "cli_train/report":
            "0b8311a40ece26971d3113519cd2df84ee4a7af230660dc44c135b15954bd95b",
    },
}


def _openblas_core() -> str:
    """The runtime core of the OpenBLAS bundled with numpy's wheel, or ""
    when numpy is linked some other way."""
    libs = sorted((Path(np.__file__).parents[1] / "numpy.libs").glob("libscipy_openblas64_*"))
    try:
        corename = ctypes.CDLL(str(libs[0])).scipy_openblas_get_corename64_
    except (IndexError, OSError, AttributeError):
        return ""
    corename.restype = ctypes.c_char_p
    return corename().decode()


def _simd_target() -> str:
    """The SIMD target numpy dispatches float64 ``log``, ``sin`` and ``cos``
    to (several, space-separated, if they differ), or "" before numpy 2."""
    try:
        from numpy.lib.introspect import opt_func_info
    except ImportError:
        return ""
    info = opt_func_info(func_name="^(log|sin|cos)$", signature="float64")
    return " ".join(sorted({sig["current"] for func in info.values() for sig in func.values()}))


KEY = (".".join(np.__version__.split(".")[:2]), _openblas_core(), _simd_target())


@pytest.fixture(scope="module")
def pins() -> dict:
    if KEY not in DIGESTS:
        pytest.skip(f"no digests recorded for numpy {KEY[0]} with OpenBLAS core {KEY[1]!r} "
                    f"and SIMD target {KEY[2]!r}")
    return DIGESTS[KEY]


def test_key_names_the_simd_target_numpy_dispatches_to():
    # with AVX-512 switched off, numpy's log, sin and cos take other
    # kernels and Rng's normals change bits, so the key must change too
    # and the digest tests skip rather than fail
    if KEY[2] != "X86_V4":
        pytest.skip(f"needs the X86_V4 target, not {KEY[2]!r}")
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR",
               PYTHONPATH=os.pathsep.join(sys.path))
    code = ("import hashlib, test_digests as t; from cvlearn.rng import Rng; "
            "print(t.KEY[2], hashlib.sha256(Rng(2024).normal(1001).tobytes()).hexdigest())")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, cwd=Path(__file__).parent, check=True).stdout.split()
    assert out[0] != KEY[2] and out[0] not in {k[2] for k in DIGESTS}
    assert out[1] != hashlib.sha256(Rng(2024).normal(1001).tobytes()).hexdigest()


def _sha(*parts) -> str:
    """sha256 over byte strings and the sorted-key JSON of anything else."""
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes)
                 else json.dumps(part, sort_keys=True).encode("utf-8"))
    return h.hexdigest()


def run_channel_id_digest() -> str:
    return _sha(run_channel_id(base_seed=1, n_seeds=2, epochs=3, m=200, test_m=200))


def train_models_digest(kind: str, members: int) -> str:
    seeds = range(1, members + 1)
    train_sets = [cv.gen_channel_dataset(cv.ChannelSpec(), 200, seed=s) for s in seeds]
    test_sets = [cv.gen_channel_dataset(cv.ChannelSpec(), 100, seed=100 + s) for s in seeds]
    spec = cv.NetworkSpec(kind, train_sets[0].dn, 64, train_sets[0].k, "complex_regression")
    cfgs = [cv.TrainConfig(learning_rate=1e-3, beta=1e-3 if kind == "analytic" else 0.0,
                           epochs=2, batch_size=32, seed=s) for s in seeds]
    parts = []
    for model, records in train_models(spec, train_sets, cfgs, test_sets):
        for name, p in model.params.items():
            # each weight as its [out, in] transpose, the order the pins were
            # recorded in; p.T of a bias is the bias
            parts += [name.encode(), np.ascontiguousarray(p.T, dtype="<f8").tobytes()]
        parts.append(records)
    return _sha(*parts)


def cli_train_digests(tmp: Path) -> dict:
    cv.save_cvds(cv.gen_channel_dataset(cv.ChannelSpec(), 200, seed=1), tmp / "train")
    cv.save_cvds(cv.gen_channel_dataset(cv.ChannelSpec(), 100, seed=2), tmp / "test")
    config = {"arch": "analytic", "latent_dim": 64, "train_dataset": str(tmp / "train"),
              "test_dataset": str(tmp / "test"), "learning_rate": 1e-3, "beta": 1e-3,
              "epochs": 3, "seed": 5, "noise_eta": 0.3}
    (tmp / "config.json").write_text(json.dumps(config))
    with contextlib.redirect_stdout(io.StringIO()):
        code = cv.cli.main(["train", "--config", str(tmp / "config.json"),
                            "--out", str(tmp / "run")])
    assert code == 0
    report = json.loads((tmp / "run" / "report.json").read_text())
    # the report's config echoes temp paths, and its wall clock varies
    return {"cli_train/checkpoint.bin": _sha((tmp / "run" / "checkpoint.bin").read_bytes()),
            "cli_train/report": _sha(report["epochs"], report["final"])}


def test_run_channel_id_digest(pins):
    assert run_channel_id_digest() == pins["run_channel_id"]


@pytest.mark.parametrize("members", [1, 3])
@pytest.mark.parametrize("kind", KINDS)
def test_train_models_digest(pins, kind, members):
    assert train_models_digest(kind, members) == pins[f"train_models/{kind}/E{members}"]


def test_cli_train_digests(pins, tmp_path):
    got = cli_train_digests(tmp_path)
    assert got == {name: pins[name] for name in got}
