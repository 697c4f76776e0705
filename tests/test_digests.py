"""Golden SHA-256 digests of training, recipe and CLI results at channel
shapes (dN 5, lN 64).

Tier-1's determinism tests compare two runs inside one process; these
pins compare against the bits the code produced when they were recorded,
so a change that moves any of them fails here. A change that moves bits
on purpose updates the affected digests together with a before/after
table in CHANGES.md.

Floating-point results depend on numpy's kernels and on the BLAS kernel
picked at run time, so the digests are keyed by numpy's major.minor
version and the bundled OpenBLAS's runtime core; on any other key the
tests skip. At these shapes the digests do not depend on the BLAS thread
count (checked at 1 and 2 threads).
"""

import contextlib
import ctypes
import hashlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

import cvlearn as cv
import cvlearn.cli  # noqa: F401  (binds cv.cli)
from cvlearn.models import KINDS
from cvlearn.recipes import run_channel_id
from cvlearn.train import train_models

# (numpy major.minor, OpenBLAS runtime core) -> result name -> sha256
DIGESTS = {
    ("2.4", "SkylakeX"): {
        "run_channel_id":
            "dd2e1dfa289459bc4c38e67ba46eb708a50d4868c7f852a8a41a7cc13e37426a",
        "train_models/rvnn/E1":
            "4c85bcdeb333e49b393b892040886188c4768bee2c170a1961a196d3df1e52f8",
        "train_models/rvnn/E3":
            "dd19d46584d67d9a17e6367d7f8b41ca5509857a50c38ccd558055ec3a7dda41",
        "train_models/cvnn/E1":
            "21fee17f7e9c6b914b0c51f871c92e1992d46b7ef4a8c66469033d6e5fb00b8c",
        "train_models/cvnn/E3":
            "5523328f1e6418da7023884d48efa647f1a504b8a8285eeaa9443852adee9696",
        "train_models/steinmetz/E1":
            "008ef7aae7e61ced05c5fd12b6cab0396fdd86cba552f04a6986aca4df3fb9b2",
        "train_models/steinmetz/E3":
            "571eb8f57a64035ba0e9c718c485eaeababb163665b06615b0af46c1a2dfd811",
        "train_models/analytic/E1":
            "18756db85eee474efb95c150651114cc5d0d8af2da1928d2f0d2e1dd3960e735",
        "train_models/analytic/E3":
            "73197b0a1a17414073760f1fabea17081b6883cd09ddd5a695bb3f1c20318a10",
        "cli_train/checkpoint.bin":
            "238383679bddcdc567bd68614ed281889c309e487e66a5e2b49908b62a016270",
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


KEY = (".".join(np.__version__.split(".")[:2]), _openblas_core())


@pytest.fixture(scope="module")
def pins() -> dict:
    if KEY not in DIGESTS:
        pytest.skip(f"no digests recorded for numpy {KEY[0]} with OpenBLAS core {KEY[1]!r}")
    return DIGESTS[KEY]


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
            parts += [name.encode(), np.ascontiguousarray(p, dtype="<f8").tobytes()]
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
