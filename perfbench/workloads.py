"""The benchmark's workloads: inputs made from the seed, one round of
operations, and the checks on each operation's output.

Both workloads run the same round, at two shape regimes:

- ``small``: channel-identification shapes (complex regression, dN = 5,
  lN = 64, batch 32, M = 1000). Per-op tape overhead and Adam's
  per-tensor loop dominate; the radix-2 FFT carries the analytic penalty.
- ``spectral``: cvmnist500 / noise-sweep shapes with synthetic 28 x 28
  real-form images standing in for MNIST. ``dft_encode`` gives dN = 784
  (direct DFT path), k = 10 classification, about 110k parameters, so
  bytes moved by Adam and BLAS-bound evaluation dominate.

A round is, in this order: for each architecture one ``train_model``
call and one ``evaluate`` of the trained model on the evaluation set;
one recipe call (``run_channel_id`` or ``run_cvmnist500``); and the
README command sequence through ``cvlearn.cli.main`` (gen, gen, train,
eval, diag, hilbert --analytic). Every call goes through the module
attribute, so the tracer's wrappers see it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import cvlearn as cv
import cvlearn.cli  # noqa: F401  (binds cv.cli)

ARCHS = ("rvnn", "cvnn", "steinmetz", "analytic")
LATENT = 64
BATCH = 32
CLI_ARCH = "analytic"   # the architecture the CLI `train` command trains
HILBERT_CHECK_ROWS = 4


class CheckError(Exception):
    """An operation returned output that fails its check."""


@dataclass(frozen=True)
class Sizes:
    train_m: int        # rows of the train_model training set
    eval_m: int         # rows of the evaluate set
    cli_train_m: int    # rows of the CLI training set
    cli_test_m: int     # rows of the CLI test set (and hilbert input)
    recipe_m: int       # recipe training rows (spectral) or test rows (small)
    epochs: int         # epochs per train_model call, recipe run and CLI train


@dataclass(frozen=True)
class Kind:
    name: str
    lr: float
    beta: float
    recipe_seeds: int
    full: Sizes
    reference: Sizes
    # spans the traced run must see, and spans it must not see
    expected: tuple
    absent: tuple


_COMMON_SPANS = (
    "train.train_model", "train.evaluate", "models.forward", "autodiff.backward",
    "losses.adam_step", "losses.task_loss", "losses.hilbert_penalty",
    "transforms.hilbert", "transforms.dft", "models.latent_channels",
    "models.checkpoint", "data.load_cvds", "data.save_cvds",
    "diagnostics.mse_metric", "diagnostics.covariance_comparison",
    "diagnostics.latent_orthogonality_counted", "diagnostics.latent_orthogonality",
    "cli.gen", "cli.train", "cli.eval", "cli.diag", "cli.hilbert",
)

KINDS = {
    "small": Kind(
        name="small", lr=1e-4, beta=1e-4, recipe_seeds=2,
        full=Sizes(train_m=1000, eval_m=10000, cli_train_m=1000,
                   cli_test_m=1000, recipe_m=1000, epochs=2),
        reference=Sizes(train_m=1000, eval_m=1000, cli_train_m=500,
                        cli_test_m=500, recipe_m=500, epochs=1),
        expected=_COMMON_SPANS + ("recipes.run_channel_id", "data.gen_channel_dataset",
                                  "diagnostics.mag_phase_mse"),
        absent=("recipes.run_cvmnist500", "data.dft_encode"),
    ),
    "spectral": Kind(
        name="spectral", lr=1e-3, beta=1e-3, recipe_seeds=1,
        full=Sizes(train_m=2000, eval_m=10000, cli_train_m=2000,
                   cli_test_m=2000, recipe_m=500, epochs=1),
        reference=Sizes(train_m=256, eval_m=512, cli_train_m=256,
                        cli_test_m=512, recipe_m=128, epochs=1),
        expected=tuple(s for s in _COMMON_SPANS if s != "diagnostics.mse_metric")
        + ("recipes.run_cvmnist500", "data.dft_encode", "diagnostics.accuracy"),
        absent=("recipes.run_channel_id", "data.gen_channel_dataset"),
    ),
}

# spans that must never fire inside rvnn, cvnn or steinmetz work
NON_ANALYTIC_ABSENT = ("transforms.hilbert", "transforms.dft", "losses.hilbert_penalty")


@dataclass
class Op:
    kind: str                       # "train", "eval", "recipe" or "cli"
    label: str                      # architecture or CLI command
    run: Callable[[], object]
    check: Callable[[object], None]


def _sub_seed(seed: int, name: str) -> int:
    return cv.Rng(seed).substream(name).seed % (2 ** 31)


def _finite(value, where: str) -> None:
    if isinstance(value, dict):
        for k, v in value.items():
            _finite(v, f"{where}.{k}")
    elif isinstance(value, (list, tuple)):
        for i, v in enumerate(value):
            _finite(v, f"{where}[{i}]")
    elif isinstance(value, float) and not math.isfinite(value):
        raise CheckError(f"{where} is not finite: {value}")


def _digest(params: dict) -> str:
    h = hashlib.sha256()
    for name, p in params.items():
        h.update(name.encode())
        h.update(np.ascontiguousarray(p, dtype="<f8").tobytes())
    return h.hexdigest()


def synthetic_images(m: int, seed: int, k: int = 10) -> tuple[np.ndarray, np.ndarray]:
    """Real-form 28 x 28 images: a class template of three Gaussian blobs
    plus uniform noise, clipped to [0, 1]; returns (pixels [m, 784], labels)."""
    rng = cv.Rng(seed)
    yy, xx = np.mgrid[0:28, 0:28]
    centers = rng.substream("images/centers").uniform(6.0, 22.0, (k, 3, 2))
    d2 = ((yy[None, None] - centers[:, :, 0, None, None]) ** 2
          + (xx[None, None] - centers[:, :, 1, None, None]) ** 2)
    templates = np.exp(-d2 / 8.0).sum(axis=1).reshape(k, 784)
    labels = (rng.substream("images/labels").u64(m) % np.uint64(k)).astype(np.int64)
    noise = rng.substream("images/noise").uniform(0.0, 0.3, (m, 784))
    return np.clip(templates[labels] * 0.8 + noise, 0.0, 1.0), labels


def _real_form(pixels, labels, provenance) -> "cv.Dataset":
    return cv.Dataset(pixels, np.zeros_like(pixels), labels, "classification",
                      provenance=provenance, num_classes=10)


def _encode_chunked(pixels, labels, chunk: int = 1000) -> "cv.Dataset":
    """dft_encode in row chunks, so the complex temporaries stay small."""
    m = pixels.shape[0]
    re = np.empty((m, 784))
    im = np.empty((m, 784))
    for lo in range(0, m, chunk):
        hi = min(m, lo + chunk)
        part = cv.data.dft_encode(_real_form(pixels[lo:hi], labels[lo:hi], "chunk"))
        re[lo:hi], im[lo:hi] = part.features_re, part.features_im
    return cv.Dataset(re, im, labels, "classification",
                      provenance="bench-images|dft_encode", num_classes=10)


class Workload:
    """Inputs of one workload at one seed and the operations of a round."""

    def __init__(self, kind: Kind, seed: int, sizes: Sizes, workdir: Path):
        self.kind = kind
        self.seed = seed
        self.sizes = sizes
        self.workdir = workdir
        self.train_seed = _sub_seed(seed, "bench/train-seed")
        self.recipe_seed = _sub_seed(seed, "bench/recipe-seed")
        self.train_ds = None
        self.eval_ds = None
        self.models: dict = {}
        self.first: dict = {}      # first output per operation, for repeat checks
        self.last_recipe = None
        self.last_cli_eval = None
        task = "complex_regression" if kind.name == "small" else "classification"
        dn, k = (5, 1) if kind.name == "small" else (784, 10)
        self.specs = {a: cv.NetworkSpec(a, dn, LATENT, k, task) for a in ARCHS}
        self.cfgs = {a: cv.TrainConfig(learning_rate=kind.lr,
                                       beta=kind.beta if a == "analytic" else 0.0,
                                       epochs=sizes.epochs, batch_size=BATCH,
                                       seed=self.train_seed) for a in ARCHS}

    # -- inputs -------------------------------------------------------

    def clear(self) -> None:
        self.train_ds = self.eval_ds = None
        self.models = {}
        if self.workdir.exists():
            shutil.rmtree(self.workdir)

    def setup(self) -> None:
        """Make every input from the seed and write the CLI's input files."""
        self.clear()
        self.workdir.mkdir(parents=True)
        s, seed = self.sizes, self.seed
        if self.kind.name == "small":
            chan = cv.ChannelSpec()
            self.train_ds = cv.data.gen_channel_dataset(
                chan, s.train_m, _sub_seed(seed, "bench/train"))
            self.eval_ds = cv.data.gen_channel_dataset(
                chan, s.eval_m, _sub_seed(seed, "bench/eval"))
            # even-width real signals for the radix-2 hilbert command
            sig = cv.Rng(_sub_seed(seed, "bench/signals")).normal((s.cli_test_m, 64))
            cv.data.save_cvds(_real_form(sig, np.zeros(s.cli_test_m, dtype=np.int64),
                                         "bench-signals"), self.workdir / "signals")
        else:
            pixels, labels = synthetic_images(s.train_m, _sub_seed(seed, "bench/train"))
            cv.data.save_cvds(_real_form(pixels, labels, "bench-images/train"),
                              self.workdir / "mnist-real" / "train")
            self.train_ds = _encode_chunked(pixels, labels)
            pixels, labels = synthetic_images(s.eval_m, _sub_seed(seed, "bench/eval"))
            n = s.cli_test_m
            cv.data.save_cvds(_real_form(pixels[:n], labels[:n], "bench-images/test"),
                              self.workdir / "mnist-real" / "test")
            self.eval_ds = _encode_chunked(pixels, labels)
        (self.workdir / "config.json").write_text(json.dumps({
            "arch": CLI_ARCH, "latent_dim": LATENT,
            "train_dataset": str(self.workdir / "train"),
            "test_dataset": str(self.workdir / "test"),
            "learning_rate": self.kind.lr, "beta": self.kind.beta,
            "epochs": s.epochs, "batch_size": BATCH, "seed": self.train_seed}),
            encoding="utf-8")

    # -- checks -------------------------------------------------------

    def _same_as_first(self, key: str, value) -> None:
        if key not in self.first:
            self.first[key] = value
        elif self.first[key] != value:
            raise CheckError(f"{key}: output differs from the first call with the same inputs")

    # -- operations ---------------------------------------------------

    def train_ops(self) -> list[Op]:
        ops = []
        for arch in ARCHS:
            def run(arch=arch):
                return cv.train.train_model(self.specs[arch], self.train_ds, self.cfgs[arch])

            def check(out, arch=arch):
                model, epochs = out
                _finite([e["train_loss"] for e in epochs], f"train.{arch}.train_loss")
                if not all(np.isfinite(p).all() for p in model.params.values()):
                    raise CheckError(f"train.{arch}: non-finite parameters")
                self._same_as_first(f"train.{arch}.params", _digest(model.params))
                self.first.setdefault(f"train.{arch}.penalty_value",
                                      [e["penalty_value"] for e in epochs])
                self.models[arch] = model

            def run_eval(arch=arch):
                return cv.train.evaluate(self.models[arch], self.eval_ds)

            def check_eval(out, arch=arch):
                _finite(out, f"eval.{arch}")
                self._same_as_first(f"eval.{arch}", out)

            ops.append(Op("train", arch, run, check))
            ops.append(Op("eval", arch, run_eval, check_eval))
        return ops

    def recipe_op(self) -> Op:
        s = self.sizes
        if self.kind.name == "small":
            def run():
                return cv.recipes.run_channel_id(
                    base_seed=self.recipe_seed, n_seeds=self.kind.recipe_seeds,
                    epochs=s.epochs, m=s.train_m, test_m=s.recipe_m)
        else:
            def run():
                return cv.recipes.run_cvmnist500(
                    self.workdir, base_seed=self.recipe_seed,
                    n_seeds=self.kind.recipe_seeds, epochs=s.epochs, m=s.recipe_m)

        def check(out):
            _finite(out["summary"], "recipe.summary")
            self._same_as_first("recipe", json.dumps(out, sort_keys=True))
            self.last_recipe = out["summary"]

        return Op("recipe", "recipe", run, check)

    def cli_ops(self) -> list[Op]:
        w, s = self.workdir, self.sizes
        if self.kind.name == "small":
            gens = [["gen", "--task", "channel", "--m", str(m), "--seed",
                     str(_sub_seed(self.seed, f"bench/cli-{part}")), "--out", str(w / part)]
                    for part, m in (("train", s.cli_train_m), ("test", s.cli_test_m))]
            hilbert_in = w / "signals"
        else:
            gens = [["gen", "--task", "dft-encode", "--in", str(w / "mnist-real" / part),
                     "--out", str(w / part)] for part in ("train", "test")]
            hilbert_in = w / "mnist-real" / "test"
        ckpt, test = str(w / "run" / "checkpoint.bin"), str(w / "test")
        commands = gens + [
            ["train", "--config", str(w / "config.json"), "--out", str(w / "run")],
            ["eval", "--checkpoint", ckpt, "--dataset", test],
            ["diag", "--checkpoint", ckpt, "--dataset", test],
            ["hilbert", "--in", str(hilbert_in), "--out", str(w / "hilbert"), "--analytic"],
        ]
        ops = []
        for argv in commands:
            def run(argv=argv):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    try:
                        code = cv.cli.main(argv)
                    except SystemExit as e:
                        code = e.code
                return code, out.getvalue(), err.getvalue()

            def check(out, argv=argv):
                code, stdout, stderr = out
                if code != 0:
                    raise CheckError(f"cli {argv[0]} exited {code}: {stderr.strip()}")
                if argv[0] == "eval":
                    self._check_eval_output(json.loads(stdout))
                elif argv[0] == "diag":
                    payload = json.loads(stdout)
                    _finite(payload, "cli.diag")
                    self._same_as_first("cli.diag", payload)
                elif argv[0] == "hilbert":
                    self._check_hilbert(hilbert_in, w / "hilbert")

            ops.append(Op("cli", argv[0], run, check))
        return ops

    def _check_eval_output(self, payload: dict) -> None:
        report = json.loads((self.workdir / "run" / "report.json").read_text(encoding="utf-8"))
        if payload != report["final"]["test"]:
            raise CheckError("cli eval output differs from report.json final.test")
        _finite(payload, "cli.eval")
        self._same_as_first("cli.eval", payload)
        self.last_cli_eval = payload

    def _check_hilbert(self, src: Path, dst: Path) -> None:
        """Compare sampled output rows with hilbert_freq and with the
        cotangent kernel plus the DC and Nyquist terms that the spectral
        transform passes through; reads the blobs without load_cvds."""
        meta = json.loads((src / "meta.json").read_text(encoding="utf-8"))
        m, n = meta["M"], meta["dN"]
        x = np.fromfile(src / "features_re.bin", dtype="<f8").reshape(m, n)
        out_re = np.fromfile(dst / "features_re.bin", dtype="<f8").reshape(m, n)
        out_im = np.fromfile(dst / "features_im.bin", dtype="<f8").reshape(m, n)
        if not np.array_equal(out_re, x):
            raise CheckError("cli hilbert --analytic changed the real channel")
        alt = (-1.0) ** np.arange(n)
        for r in np.linspace(0, m - 1, HILBERT_CHECK_ROWS).astype(int):
            row = x[r]
            scale = 1e-9 * max(1.0, float(np.abs(row).max()))
            by_freq = cv.transforms.hilbert_freq(row)
            by_cot = (cv.transforms.dht_cotangent(row) + row.mean()
                      + (row @ alt) / n * alt)
            if np.abs(out_im[r] - by_freq).max() > scale:
                raise CheckError(f"cli hilbert row {r} differs from hilbert_freq")
            if np.abs(out_im[r] - by_cot).max() > scale * n:
                raise CheckError(f"cli hilbert row {r} differs from the cotangent kernel")

    def round_ops(self) -> list[Op]:
        return self.train_ops() + [self.recipe_op()] + self.cli_ops()

    # -- reference values -------------------------------------------------

    def penalty_probe(self) -> dict:
        """The Hilbert penalty and its parameter gradients on one fixed batch:
        the analytic model at its initial parameters, the first BATCH
        training rows. No training sits between the transform and these
        numbers, so a penalty that is wrong or skipped shows here at the
        default tolerance; in the trained metrics its whole effect is
        smaller than the analytic tolerance."""
        model = cv.models.init_params(self.specs["analytic"], self.train_seed)
        tape = cv.autodiff.Tape()
        result = cv.models.forward(model, self.train_ds.features_re[:BATCH],
                                   self.train_ds.features_im[:BATCH], tape)
        penalty = cv.losses.hilbert_penalty(result.latent_pair)
        grads = tape.backward(penalty)
        values = {"value": float(penalty.data)}
        values.update({f"grad_norm.{k}": float(np.linalg.norm(g))
                       for k, g in sorted(grads.items())})
        return values

    def reference_values(self) -> dict:
        """Final metrics of the round just run, as compared with reference.json."""
        values = {f"eval.{a}": self.first[f"eval.{a}"] for a in ARCHS}
        values["recipe"] = self.last_recipe
        values[f"cli.eval.{CLI_ARCH}"] = self.last_cli_eval
        values["penalty.train_epochs"] = self.first["train.analytic.penalty_value"]
        values["penalty.fixed_batch"] = self.penalty_probe()
        return values

    def reference_rows(self) -> dict:
        """Rows behind each reference value, which sets the accuracy tolerance."""
        recipe_rows = self.sizes.recipe_m if self.kind.name == "small" else self.sizes.cli_test_m
        rows = {f"eval.{a}": self.sizes.eval_m for a in ARCHS}
        rows.update({"recipe": recipe_rows, f"cli.eval.{CLI_ARCH}": self.sizes.cli_test_m,
                     "penalty.train_epochs": None, "penalty.fixed_batch": None})
        return rows


def compare_reference(got: dict, want: dict, tol: dict, rows: dict) -> list[str]:
    """Mismatches between ``got`` and ``want`` beyond the stated tolerance.

    Floats match within ``rtol`` relative (``atol`` absolute floor);
    accuracies, in percent, within ``accuracy_rows`` rows of the set they
    were measured on; integers exactly. The tolerance is the same for all
    four architectures: an equivalent Hilbert evaluation (a dense matrix
    in place of the FFT, or the transform's output scaled by 1 + 2**-49)
    moved the penalty values by under 3e-15 relative and left every
    trained metric bit-identical.
    """
    problems = []

    def walk(g, w, path, rows):
        if isinstance(w, dict):
            if not isinstance(g, dict) or set(g) != set(w):
                problems.append(f"{path}: keys differ")
                return
            for k in w:
                walk(g[k], w[k], f"{path}.{k}", rows)
        elif isinstance(w, list):
            if not isinstance(g, list) or len(g) != len(w):
                problems.append(f"{path}: length differs")
                return
            for i, (gi, wi) in enumerate(zip(g, w)):
                walk(gi, wi, f"{path}.{i}", rows)
        elif isinstance(w, int):
            if g != w:
                problems.append(f"{path}: {g} != {w}")
        elif isinstance(w, float):
            if "accuracy" in path:
                limit = tol["accuracy_rows"] * 100.0 / rows
            else:
                limit = max(tol["rtol"] * abs(w), tol["atol"])
            if not isinstance(g, (int, float)) or not abs(g - w) <= limit:
                problems.append(f"{path}: {g!r} vs reference {w!r} (limit {limit:.3g})")
        elif g != w:
            problems.append(f"{path}: {g!r} != {w!r}")

    for key, w in want.items():
        if key not in got:
            problems.append(f"{key}: missing")
        else:
            walk(got[key], w, key, rows[key])
    return problems
