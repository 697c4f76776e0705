"""The benchmark's tracer finds every function it wraps, and its
reference round gives the stored reference values.

perfbench/spans.py wraps public functions at each module that binds
them. A refactor that drops or renames one of those bindings would only
show under ``perfbench/run.py --trace 1``; the first test makes it fail
here. A change whose outputs drift from ``perfbench/reference.json``
would only show as a benchmark run that is not ``correct``; the second
test runs the same small reference round and comparison.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

import cvlearn as cv
import cvlearn.cli  # noqa: F401  (binds cv.cli)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str, path: Path):
    # perfbench/ is a directory of scripts, not a package. The module is
    # registered before it runs: dataclasses look their module up there.
    spec = importlib.util.spec_from_file_location(name, path)
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_wrapper_target():
    originals = (cv.train.train_model, cv.recipes.train_model,
                 cv.recipes.latent_channels, cv.cli.latent_channels)
    tracer = _load("perfbench_spans", PERFBENCH / "spans.py").Tracer(cv)
    tracer.install()
    try:
        assert tracer.missing == []
        assert cv.recipes.train_model is not originals[1]
    finally:
        tracer.uninstall()
    assert (cv.train.train_model, cv.recipes.train_model,
            cv.recipes.latent_channels, cv.cli.latent_channels) == originals


@pytest.mark.parametrize("name", ["small", "spectral"])
def test_reference_round_matches_reference_json(name, tmp_path):
    # what perfbench/run.py does after its timed rounds: one round at the
    # workload's reference sizes and the reference seed, every output
    # checked, and the final values compared within the stored tolerance
    workloads = _load("perfbench_workloads", PERFBENCH / "workloads.py")
    reference = json.loads((PERFBENCH / "reference.json").read_text(encoding="utf-8"))
    kind = workloads.KINDS[name]
    wl = workloads.Workload(kind, reference["seed"], kind.reference, tmp_path / name)
    wl.setup()
    for op in wl.round_ops():
        op.check(op.run())
    assert workloads.compare_reference(wl.reference_values(), reference["values"][name],
                                       reference["tolerance"], wl.reference_rows()) == []
