"""The benchmark's tracer finds every function it wraps.

perfbench/spans.py wraps public functions at each module that binds
them. A refactor that drops or renames one of those bindings would only
show under ``perfbench/run.py --trace 1``; this test makes it fail here.
"""

import importlib.util
from pathlib import Path

import cvlearn as cv
import cvlearn.cli  # noqa: F401  (binds cv.cli)

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    # perfbench/ is a directory of scripts, not a package
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_wrapper_target():
    originals = (cv.train.train_model, cv.recipes.train_model,
                 cv.recipes.latent_channels, cv.cli.latent_channels)
    tracer = _load_spans().Tracer(cv)
    tracer.install()
    try:
        assert tracer.missing == []
        assert cv.recipes.train_model is not originals[1]
    finally:
        tracer.uninstall()
    assert (cv.train.train_model, cv.recipes.train_model,
            cv.recipes.latent_channels, cv.cli.latent_channels) == originals
