"""The run-config schema: one validation pass whose every error names
the field, through ``resolve_config`` and through ``cvlearn train``."""

import json
import math
from dataclasses import fields

import pytest

import cvlearn as cv
import cvlearn.cli  # noqa: F401  (binds cv.cli)
from cvlearn.errors import ValidationError
from cvlearn.train import resolve_config

from helpers import synthetic_classification

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

RUN_FIELDS = ("arch", "latent_dim", "train_dataset", "test_dataset", "noise_eta",
              "noise_test")
KNOWN = RUN_FIELDS + tuple(f.name for f in fields(cv.TrainConfig))
REQUIRED = ("arch", "latent_dim", "train_dataset", "learning_rate")
GOOD = {"arch": "rvnn", "latent_dim": 8, "train_dataset": "x", "learning_rate": 0.1}

# every value Python's json module can produce, NaN and +-Infinity included
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=8)


def _named_fields(message: str) -> set:
    return {name for name in KNOWN if name in message}


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(JSON)
def test_resolve_config_any_json_value(raw):
    try:
        resolve_config(raw)
    except ValidationError as e:
        if not isinstance(raw, dict):
            assert "config must be a JSON object" in str(e)
        else:
            assert any(repr(key) in str(e) for key in raw) or _named_fields(str(e)), e


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(st.sampled_from([{}, GOOD]), st.dictionaries(st.sampled_from(KNOWN), JSON))
def test_resolve_config_known_fields_arbitrary_values(base, overrides):
    # base is empty or valid, so an error names an override or a missing field
    raw = {**base, **overrides}
    try:
        cfg, _ = resolve_config(raw)
    except ValidationError as e:
        assert _named_fields(str(e)) & (set(overrides) | (set(REQUIRED) - set(raw))), e
    else:
        for name in ("learning_rate", "beta", "adam_b1", "adam_b2", "adam_eps",
                     "noise_eta"):
            assert cfg[name] == cfg[name] and abs(cfg[name]) != float("inf")


@pytest.mark.parametrize("field,value", [
    ("learning_rate", "Infinity"), ("learning_rate", "NaN"), ("learning_rate", "1e400"),
    ("beta", "NaN"), ("beta", "Infinity"), ("adam_b1", "NaN"), ("adam_b2", "-Infinity"),
    ("adam_eps", "Infinity"), ("noise_eta", "NaN"), ("noise_eta", "Infinity"),
])
def test_non_finite_numbers_rejected(field, value):
    with pytest.raises(ValidationError, match=field):
        resolve_config({**GOOD, field: json.loads(value)})


def test_integer_too_large_for_a_float_rejected():
    with pytest.raises(ValidationError, match="learning_rate"):
        resolve_config({**GOOD, "learning_rate": 10 ** 400})
    with pytest.raises(ValidationError, match="noise_eta"):
        resolve_config({**GOOD, "noise_eta": 10 ** 400})


def _train(tmp_path, capsys, text: str):
    (tmp_path / "cfg.json").write_text(text)
    code = cv.cli.main(["train", "--config", str(tmp_path / "cfg.json"),
                        "--out", str(tmp_path / "run")])
    return code, capsys.readouterr().err


@pytest.mark.parametrize("text", ["5", "null", '"abc"', "[1, 2]", "true", "2.5"])
def test_cli_train_rejects_non_object_config(tmp_path, capsys, text):
    code, err = _train(tmp_path, capsys, text)
    assert code == 1
    assert err.startswith("error: config must be a JSON object") and err.count("\n") == 1, err


@pytest.mark.parametrize("field,value", [
    ("train_dataset", 5), ("train_dataset", None), ("train_dataset", ["a"]),
    ("test_dataset", 7), ("test_dataset", {}), ("beta", math.nan),
    ("noise_eta", math.nan), ("adam_eps", math.inf), ("learning_rate", math.inf),
    ("train_dataset", ""), ("test_dataset", ""),
])
def test_cli_train_malformed_field_exits_1_naming_it(tmp_path, capsys, field, value):
    cv.save_cvds(synthetic_classification(20, 4, 2, seed=1), tmp_path / "train")
    config = {"arch": "rvnn", "latent_dim": 4, "train_dataset": str(tmp_path / "train"),
              "learning_rate": 0.01, "epochs": 1}
    code, err = _train(tmp_path, capsys, json.dumps({**config, field: value}))
    assert code == 1, err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert field in err, err
    assert not (tmp_path / "run" / "report.json").exists()
