"""The shipped scripts still run against the package they import."""

import dataclasses
import importlib.util
import math
import sys
from pathlib import Path

from sagep.orchestrator import load_run_config

ROOT = Path(__file__).resolve().parents[1]


def load_script(name):
    spec = importlib.util.spec_from_file_location(
        name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_make_feature_table_reproduces_shipped_table(tmp_path, monkeypatch):
    out = tmp_path / "features.csv"
    monkeypatch.setattr(sys, "argv",
                        ["make_feature_table.py", "--out", str(out)])
    load_script("make_feature_table").main()
    shipped = ROOT / "configs" / "symbolic_features.csv"
    assert out.read_bytes() == shipped.read_bytes()


def test_efficiency_study_pair_on_small_channel_run():
    config = dataclasses.replace(
        load_run_config(ROOT / "configs" / "channel_run.json"),
        generations=3, population=12, offspring=6)
    cov_ratio, eval_ratio, n_surrogate, n_baseline = load_script(
        "efficiency_study").run_pair(config, 0)
    assert eval_ratio == n_surrogate / n_baseline
    assert n_baseline == 12 + 6 * 2
    assert math.isfinite(cov_ratio)
