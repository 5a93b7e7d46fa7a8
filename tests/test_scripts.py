"""The shipped scripts still run against the package they import."""

import dataclasses
import importlib.util
import math
import sys
from pathlib import Path

import sagep.evaluators as ev
from sagep.orchestrator import load_run_config, run_training

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
    before = ev.expensive_call_count()
    cov_ratio, eval_ratio, n_surrogate, n_baseline = load_script(
        "efficiency_study").run_pair(config, 0)
    assert ev.expensive_call_count() - before == n_surrogate + n_baseline
    assert eval_ratio == n_surrogate / n_baseline
    # The baseline calls the evaluator once per distinct key it meets.
    baseline, _ = run_training(dataclasses.replace(
        config, seed=0, surrogate_enabled=False))
    assert len(baseline.records) == 12 + 6 * 2
    assert n_baseline == len({r.keys for r in baseline.records
                              if r.provenance != "surrogate"})
    assert math.isfinite(cov_ratio)
