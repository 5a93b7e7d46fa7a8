"""The shipped scripts still run against the package they import."""

import dataclasses
import hashlib
import importlib.util
import json
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


def test_output_digests_on_small_config(tmp_path, capsys):
    raw = json.loads((ROOT / "configs" / "symbolic_quadratic.json").read_text())
    raw.update(population=12, offspring=6, generations=3,
               surrogate={"restarts": 1},
               evaluator=dict(raw["evaluator"], table=str(
                   ROOT / "configs" / raw["evaluator"]["table"])))
    path = tmp_path / "small.json"
    path.write_text(json.dumps(raw))
    script = load_script("output_digests")
    script.main([str(path), "--seed", "2"])
    lines = capsys.readouterr().out.splitlines()
    rows = [line.split() for line in lines]
    assert [row[:3] for row in rows] == [
        ["small", mode, name]
        for mode in ("surrogate", "baseline")
        for name in ("db.jsonl", "metrics.csv", "summary.txt")] + [
        ["small", mode, name]
        for mode in ("replay-surrogate", "replay-baseline")
        for name in ("metrics.csv", "summary.txt")]
    # Each digest is that of the file the run writes.
    db, _ = run_training(dataclasses.replace(
        load_run_config(path), seed=2, surrogate_enabled=False))
    written = db.write(tmp_path / "db.jsonl")
    assert rows[3][3] == hashlib.sha256(written.read_bytes()).hexdigest()
    # Replaying every record reproduces the baseline's own report.
    assert [row[3] for row in rows[8:]] == [row[3] for row in rows[4:6]]
    script.main([str(path), "--seed", "2"])
    assert capsys.readouterr().out.splitlines() == lines
