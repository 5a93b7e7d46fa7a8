"""The shipped scripts still run against the package they import."""

import dataclasses
import hashlib
import importlib.util
import json
import math
import sys
from pathlib import Path

import pytest

import sagep.evaluators as ev
import sagep.orchestrator as orch
from sagep import surrogate
from sagep.orchestrator import build_evaluator, load_run_config, run_training

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
    pair = load_script("efficiency_study").run_pair(config, 0)
    assert ev.expensive_call_count() - before == (pair.n_surrogate
                                                  + pair.n_baseline)
    assert pair.eval_ratio == pair.n_surrogate / pair.n_baseline
    assert pair.surrogate_s > 0.0 and pair.baseline_s > 0.0
    # The baseline calls the evaluator once per distinct key it meets.
    baseline, metrics = run_training(dataclasses.replace(
        config, seed=0, surrogate_enabled=False))
    assert len(baseline.records) == 12 + 6 * 2
    assert pair.n_baseline == len({r.keys for r in baseline.records
                                   if r.provenance != "surrogate"})
    # Both runs evaluate generation 0 alike, so they share its reference.
    assert pair.shared_reference
    gen0 = metrics.rows[0].expensive_cumulative
    assert pair.later_eval_ratio == ((pair.n_surrogate - gen0)
                                     / (pair.n_baseline - gen0))
    assert math.isfinite(pair.hv_ratio) and pair.hv_ratio > 0.0
    # The evaluator's time is part of each run's, and the builder the
    # study wraps to measure it is put back.
    assert 0.0 < pair.surrogate_eval_s < pair.surrogate_s
    assert 0.0 < pair.baseline_eval_s < pair.baseline_s
    assert orch.build_evaluator is build_evaluator
    assert math.isfinite(pair.break_even_s)


def stub_pair(script, n_surrogate, surrogate_s, baseline_s,
              surrogate_eval_s=0.0, baseline_eval_s=0.0, n_baseline=20):
    return script.Pair(1.0, 0.5, 0.25, n_surrogate, n_baseline, surrogate_s,
                       baseline_s, True, surrogate_eval_s, baseline_eval_s)


def test_break_even_is_extra_time_outside_the_evaluator_per_saved_call():
    script = load_script("efficiency_study")
    # 0.3 s more outside the evaluator (0.9 - 0.2 against 0.6 - 0.2) for
    # 20 - 14 saved calls: 0.05 s per call.
    pair = stub_pair(script, 14, 0.9, 0.6, 0.2, 0.2)
    assert pair.break_even_s == pytest.approx(0.05)
    # Time inside the evaluator does not count, however much it is.
    assert stub_pair(script, 14, 1.9, 0.6, 1.2, 0.2).break_even_s == (
        pytest.approx(0.05))
    # A surrogate run faster outside the evaluator pays for itself at any
    # evaluator cost.
    assert stub_pair(script, 15, 0.5, 0.6).break_even_s == pytest.approx(
        -0.02)
    # With no call saved there is no break-even cost.
    assert math.isnan(stub_pair(script, 20, 0.5, 0.6).break_even_s)


def test_efficiency_study_prints_wall_times(monkeypatch, capsys):
    script = load_script("efficiency_study")
    pairs = iter([stub_pair(script, 10, 0.8, 1.6, 0.1, 0.4),
                  stub_pair(script, 11, 1.5, 1.0, 0.2, 0.3)])
    monkeypatch.setattr(script, "run_pair", lambda config, seed: next(pairs))
    script.main(["--seeds", "2"])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["seed", "hv_ratio", "eval_ratio",
                                "later_eval_ratio", "expensive(surr/base)",
                                "time_s(surr/base)", "time_ratio",
                                "shared_reference", "eval_s(surr/base)",
                                "break_even_ms"]
    # c* = (0.7 - 1.2) / 10 s and (1.3 - 0.7) / 9 s per call.
    assert [line.split() for line in lines[1:3]] == [
        ["0", "1.0000", "0.5000", "0.2500", "10/20", "0.800/1.600", "0.5000",
         "True", "0.100/0.400", "-50.0000"],
        ["1", "1.0000", "0.5000", "0.2500", "11/20", "1.500/1.000", "1.5000",
         "True", "0.200/0.300", "66.6667"]]
    assert lines[3] == "median hv ratio:       1.0000"
    # The median of 0.5 and 1.5.
    assert lines[5] == "median time ratio:     1.0000"
    # The median of -50 and 66.67 ms.
    assert lines[6] == "median break-even:     8.3333 ms per call"


def test_efficiency_study_sizes_apply_on_top_of_the_config(monkeypatch,
                                                          capsys):
    # A size flag replaces its value in the config, which keeps the rest.
    script = load_script("efficiency_study")
    configs, generations = [], []

    def spy(config):
        configs.append(config)
        db, metrics = run_training(config)
        generations.append(len(metrics.rows))
        return db, metrics

    monkeypatch.setattr(script, "run_training", spy)
    script.main(["--config", str(ROOT / "configs" / "channel_run.json"),
                 "--generations", "2", "--seeds", "1"])
    assert generations == [2, 2]
    shipped = load_run_config(ROOT / "configs" / "channel_run.json")
    for config in configs:
        assert config == dataclasses.replace(
            shipped, generations=2,
            surrogate_enabled=config.surrogate_enabled)
    # Without --config the study starts from the same shipped config.
    configs.clear()
    script.main(["--generations", "1", "--population", "8",
                 "--offspring", "4", "--seeds", "1"])
    assert configs[0] == dataclasses.replace(
        shipped, generations=1, population=8, offspring=4,
        surrogate_enabled=False)
    capsys.readouterr()


def test_solve_replay_on_a_two_generation_run(capsys):
    script = load_script("solve_replay")
    solve = ev._solve_batch
    config = dataclasses.replace(
        load_run_config(ROOT / "configs" / "channel_run.json"),
        generations=2, surrogate_enabled=False)
    before = ev.expensive_call_count()
    calls = script.capture(config)
    assert ev._solve_batch is solve
    # The truth and zero-closure set-up solves, then one batch per
    # generation holding every candidate the run evaluated.
    groups = [group for group, _ in calls]
    assert groups[:2] == ["truth", "zero-closure"] and len(groups) == 4
    rows = sum(len(args[1]) for _, args in calls[2:])
    assert rows == ev.expensive_call_count() - before
    stats, digest = script.replay(calls, 2)
    assert stats["truth"][:2] == [1, 1] and stats["zero-closure"][:2] == [1, 1]
    assert sum(stats[group][1] for group in script.GROUPS) == 2 + rows
    for batches, candidates, iterations, row_iterations, seconds in (
            stats.values()):
        assert iterations <= row_iterations <= iterations * candidates
        assert (seconds > 0.0) == (batches > 0)
    assert script.replay(calls, 1)[1] == digest
    script.main(["--generations", "2", "--repeats", "1", "--modes",
                 "baseline", "surrogate"])
    out = capsys.readouterr().out
    assert out.count("outputs sha256") == 2 and "mode surrogate" in out
    assert f"outputs sha256 {digest}" in out


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
        for name in ("db.jsonl", "metrics.csv", "summary.txt",
                     "decisions")] + [
        ["small", mode, name]
        for mode in ("replay-surrogate", "replay-baseline")
        for name in ("metrics.csv", "summary.txt")]
    # Each digest is that of the file the run writes.
    db, _ = run_training(dataclasses.replace(
        load_run_config(path), seed=2, surrogate_enabled=False))
    written = db.write(tmp_path / "db.jsonl")
    assert rows[4][3] == hashlib.sha256(written.read_bytes()).hexdigest()
    assert rows[7][3] == script.decisions_digest(db.records)
    # Replaying every record reproduces the baseline's own report.
    assert [row[3] for row in rows[10:]] == [row[3] for row in rows[5:7]]
    script.main([str(path), "--seed", "2"])
    assert capsys.readouterr().out.splitlines() == lines


# Every output of the shipped configs at seed 0, as
# scripts/output_digests.py prints it: (mode, file, sha256).  A change
# that moves one of them updates its pin and says why in CHANGES.md.
SHIPPED_DIGESTS = {
    "channel_run": [
        ("surrogate", "db.jsonl",
         "32e4190eb99f28b75b8e7113f907a4249af299a1b14547c5f2bac830248d5b92"),
        ("surrogate", "metrics.csv",
         "b7571cd2efbbe73f2b94b4da6f670e61240a3972a4382f6af5fa4997695520b9"),
        ("surrogate", "summary.txt",
         "e7ad31fbb19335bd8a95208bff592e520a28aa32ce502a5ebfed17764c62f55a"),
        ("surrogate", "decisions",
         "6a8d1d185c26a32c037388ec7645b8a78484e05fc7644edda1624972fe3771da"),
        ("baseline", "db.jsonl",
         "369264e215469584d5479a0472f84e681e786cd241b253b23953531622113dd9"),
        ("baseline", "metrics.csv",
         "8ed92bdfcc5d3346810b40739645d366b0de6ac24924bf9c008576d67c914cd6"),
        ("baseline", "summary.txt",
         "23397deb2c7a80b2e10b62be8210e169b3d365b31de6c27d40a34f3f0c8bf36e"),
        ("baseline", "decisions",
         "503479f5bdb45e8478de1b74ac74f1e2dadb0a831b8e651cde2edf180d9fc30a"),
        ("replay-surrogate", "metrics.csv",
         "f44b068acd5dd1f35e522d7276d8f939dfe489f6f1d8510b2291096facbf50f6"),
        ("replay-surrogate", "summary.txt",
         "07561e953c1c3a8e759bb61418a619ff578f0bc58b8e4916b075858e3370631e"),
        ("replay-baseline", "metrics.csv",
         "8ed92bdfcc5d3346810b40739645d366b0de6ac24924bf9c008576d67c914cd6"),
        ("replay-baseline", "summary.txt",
         "23397deb2c7a80b2e10b62be8210e169b3d365b31de6c27d40a34f3f0c8bf36e"),
    ],
    "symbolic_quadratic": [
        ("surrogate", "db.jsonl",
         "998f8cd4125b9e0fc053751e5c432777ce5e6fe8eac1ecd96f5aec0f691f664f"),
        ("surrogate", "metrics.csv",
         "4c193c129e86c5f8f53995e6bf0490937731653ee369ee584862e9d4e735f4a6"),
        ("surrogate", "summary.txt",
         "7f8db9c56f48a35d94d1b517355392488a1dc2fb48270928f960b31941d75292"),
        ("surrogate", "decisions",
         "846879f2abf939f057f94239dd2a179aed9d40f9500244158c85e1bd74772852"),
        ("baseline", "db.jsonl",
         "afa9b254c88f147afcb888324384612f4d02545b74fc137194cb5aed4f2d1fd2"),
        ("baseline", "metrics.csv",
         "8c93502841a225f768e8eab83df3fc5ea6165325e2d169143f738a0ec5553fb4"),
        ("baseline", "summary.txt",
         "2f8f3631b1ec9acce55323a3f45471ea239dfc8a53364e91061af083cc99550f"),
        ("baseline", "decisions",
         "6157f5f9f24e6dbdd7286163a72db181b8baba162f2d8b22d27b49fa9b9401c5"),
        ("replay-surrogate", "metrics.csv",
         "789f718f041a2d53d87adee492bde20bc3b0430385897adc6367492b31805eb5"),
        ("replay-surrogate", "summary.txt",
         "a9e63e74fc7baa56a6b1a170ac7e35cd8bf4ee06c246153347eacc370a6d3334"),
        ("replay-baseline", "metrics.csv",
         "8c93502841a225f768e8eab83df3fc5ea6165325e2d169143f738a0ec5553fb4"),
        ("replay-baseline", "summary.txt",
         "2f8f3631b1ec9acce55323a3f45471ea239dfc8a53364e91061af083cc99550f"),
    ],
}


@pytest.mark.parametrize("name", SHIPPED_DIGESTS)
def test_shipped_outputs_match_their_pins(name, tmp_path):
    script = load_script("output_digests")
    config = dataclasses.replace(
        load_run_config(ROOT / "configs" / f"{name}.json"), seed=0)
    assert script.config_digests(config, tmp_path) == SHIPPED_DIGESTS[name]


def test_decisions_digest_ignores_predictions_only():
    script = load_script("output_digests")
    config = load_run_config(ROOT / "configs" / "symbolic_quadratic.json")
    db, _ = run_training(dataclasses.replace(
        config, generations=3, population=12, offspring=6,
        surrogate=dataclasses.replace(config.surrogate, restarts=1)))
    records = db.records
    digest = script.decisions_digest(records)
    surrogate = next(i for i, r in enumerate(records)
                     if r.provenance == "surrogate")
    true = next(i for i, r in enumerate(records)
                if r.provenance == "expensive" and r.predicted is not None)

    def changed(i, **fields):
        return [dataclasses.replace(r, **fields) if k == i else r
                for k, r in enumerate(records)]

    # A GP mean moves neither a prediction's record nor a true outcome's.
    nudged = tuple(v * (1 + 1e-15) for v in records[surrogate].objectives)
    assert script.decisions_digest(changed(
        surrogate, objectives=nudged, predicted=nudged)) == digest
    assert script.decisions_digest(changed(
        true, predicted=records[true].objectives)) == digest
    # A true outcome and a provenance do.
    assert script.decisions_digest(changed(
        true, objectives=nudged)) != digest
    assert script.decisions_digest(changed(
        surrogate, provenance="cache")) != digest


@pytest.mark.parametrize("name, seed", [
    ("symbolic_quadratic", 0), ("symbolic_quadratic", 1),
    ("symbolic_quadratic", 2), ("channel_run", 0)])
def test_default_restarts_make_the_decisions_of_eight(name, seed):
    # The seeds the benchmark runs: fewer starts search a prefix of the 8
    # Halton starts, and on these runs they reach the same decisions.
    script = load_script("output_digests")
    config = dataclasses.replace(
        load_run_config(ROOT / "configs" / f"{name}.json"), seed=seed)
    assert config.surrogate.restarts == surrogate.RESTARTS < 8
    eight = dataclasses.replace(
        config, surrogate=dataclasses.replace(config.surrogate, restarts=8))
    digests = [script.decisions_digest(run_training(c)[0].records)
               for c in (config, eight)]
    assert digests[0] == digests[1]


def test_output_digests_prefix_each_line_with_its_seed(monkeypatch, capsys):
    script = load_script("output_digests")
    seeds = []

    def config_digests(config, out):
        seeds.append(config.seed)
        return [("baseline", "db.jsonl", f"digest{config.seed}")]

    monkeypatch.setattr(script, "config_digests", config_digests)
    script.main(["--seed", "3"])
    assert capsys.readouterr().out.splitlines() == [
        "channel_run baseline db.jsonl digest3",
        "symbolic_quadratic baseline db.jsonl digest3"]
    script.main(["--seed", "4", "1"])
    assert capsys.readouterr().out.splitlines() == [
        "seed=4 channel_run baseline db.jsonl digest4",
        "seed=4 symbolic_quadratic baseline db.jsonl digest4",
        "seed=1 channel_run baseline db.jsonl digest1",
        "seed=1 symbolic_quadratic baseline db.jsonl digest1"]
    assert seeds == [3, 3, 4, 4, 1, 1]


def stub_result(workload, trace, src_sha256="abc"):
    metric = "evaluators.iterations" if trace else "run_s"
    return {"workload": workload, "seed": 0, "trace": trace, "correct": True,
            "attempted": 2, "failed": 0,
            "metrics": {metric: {"value": 1.5, "unit": "s"}},
            "runs": [], "layers": None,
            "context": {"commit": "c0ffee", "src_lines": 3178,
                        "src_sha256": src_sha256}}


def test_bench_collects_stub_results(tmp_path, monkeypatch):
    bench = load_script("bench")
    for name in bench.WORKLOADS:
        for trace in (0, 1):
            (tmp_path / f"result-{name}-trace{trace}.json").write_text(
                json.dumps(stub_result(name, trace)))
    calls = []

    tier1 = {"passed": 425, "wall_s": 55.0}
    monkeypatch.setattr(bench, "RESULTS", tmp_path)
    monkeypatch.setattr(bench, "run_perfbench",
                        lambda workload, trace: calls.append((workload, trace)))
    monkeypatch.setattr(bench, "run_tier1", lambda: tier1)
    monkeypatch.setattr(bench, "run_study", lambda: (
        "seed ...\nmedian time ratio:     1.0000\n"
        "median break-even:     -0.1250 ms per call\nelapsed: 4.0 s\n"))
    out = tmp_path / "BENCH_test.json"
    bench.main(["--out", str(out)])
    assert calls == [(name, trace) for name in bench.WORKLOADS
                     for trace in (0, 1)]
    record = json.loads(out.read_text())
    assert record["run_seconds"] == 20
    assert record["context"]["src_lines"] == 3178
    assert record["context"]["commit"] == "c0ffee"
    assert record["tier1"] == tier1
    assert record["break_even"] == {
        "median_ms_per_call": -0.125,
        "round_medians_ms_per_call": [-0.125] * 3,
        "command": "python3 scripts/efficiency_study.py --config "
                   "configs/channel_run.json --seeds 10"}
    for name in bench.WORKLOADS:
        entry = record["workloads"][name]
        assert entry["correct"] is True
        assert entry["end_to_end"] == {"run_s": {"value": 1.5, "unit": "s"}}
        assert list(entry["per_layer"]) == ["evaluators.iterations"]


def test_bench_reads_the_study_break_even(tmp_path, monkeypatch):
    bench = load_script("bench")
    # The study runs the channel config's seeds 0-9, in three rounds.
    assert bench.STUDY[1:] == ["scripts/efficiency_study.py", "--config",
                               "configs/channel_run.json", "--seeds", "10"]
    assert bench.STUDY_ROUNDS == 3
    assert bench.round_median(
        "median break-even:     0.8392 ms per call\n") == 0.8392
    # Output without the median, or with two, is not a measurement.
    for stdout in ("", "median time ratio:     1.0000\n",
                   "median break-even:     1.0 ms per call\n" * 2):
        with pytest.raises(ValueError, match="not one median break-even"):
            bench.round_median(stdout)
        with pytest.raises(ValueError, match="not one median break-even"):
            bench.break_even(["median break-even: 1.0 ms per call\n", stdout])
    # main runs one study per round and keeps each round's median and the
    # median of those.
    for name in bench.WORKLOADS:
        for trace in (0, 1):
            (tmp_path / f"result-{name}-trace{trace}.json").write_text(
                json.dumps(stub_result(name, trace)))
    rounds = iter(["0.88", "1.12", "0.68"])
    studies = []

    def run_study():
        studies.append(1)
        return f"median break-even:     {next(rounds)} ms per call\n"

    monkeypatch.setattr(bench, "RESULTS", tmp_path)
    monkeypatch.setattr(bench, "run_perfbench", lambda workload, trace: None)
    monkeypatch.setattr(bench, "run_tier1", lambda: {})
    monkeypatch.setattr(bench, "run_study", run_study)
    out = tmp_path / "BENCH_test.json"
    bench.main(["--out", str(out)])
    record = json.loads(out.read_text())["break_even"]
    assert len(studies) == 3
    assert record["round_medians_ms_per_call"] == [0.88, 1.12, 0.68]
    assert record["median_ms_per_call"] == 0.88


def test_bench_rejects_results_of_different_trees(tmp_path):
    bench = load_script("bench")
    for name in bench.WORKLOADS:
        for trace in (0, 1):
            (tmp_path / f"result-{name}-trace{trace}.json").write_text(
                json.dumps(stub_result(name, trace, src_sha256=name)))
    with pytest.raises(ValueError, match="different source trees"):
        bench.collect(tmp_path, {}, None)


def test_bench_reads_pytest_summary():
    bench = load_script("bench")
    assert bench.tier1_counts("..\n425 passed in 55.47s\n") == {"passed": 425}
    assert bench.tier1_counts("F.\n1 failed, 2 passed, 3 errors in 1.0s") == {
        "failed": 1, "passed": 2, "errors": 3}
    # The singular forms pytest prints for one are stored under the same key.
    assert bench.tier1_counts(
        "E\n4 passed, 1 skipped, 2 xfailed, 1 xpassed, 3 deselected, "
        "1 warning, 1 error in 2.0s") == {
        "passed": 4, "skipped": 1, "xfailed": 2, "xpassed": 1,
        "deselected": 3, "warnings": 1, "errors": 1}
    assert bench.tier1_counts("5 passed, 2 warnings in 1.0s") == {
        "passed": 5, "warnings": 2}
    assert bench.tier1_counts("") == {}
