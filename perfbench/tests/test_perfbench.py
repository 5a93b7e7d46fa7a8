"""Tests of the benchmark's own code.

Run from the repository root: python3 -m pytest perfbench/tests
"""

import dataclasses
import json
import signal
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import hostspeed  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from sagep import orchestrator, selection, surrogate  # noqa: E402

QUICK = workloads.Workload("configs/symbolic_quadratic.json", True,
                           seeds=(0,), generations=3)


def benchmark_file():
    return json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def test_self_time_subtracts_child_spans_exactly():
    ticks = iter([0.0, 1.0, 2.0, 3.0, 5.0, 6.0, 8.0, 10.0])
    tracer = spans.Tracer(clock=lambda: next(ticks))
    with tracer.span("a"):            # 0 .. 10
        with tracer.span("b"):        # 1 .. 5
            with tracer.span("d"):    # 2 .. 3
                pass
        with tracer.span("c"):        # 6 .. 8
            pass
    layers = tracer.run_layers(0)
    assert {name: layer["self_s"] for name, layer in layers.items()} == {
        "a": 4.0, "b": 3.0, "d": 1.0, "c": 2.0}
    assert layers["a"]["busy_s"] == 10.0
    assert sum(layer["self_s"] for layer in layers.values()) == 10.0


def test_speed_clock_scales_each_stretch_by_the_probe_that_ends_it(
        monkeypatch):
    monkeypatch.setattr(hostspeed, "INTERVAL_S", 3600.0)  # no timer probe
    nominal = hostspeed.NOMINAL_PROBE_S
    # enter at 0; a probe from 1 to 1 + 2 nominal (host at half speed);
    # exit at 4, and the last probe from 4 to 4 + 1 nominal.
    ticks = iter([0.0, 1.0, 1.0 + 2 * nominal, 4.0, 4.0, 4.0 + nominal])
    with hostspeed.SpeedClock(clock=lambda: next(ticks)) as clock:
        clock._probe()
    assert clock.wall_s == 4.0
    assert clock.probes == 2
    assert clock.scaled_s == pytest.approx(0.5 + (4.0 - 1.0 - 2 * nominal))


def test_speed_clock_probes_a_busy_region_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.SpeedClock() as clock:
        while clock.clock() - clock._start < 0.1:
            sum(range(1000))
    assert clock.probes > 2
    assert 0 < clock.scaled_s
    assert signal.getsignal(signal.SIGALRM) is before


def test_every_invocation_runs_the_same_seeds_in_whole_passes():
    seeds = workloads.WORKLOADS["symbolic-surrogate"].seeds
    for base in range(5):
        first_pass = [workloads.iteration_seed(seeds, base, i)
                      for i in range(1 + len(seeds))]
        assert first_pass[0] == first_pass[1]
        assert sorted(first_pass[1:]) == sorted(seeds)


def test_wrapped_call_closes_its_span_when_it_raises():
    tracer = spans.Tracer()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrap("boom", boom)()
    with tracer.span("after"):
        pass
    assert [r[spans.PARENT] for r in tracer.records] == [None, None]
    assert tracer.run_layers(0)["boom"]["calls"] == 1


def test_instrument_restores_the_original_functions():
    before = (surrogate.fit, selection.predict_multi_batch,
              orchestrator.metrics_from_records)
    with spans.instrument(spans.Tracer()):
        assert surrogate.fit is not before[0]
    assert (surrogate.fit, selection.predict_multi_batch,
            orchestrator.metrics_from_records) == before


@pytest.fixture
def one_probe(monkeypatch):
    monkeypatch.setattr(workloads, "SETUP_PROBES", 1)


def test_small_symbolic_run_passes_the_harness_checks(tmp_path, one_probe):
    result = workloads.measure("quick", QUICK, 0, 0.0, False, tmp_path)
    assert (result["correct"], result["attempted"], result["failed"]) == (
        True, 2, 0)
    metrics = result["metrics"]
    assert list(metrics) == [m["name"] for m in benchmark_file()["end_to_end"]]
    assert metrics["expensive_evals"]["value"] > 0
    assert metrics["hv_ref"]["value"] > 0
    assert metrics["run_s"]["value"] > 0


def test_small_traced_run_splits_the_run_into_layers(tmp_path, one_probe):
    result = workloads.measure("quick", QUICK, 0, 0.0, True, tmp_path)
    assert result["correct"]
    assert list(result["metrics"]) == [
        m["name"] for m in benchmark_file()["per_layer"]]
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    assert metrics["surrogate.lml.calls"] > 0
    assert metrics["evaluators.evaluate.calls"] == result["runs"][1][
        "expensive_evals"]
    assert metrics["trace.self_share"] == pytest.approx(1.0, abs=0.05)
    assert 0 < metrics["trace.module_share"] <= metrics["trace.self_share"]
    assert (tmp_path / "spans-quick.jsonl").exists()


@pytest.mark.parametrize("trace", [False, True])
def test_runs_that_raise_are_reported_as_failed(tmp_path, one_probe,
                                                monkeypatch, trace):
    def broken(*args):
        raise RuntimeError("broken run")

    monkeypatch.setattr(workloads, "timed_run", broken)
    result = workloads.measure("quick", QUICK, 0, 0.0, trace, tmp_path)
    assert (result["correct"], result["attempted"], result["failed"]) == (
        False, 2, 2)
    assert result["metrics"] == {}


def test_output_check_rejects_a_changed_objective(tmp_path):
    config = dataclasses.replace(
        orchestrator.load_run_config(BENCH.parent / QUICK.config),
        generations=1)
    db, _ = orchestrator.run_training(config)
    evaluator = orchestrator.build_evaluator(config.evaluator)
    assert workloads.check_outputs(db.records, evaluator) == []
    index = next(i for i, r in enumerate(db.records)
                 if r.provenance == "expensive" and r.converged)
    bad = dataclasses.replace(
        db.records[index],
        objectives=tuple(v * (1 + 1e-6) + 1e-6
                         for v in db.records[index].objectives))
    records = db.records[:index] + [bad] + db.records[index + 1:]
    assert len(workloads.check_outputs(records, evaluator)) == 1


def test_hypervolume_of_a_staircase():
    assert workloads.hypervolume_2d([[1, 3], [2, 2], [3, 1], [5, 5]],
                                    [4, 4]) == 6.0
    assert workloads.expensive_front([]) == []


@pytest.mark.parametrize("section, names", [
    ("end_to_end", workloads.END_TO_END),
    ("per_layer", workloads.PER_LAYER),
])
def test_metric_units_match_benchmark_file(section, names):
    declared = {m["name"]: m["unit"] for m in benchmark_file()[section]}
    assert declared == names


def test_workloads_match_benchmark_file():
    declared = [w["name"] for w in benchmark_file()["workloads"]]
    assert declared == list(workloads.WORKLOADS)
