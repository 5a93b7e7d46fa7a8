"""Workloads, the measured loop and the output checks of the sagep benchmark.

One invocation measures one workload as a closed loop: this process runs
one training run at a time, each the work of `sagep run` after set-up
(training, then writing db.jsonl, metrics.csv and summary.txt).  A pass
runs each of the workload's training seeds once, in an order rotated by the
invocation seed, and repeats the first one at once so that the two
databases can be compared byte for byte.  Every invocation runs the same
seeds, because the cost of a run differs between seeds by up to 60%, more
than an invocation has runs to average away.  Whole passes run until the
time budget is spent, less half a pass.  Runs are timed with
hostspeed.SpeedClock, in seconds at a fixed host speed; checks run outside
the timed region.

With tracing on, run 0 is untraced and every later run is traced; the
difference between the traced and untraced times of the shared seed is the
tracing overhead.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

from sagep import evaluators, metrics, orchestrator, symreg

from hostspeed import SpeedClock
from spans import Tracer, instrument

BENCH_DIR = Path(__file__).resolve().parent
FRONTS_FILE = BENCH_DIR / "data" / "baseline_fronts.json"

# Training seeds shared by every commit; the frozen baseline fronts cover
# exactly these, and each workload's seeds are taken from them.
SEEDS = tuple(range(16))

# Fresh processes timed per invocation for setup_s; the median is reported.
SETUP_PROBES = 3

# Stored and re-evaluated objectives must agree to REL_TOL relative.  Errors
# below ABS_TOL (the run's log floor) count as equal, because a symbolic run
# that recovers its target stores an RMS error of 0.0 or a few ulps above.
REL_TOL = 1e-9
ABS_TOL = 1e-12


@dataclass(frozen=True)
class Workload:
    config: str
    surrogate: bool
    seeds: tuple[int, ...]  # the training seeds of one pass
    generations: int | None = None  # shortens the run, for quick checks


# The shipped configs, unchanged.  BENCHMARK.json says why each is here.
# A pass takes about 20 s on a 2.1 GHz Xeon vCPU.
WORKLOADS = {
    # The GP hyperparameter fit takes ~90% of the run, the evaluator ~2%.
    # One run takes ~20 s, so a pass is one seed, run twice.
    "channel-surrogate": Workload("configs/channel_run.json", True,
                                  seeds=SEEDS[:1]),
    # No surrogate or selection work; channel solves and NSGA-II ranking take
    # ~45% each, and about half of the evaluator calls repeat a key.
    "channel-baseline": Workload("configs/channel_run.json", False,
                                 seeds=SEEDS[:6]),
    # A smaller GP history (<= ~60 rows) and an almost free evaluator: the
    # regime where the surrogate cannot pay for itself.
    "symbolic-surrogate": Workload("configs/symbolic_quadratic.json", True,
                                   seeds=SEEDS[:3]),
}

END_TO_END = {
    "run_s": "s",
    "setup_s": "s",
    "expensive_evals": "count",
    "hv_ref": "ratio",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "surrogate.fit_multi.busy_s": "s",
    "surrogate.fit.calls": "count",
    "surrogate.lml.calls": "count",
    "surrogate.lml.busy_s": "s",
    "surrogate.fit.history_rows": "count",
    "surrogate.fit.fallbacks": "count",
    "surrogate.fit.jitter_fits": "count",
    "surrogate.predict.busy_s": "s",
    "selection.select_generation.self_s": "s",
    "selection.convergence_weights.busy_s": "s",
    "selection.pool": "count",
    "selection.selected": "count",
    "selection.selected_ratio": "ratio",
    "evaluators.evaluate.calls": "count",
    "evaluators.evaluate.busy_s": "s",
    "evaluators.evaluate.ms_per_call": "ms",
    "evaluators.iterations": "count",
    "evaluators.diverged": "count",
    "evaluators.repeat_calls": "count",
    "evaluators.unique_ratio": "ratio",
    "symreg.rank_population.self_s": "s",
    "symreg.rank_population.rows": "count",
    "symreg.select_survivors.self_s": "s",
    "symreg.evolve_generation.busy_s": "s",
    "symreg.decode.busy_s": "s",
    "symreg.canonical_key.busy_s": "s",
    "embedding.embed.busy_s": "s",
    "embedding.normalize.busy_s": "s",
    "metrics.report.busy_s": "s",
    "metrics.pareto_front.busy_s": "s",
    "metrics.hypervolume.calls": "count",
    "metrics.emit_report.busy_s": "s",
    "orchestrator.db_write.busy_s": "s",
    "orchestrator.run_training.self_s": "s",
    "setup.import_s": "s",
    "setup.config_s": "s",
    "evaluators.build_s": "s",
    "trace.run_s": "s",
    "trace.overhead_s": "s",
    "trace.self_share": "ratio",
    "trace.module_share": "ratio",
}


@dataclass
class RunResult:
    index: int
    seed: int
    traced: bool
    wall_s: float | None = None
    run_s: float | None = None  # wall_s at the nominal host speed
    expensive_evals: int | None = None
    hv_ref: float | None = None
    layers: dict | None = None
    failures: list = dataclasses.field(default_factory=list)


def iteration_seed(seeds: tuple[int, ...], base: int, index: int) -> int:
    """Training seed of run `index`; runs 0 and 1 share one, and each later
    pass of len(seeds) runs takes every seed once."""
    return seeds[(base + max(0, index - 1)) % len(seeds)]


def hypervolume_2d(points, ref) -> float:
    """Area dominated by 2-objective points (minimization) up to ref."""
    inside = sorted((float(x), float(y)) for x, y in points
                    if x < ref[0] and y < ref[1])
    area, floor = 0.0, float(ref[1])
    for x, y in inside:
        if y < floor:
            area += (ref[0] - x) * (floor - y)
            floor = y
    return area


def expensive_front(records) -> list[list[float]]:
    """Non-dominated objective vectors of the converged expensive records."""
    points = sorted({tuple(r.objectives) for r in records
                     if r.provenance == "expensive" and r.converged})
    front, best_y = [], math.inf
    for x, y in points:
        if y < best_y:
            front.append([x, y])
            best_y = y
    return front


def timed_run(config, out_dir: Path, tracer: Tracer | None):
    """What `sagep run` does after set-up; returns (its SpeedClock,
    evaluator calls, run metrics)."""
    span = (tracer.span if tracer is not None
            else lambda name: contextlib.nullcontext())
    calls_before = evaluators.expensive_call_count()
    with SpeedClock() as clock, span("run"):
        with span("orchestrator.run_training"):
            db, run_metrics = orchestrator.run_training(config)
        with span("orchestrator.db_write"):
            db.write(out_dir / "db.jsonl")
        with span("metrics.emit_report"):
            metrics.emit_report(run_metrics, out_dir)
    return clock, evaluators.expensive_call_count() - calls_before, run_metrics


def check_counts(records, calls: int, run_metrics) -> list[str]:
    expensive = sum(r.provenance == "expensive" for r in records)
    if expensive == calls == run_metrics.total_expensive:
        return []
    return [f"expensive counts disagree: {expensive} records, {calls} "
            f"evaluator calls, {run_metrics.total_expensive} in the report"]


def check_outputs(records, evaluator) -> list[str]:
    """Re-evaluate each converged expensive record from its canonical keys."""
    failures = []
    outcomes = {}
    for rec in records:
        if rec.provenance != "expensive" or not rec.converged:
            continue
        if rec.keys not in outcomes:
            trees = [symreg.parse_expression(key) for key in rec.keys]
            outcomes[rec.keys] = evaluator.evaluate(trees, None)
        outcome = outcomes[rec.keys]
        agree = outcome.converged and all(
            math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)
            for a, b in zip(outcome.objectives, rec.objectives))
        if not agree:
            failures.append(
                f"generation {rec.generation} id {rec.id}: stored "
                f"{list(rec.objectives)}, re-evaluated "
                f"{list(outcome.objectives)}")
    return failures


def layer_metrics(layers: dict, counts: dict, records,
                  run_s: float) -> dict[str, float]:
    """Per-layer values of one traced run."""
    def stat(span, field):
        return layers.get(span, {}).get(field, 0)

    keys = [r.keys for r in records if r.provenance == "expensive"]
    calls = stat("evaluators.evaluate", "calls")
    pool = counts.get("selection.pool", 0)
    out = {}
    for name in PER_LAYER:
        span, _, field = name.rpartition(".")
        if field in ("busy_s", "self_s", "calls") and span in layers:
            out[name] = stat(span, field)
        else:
            out[name] = counts.get(name, 0)
    out["selection.selected_ratio"] = (
        counts.get("selection.selected", 0) / pool if pool else 0.0)
    out["evaluators.evaluate.ms_per_call"] = (
        1e3 * stat("evaluators.evaluate", "busy_s") / calls if calls else 0.0)
    out["evaluators.repeat_calls"] = len(keys) - len(set(keys))
    out["evaluators.unique_ratio"] = len(set(keys)) / len(keys) if keys else 0.0
    out["trace.run_s"] = run_s
    # Close to 1 by construction: the run_training span covers all of
    # training, so only the glue between the top-level spans is missing.
    out["trace.self_share"] = sum(layer["self_s"] for span, layer
                                  in layers.items() if span != "run") / run_s
    # The share covered by spans of package functions; time in unwrapped
    # code shows up as the self time of run_training.
    out["trace.module_share"] = 1 - (
        stat("run", "self_s") + stat("orchestrator.run_training", "self_s")
    ) / run_s
    return out


def probe_setup(config_path: Path) -> dict[str, float]:
    """Set-up phases of one fresh process."""
    out = subprocess.run(
        [sys.executable, str(BENCH_DIR / "setup_probe.py"),
         str(BENCH_DIR.parent), str(config_path)],
        check=True, capture_output=True, text=True, timeout=120)
    return json.loads(out.stdout.strip().splitlines()[-1])


def median_setup(samples: list[dict]) -> dict[str, float]:
    phases = {key: statistics.median(s[key] for s in samples)
              for key in ("import_s", "config_s", "build_s")}
    phases["setup_s"] = statistics.median(
        s["import_s"] + s["config_s"] + s["build_s"] for s in samples)
    return phases


def load_fronts(config_name: str) -> dict:
    with open(FRONTS_FILE) as fh:
        frozen = json.load(fh)["configs"][config_name]
    ref = frozen["ref"]
    return {"ref": ref,
            "hv": {int(seed): hypervolume_2d(front, ref)
                   for seed, front in frozen["fronts"].items()}}


def run_and_check(result: RunResult, config, out_dir: Path,
                  tracer: Tracer | None, evaluator, fronts: dict,
                  digests: dict[int, str]) -> None:
    """Time one run, then check its outputs and fill in its figures."""
    if tracer is not None:
        tracer.run_id = result.index
        with instrument(tracer):
            clock, calls, run_metrics = timed_run(config, out_dir, tracer)
    else:
        clock, calls, run_metrics = timed_run(config, out_dir, None)
    result.wall_s, result.run_s = clock.wall_s, clock.scaled_s
    db_path = out_dir / "db.jsonl"
    records = orchestrator.EvaluationDatabase.read(db_path).records
    result.failures += check_counts(records, calls, run_metrics)
    result.failures += check_outputs(records, evaluator)
    digest = hashlib.sha256(db_path.read_bytes()).hexdigest()
    if digests.setdefault(result.seed, digest) != digest:
        result.failures.append(
            f"db.jsonl differs from the earlier run of seed {result.seed}")
    result.expensive_evals = sum(r.provenance == "expensive" for r in records)
    result.hv_ref = (hypervolume_2d(expensive_front(records), fronts["ref"])
                     / fronts["hv"][result.seed])
    if tracer is not None:
        result.layers = layer_metrics(tracer.run_layers(result.index),
                                      tracer.counts[result.index], records,
                                      result.wall_s)


def measure(name: str, workload: Workload, base_seed: int, seconds: float,
            trace: bool, out_root: Path) -> dict:
    """Measure one workload in whole passes over its seeds, for `seconds` of
    runs less half a pass, and at least one pass; return its result
    record."""
    root = BENCH_DIR.parent
    config_path = root / workload.config
    config = orchestrator.load_run_config(config_path)
    config = dataclasses.replace(config, surrogate_enabled=workload.surrogate)
    if workload.generations is not None:
        config = dataclasses.replace(config, generations=workload.generations)
    check_evaluator = orchestrator.build_evaluator(config.evaluator)
    fronts = load_fronts(workload.config)
    work_dir = out_root / "work" / name
    shutil.rmtree(work_dir, ignore_errors=True)

    tracer = Tracer() if trace else None
    digests: dict[int, str] = {}
    runs: list[RunResult] = []
    spent = 0.0  # wall seconds measured so far; checks do not count
    pass_runs = len(workload.seeds)
    while True:
        index = len(runs)
        result = RunResult(index=index,
                           seed=iteration_seed(workload.seeds, base_seed,
                                               index),
                           traced=trace and index > 0)
        runs.append(result)
        out_dir = work_dir / str(index)
        out_dir.mkdir(parents=True)
        started = time.perf_counter()
        try:
            run_and_check(result, dataclasses.replace(
                config, seed=result.seed, output_dir=str(out_dir)),
                out_dir, tracer if result.traced else None, check_evaluator,
                fronts, digests)
        except Exception:
            result.failures.append(traceback.format_exc())
        spent += (result.wall_s if result.wall_s is not None
                  else time.perf_counter() - started)
        for failure in result.failures:
            print(f"run {index} (seed {result.seed}) failed: {failure}",
                  file=sys.stderr)
        shutil.rmtree(out_dir, ignore_errors=True)
        # Stop at the end of a pass once another half pass would overrun
        # the budget, or once a run has failed.
        passes, rest = divmod(len(runs) - 1, pass_runs)
        if passes and not rest and (spent * (1 + 0.5 / passes) >= seconds
                                    or any(r.failures for r in runs)):
            break

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup = median_setup([probe_setup(config_path)
                          for _ in range(SETUP_PROBES)])
    if tracer is not None:
        tracer.write(out_root / f"spans-{name}.jsonl")
    done = [r for r in runs if r.hv_ref is not None]
    traced = [r for r in runs if r.layers is not None]
    failed = sum(bool(r.failures) for r in runs)
    layer_table = None
    values = None  # no metrics when no run got through
    if trace and traced:
        values = trace_metrics(runs, traced, setup)
        layer_table = {"run": traced[-1].index, "wall_s": traced[-1].wall_s,
                       "spans": tracer.run_layers(traced[-1].index)}
    elif not trace and done:
        # Quality and counts depend on the seed only, so the seed that runs 0
        # and 1 share counts once; its time is the mean of its runs.
        per_seed = list({r.seed: r for r in done}.values())
        values = {
            "run_s": statistics.median(
                statistics.mean(r.run_s for r in done if r.seed == seed)
                for seed in {r.seed for r in done}),
            "setup_s": setup["setup_s"],
            "expensive_evals": statistics.median(
                r.expensive_evals for r in per_seed),
            "hv_ref": statistics.median(r.hv_ref for r in per_seed),
            "peak_rss_mb": peak_rss_mb,
        }
    units = PER_LAYER if trace else END_TO_END
    return {
        "workload": name,
        "seed": base_seed,
        "trace": int(trace),
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": ({} if values is None else
                    {key: {"value": values[key], "unit": units[key]}
                     for key in units}),
        "runs": [{"index": r.index, "seed": r.seed, "traced": r.traced,
                  "wall_s": r.wall_s, "run_s": r.run_s,
                  "expensive_evals": r.expensive_evals,
                  "hv_ref": r.hv_ref, "failed": bool(r.failures)}
                 for r in runs],
        "layers": layer_table,
        "context": context(root),
    }


def trace_metrics(runs: list[RunResult], traced: list[RunResult],
                  setup: dict) -> dict:
    values = {key: statistics.median(r.layers[key] for r in traced)
              for key in traced[0].layers}
    values["setup.import_s"] = setup["import_s"]
    values["setup.config_s"] = setup["config_s"]
    values["evaluators.build_s"] = setup["build_s"]
    # Runs 0 (untraced) and 1 (traced) share a seed.
    values["trace.overhead_s"] = (
        runs[1].run_s - runs[0].run_s
        if None not in (runs[0].run_s, runs[1].run_s) else None)
    return values


def context(root: Path) -> dict:
    """Where and on what the figures were measured; not gated."""
    src_files = sorted((root / "src").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in src_files:
        data = path.read_bytes()
        digest.update(str(path.relative_to(root)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = None
    if (root / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                    capture_output=True, text=True,
                                    timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {var: os.environ.get(var) for var in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                          "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
    }
