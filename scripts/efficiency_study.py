"""Baseline-versus-surrogate efficiency study on the coupled channel case.

For each seed the study runs the evolutionary loop twice with identical
settings, once evaluating every candidate and once with surrogate gating,
then compares the runs' final hypervolumes (against the reference both
runs share, fixed by their common generation 0), the total
expensive-evaluation counts, the counts after generation 0, the wall time
of each run (`time.perf_counter` around `run_training`) and the part of it
spent inside the evaluator's `evaluate_batch`.

From these it states the break-even evaluator cost of each seed,

    c* = (S_surr - S_base) / (N_base - N_surr),

with S a run's wall time outside the evaluator and N its evaluator calls:
the surrogate run is the faster one whenever a call costs more than c*, so
a negative c* means it pays for itself even with a free evaluator.

The study's settings are those of `--config` (configs/channel_run.json
by default); `--generations`, `--population` and `--offspring`, when
given, replace that config's values.

Usage:
    python3 scripts/efficiency_study.py [--seeds 10] [--generations N]
        [--population N] [--offspring N] [--config path/to/run.json]
"""

import argparse
import dataclasses
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np

from sagep import orchestrator
from sagep.orchestrator import RunConfig, load_run_config, run_training

CONFIG = Path(__file__).resolve().parents[1] / "configs" / "channel_run.json"
SIZES = ("generations", "population", "offspring")


class Pair(NamedTuple):
    hv_ratio: float
    eval_ratio: float
    later_eval_ratio: float  # evaluator calls after generation 0
    n_surrogate: int
    n_baseline: int
    surrogate_s: float
    baseline_s: float
    shared_reference: bool
    surrogate_eval_s: float  # of surrogate_s, inside the evaluator
    baseline_eval_s: float

    @property
    def break_even_s(self) -> float:
        """c*, the evaluator cost per call at which both runs take as long."""
        saved = self.n_baseline - self.n_surrogate
        extra = ((self.surrogate_s - self.surrogate_eval_s)
                 - (self.baseline_s - self.baseline_eval_s))
        return extra / saved if saved else float("nan")


def timed_run(config: RunConfig):
    """The run's metrics, its wall time and the time spent inside its
    evaluator's `evaluate_batch`."""
    inside = 0.0
    build = orchestrator.build_evaluator

    def build_timed(spec):
        evaluator = build(spec)
        batch = evaluator.evaluate_batch

        def timed_batch(*args, **kwargs):
            nonlocal inside
            t0 = time.perf_counter()
            try:
                return batch(*args, **kwargs)
            finally:
                inside += time.perf_counter() - t0

        evaluator.evaluate_batch = timed_batch
        return evaluator

    # run_training looks the builder up as a module attribute.
    orchestrator.build_evaluator = build_timed
    t0 = time.perf_counter()
    try:
        _, metrics = run_training(config)
    finally:
        orchestrator.build_evaluator = build
    return metrics, time.perf_counter() - t0, inside


def run_pair(config: RunConfig, seed: int) -> Pair:
    met_b, t_b, e_b = timed_run(
        dataclasses.replace(config, seed=seed, surrogate_enabled=False))
    met_s, t_s, e_s = timed_run(
        dataclasses.replace(config, seed=seed, surrogate_enabled=True))
    hv_b = met_b.final_hypervolume
    ratio = met_s.final_hypervolume / hv_b if hv_b > 0 else float("nan")
    n_s, n_b = met_s.total_expensive, met_b.total_expensive
    later_s = n_s - met_s.rows[0].expensive_cumulative
    later_b = n_b - met_b.rows[0].expensive_cumulative
    return Pair(ratio, n_s / n_b,
                later_s / later_b if later_b else float("nan"), n_s, n_b,
                t_s, t_b, met_s.reference == met_b.reference, e_s, e_b)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10,
                        help="number of seeds, run as 0..N-1")
    for size in SIZES:
        parser.add_argument(f"--{size}", type=int, default=None,
                            help="replaces the config's value")
    parser.add_argument("--config", default=str(CONFIG), help=(
        "run config JSON (default: configs/channel_run.json)"))
    args = parser.parse_args(argv)
    config = load_run_config(args.config, **{
        size: getattr(args, size) for size in SIZES
        if getattr(args, size) is not None})

    pairs = []
    t0 = time.perf_counter()
    print("seed  hv_ratio  eval_ratio  later_eval_ratio  "
          "expensive(surr/base)  time_s(surr/base)  time_ratio  "
          "shared_reference  eval_s(surr/base)  break_even_ms")
    for seed in range(args.seeds):
        pair = run_pair(config, seed)
        pairs.append(pair)
        print(f"{seed:4d}  {pair.hv_ratio:8.4f}  "
              f"{pair.eval_ratio:10.4f}  {pair.later_eval_ratio:16.4f}  "
              f"{pair.n_surrogate:6d}/{pair.n_baseline:<13d}  "
              f"{pair.surrogate_s:7.3f}/{pair.baseline_s:<9.3f}  "
              f"{pair.surrogate_s / pair.baseline_s:10.4f}  "
              f"{str(pair.shared_reference):16s}  "
              f"{pair.surrogate_eval_s:7.3f}/{pair.baseline_eval_s:<9.3f}  "
              f"{pair.break_even_s * 1e3:13.4f}")
    elapsed = time.perf_counter() - t0

    print(f"median hv ratio:       "
          f"{np.median([p.hv_ratio for p in pairs]):.4f}")
    print(f"median eval ratio:     "
          f"{np.median([p.eval_ratio for p in pairs]):.4f}")
    print(f"median time ratio:     "
          f"{np.median([p.surrogate_s / p.baseline_s for p in pairs]):.4f}")
    print(f"median break-even:     "
          f"{np.median([p.break_even_s for p in pairs]) * 1e3:.4f} ms per call")
    print(f"elapsed: {elapsed:.1f} s")


if __name__ == "__main__":
    main()
