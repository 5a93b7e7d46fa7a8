"""Baseline-versus-surrogate efficiency study on the coupled channel case.

For each seed the study runs the evolutionary loop twice with identical
settings, once evaluating every candidate and once with surrogate gating,
then compares the runs' final hypervolumes (against the reference both
runs share, fixed by their common generation 0), the total
expensive-evaluation counts, the counts after generation 0 and the wall
time of each run (`time.perf_counter` around `run_training`).

Usage:
    python3 scripts/efficiency_study.py [--seeds 10] [--generations 12]
        [--population 96] [--offspring 24] [--config path/to/run.json]
"""

import argparse
import dataclasses
import time
from typing import NamedTuple

import numpy as np

from sagep.orchestrator import (
    EvaluatorSpec,
    RunConfig,
    load_run_config,
    run_training,
)


class Pair(NamedTuple):
    hv_ratio: float
    eval_ratio: float
    later_eval_ratio: float  # evaluator calls after generation 0
    n_surrogate: int
    n_baseline: int
    surrogate_s: float
    baseline_s: float
    shared_reference: bool


def timed_run(config: RunConfig):
    t0 = time.perf_counter()
    _, metrics = run_training(config)
    return metrics, time.perf_counter() - t0


def run_pair(config: RunConfig, seed: int) -> Pair:
    met_b, t_b = timed_run(
        dataclasses.replace(config, seed=seed, surrogate_enabled=False))
    met_s, t_s = timed_run(
        dataclasses.replace(config, seed=seed, surrogate_enabled=True))
    hv_b = met_b.final_hypervolume
    ratio = met_s.final_hypervolume / hv_b if hv_b > 0 else float("nan")
    n_s, n_b = met_s.total_expensive, met_b.total_expensive
    later_s = n_s - met_s.rows[0].expensive_cumulative
    later_b = n_b - met_b.rows[0].expensive_cumulative
    return Pair(ratio, n_s / n_b,
                later_s / later_b if later_b else float("nan"), n_s, n_b,
                t_s, t_b, met_s.reference == met_b.reference)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10,
                        help="number of seeds, run as 0..N-1")
    parser.add_argument("--generations", type=int, default=12)
    parser.add_argument("--population", type=int, default=96)
    parser.add_argument("--offspring", type=int, default=24)
    parser.add_argument("--config", default=None,
                        help="run config JSON; overrides the size flags")
    args = parser.parse_args(argv)

    if args.config is not None:
        config = load_run_config(args.config)
    else:
        config = RunConfig(seed=0, generations=args.generations,
                           population=args.population,
                           offspring=args.offspring,
                           surrogate_enabled=True,
                           evaluator=EvaluatorSpec(kind="channel"))

    pairs = []
    t0 = time.perf_counter()
    print("seed  hv_ratio  eval_ratio  later_eval_ratio  "
          "expensive(surr/base)  time_s(surr/base)  time_ratio  "
          "shared_reference")
    for seed in range(args.seeds):
        pair = run_pair(config, seed)
        pairs.append(pair)
        print(f"{seed:4d}  {pair.hv_ratio:8.4f}  "
              f"{pair.eval_ratio:10.4f}  {pair.later_eval_ratio:16.4f}  "
              f"{pair.n_surrogate:6d}/{pair.n_baseline:<13d}  "
              f"{pair.surrogate_s:7.3f}/{pair.baseline_s:<9.3f}  "
              f"{pair.surrogate_s / pair.baseline_s:10.4f}  "
              f"{pair.shared_reference}")
    elapsed = time.perf_counter() - t0

    print(f"median hv ratio:       "
          f"{np.median([p.hv_ratio for p in pairs]):.4f}")
    print(f"median eval ratio:     "
          f"{np.median([p.eval_ratio for p in pairs]):.4f}")
    print(f"median time ratio:     "
          f"{np.median([p.surrogate_s / p.baseline_s for p in pairs]):.4f}")
    print(f"elapsed: {elapsed:.1f} s")


if __name__ == "__main__":
    main()
