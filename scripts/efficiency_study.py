"""Baseline-versus-surrogate efficiency study on the coupled channel case.

For each seed the study runs the evolutionary loop twice with identical
settings, once evaluating every candidate and once with surrogate gating,
then compares the hypervolume coverage of the expensive-evaluation Pareto
fronts, the total expensive-evaluation counts and the wall time of each
run (`time.perf_counter` around `run_training`).

Usage:
    python3 scripts/efficiency_study.py [--seeds 10] [--generations 12]
        [--population 96] [--offspring 24] [--config path/to/run.json]
"""

import argparse
import dataclasses
import time
from typing import NamedTuple

import numpy as np

from sagep.metrics import compare_coverage, pareto_front
from sagep.orchestrator import (
    EvaluatorSpec,
    RunConfig,
    load_run_config,
    run_training,
)


class Pair(NamedTuple):
    coverage_ratio: float
    eval_ratio: float
    n_surrogate: int
    n_baseline: int
    surrogate_s: float
    baseline_s: float


def expensive_front(db):
    points = np.array([r.objectives for r in db.records
                       if r.converged and r.provenance == "expensive"])
    return pareto_front(points)


def timed_run(config: RunConfig):
    t0 = time.perf_counter()
    db, metrics = run_training(config)
    return db, metrics, time.perf_counter() - t0


def run_pair(config: RunConfig, seed: int) -> Pair:
    db_b, met_b, t_b = timed_run(
        dataclasses.replace(config, seed=seed, surrogate_enabled=False))
    db_s, met_s, t_s = timed_run(
        dataclasses.replace(config, seed=seed, surrogate_enabled=True))
    cov_b, cov_s = compare_coverage([expensive_front(db_b),
                                     expensive_front(db_s)])
    ratio = cov_s / cov_b if cov_b > 0 else float("nan")
    return Pair(ratio, met_s.total_expensive / met_b.total_expensive,
                met_s.total_expensive, met_b.total_expensive, t_s, t_b)


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
    print("seed  coverage_ratio  eval_ratio  expensive(surr/base)  "
          "time_s(surr/base)  time_ratio")
    for seed in range(args.seeds):
        pair = run_pair(config, seed)
        pairs.append(pair)
        print(f"{seed:4d}  {pair.coverage_ratio:14.4f}  "
              f"{pair.eval_ratio:10.4f}  "
              f"{pair.n_surrogate:6d}/{pair.n_baseline:<13d}  "
              f"{pair.surrogate_s:7.3f}/{pair.baseline_s:<9.3f}  "
              f"{pair.surrogate_s / pair.baseline_s:10.4f}")
    elapsed = time.perf_counter() - t0

    print(f"median coverage ratio: "
          f"{np.median([p.coverage_ratio for p in pairs]):.4f}")
    print(f"median eval ratio:     "
          f"{np.median([p.eval_ratio for p in pairs]):.4f}")
    print(f"median time ratio:     "
          f"{np.median([p.surrogate_s / p.baseline_s for p in pairs]):.4f}")
    print(f"elapsed: {elapsed:.1f} s")


if __name__ == "__main__":
    main()
