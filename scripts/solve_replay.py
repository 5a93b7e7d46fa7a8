"""Time the channel solve on the batches of seeded training runs.

perfbench's `evaluators.evaluate` span wraps only `evaluate`, which channel
training does not call, so no benchmark metric shows the cost of
`evaluators._solve_batch`, the solve of a generation's candidates.  This
script runs one seeded channel training per mode and seed, records the
arguments of every `_solve_batch` call, and replays the recorded batches
`--repeats` times.  Each replayed call is timed with perfbench's
`hostspeed.SpeedClock`, in seconds at a fixed host speed.

Batches are grouped by kind: the truth solve of `make_reference`, the
zero-closure solve of `baseline_table`, and the generation batches by size
(1, 2-49 and at least 50 rows).  For each group it prints the batches,
candidates, fixed-point iterations (the longest row of each batch) and
row-iterations behind it, then the median over repeats of the solve time
per candidate.  Each mode ends with the tracemalloc peak of its largest
batch and a sha256 over every replayed row's profiles, iteration count and
convergence flag, so two checkouts can be compared bit for bit:

    PYTHONPATH=src python3 scripts/solve_replay.py --modes baseline \
        --seeds 0 1 2 3 4 5 --repeats 20

Usage:
    python3 scripts/solve_replay.py [--config path/to/run.json]
        [--modes baseline surrogate] [--seeds 0 ...] [--repeats 10]
        [--generations N]
"""

import argparse
import dataclasses
import hashlib
import statistics
import sys
import tracemalloc
from pathlib import Path

from sagep import evaluators as ev
from sagep.orchestrator import load_run_config, run_training

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
from hostspeed import SpeedClock  # noqa: E402

GROUPS = ("truth", "zero-closure", "1 row", "2-49 rows", ">=50 rows")


def capture(config) -> list[tuple[str, tuple]]:
    """(group, arguments) of every _solve_batch call of one training run."""
    calls = []
    solve, evaluate_batch = ev._solve_batch, ev.ChannelEvaluator.evaluate_batch
    in_generation = False

    def recording(case, closures, tol):
        if in_generation:
            k = len(closures)
            group = ("1 row" if k == 1 else "2-49 rows" if k < 50
                     else ">=50 rows")
        else:
            group = "truth" if tol < case.tol else "zero-closure"
        if closures:
            calls.append((group, (case, list(closures), tol)))
        return solve(case, closures, tol)

    def generation(self, slots_list):
        nonlocal in_generation
        in_generation = True
        try:
            return evaluate_batch(self, slots_list)
        finally:
            in_generation = False

    ev._solve_batch, ev.ChannelEvaluator.evaluate_batch = recording, generation
    try:
        run_training(config)
    finally:
        ev._solve_batch, ev.ChannelEvaluator.evaluate_batch = (
            solve, evaluate_batch)
    return calls


def replay(calls, repeats: int) -> tuple[dict, str]:
    """Per group: [batches, candidates, iterations, row-iterations,
    median seconds]; and the digest of every replayed row."""
    stats = {group: [0, 0, 0, 0, []] for group in GROUPS}
    digest = hashlib.sha256()
    for _ in range(repeats):
        times = dict.fromkeys(GROUPS, 0.0)
        for group, args in calls:
            with SpeedClock() as clock:
                rows = ev._solve_batch(*args)
            times[group] += clock.scaled_s
            if len(stats[group][4]) == 0:  # counts from the first repeat
                row_its = [its for _, _, its, _ in rows]
                stats[group][:4] = [a + b for a, b in zip(
                    stats[group][:4],
                    (1, len(rows), max(row_its), sum(row_its)))]
                for u, T, its, ok in rows:
                    digest.update(u.tobytes() + T.tobytes()
                                  + f"{its} {ok};".encode())
        for group in GROUPS:
            stats[group][4].append(times[group])
    for row in stats.values():
        row[4] = statistics.median(row[4])
    return stats, digest.hexdigest()


def largest_batch_peak(calls) -> tuple[int, float]:
    """Rows and tracemalloc peak (MB) of the largest batch's solve."""
    _, args = max(calls, key=lambda call: len(call[1][1]))
    tracemalloc.start()
    try:
        ev._solve_batch(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return len(args[1]), peak / 2 ** 20


def report(mode: str, seeds, repeats: int, stats: dict, digest: str,
           peak: tuple[int, float]) -> list[str]:
    lines = [f"mode {mode}  seeds {' '.join(map(str, seeds))}  "
             f"repeats {repeats}",
             f"  {'group':13s} {'batches':>7s} {'rows':>6s} {'iters':>6s} "
             f"{'row_iters':>9s} {'ms/row':>8s} {'ms':>9s}"]
    for group, (batches, rows, iters, row_iters, seconds) in stats.items():
        if batches:
            lines.append(f"  {group:13s} {batches:7d} {rows:6d} {iters:6d} "
                         f"{row_iters:9d} {1e3 * seconds / rows:8.4f} "
                         f"{1e3 * seconds:9.3f}")
    lines.append(f"  largest batch: {peak[0]} rows, tracemalloc peak "
                 f"{peak[1]:.3f} MB")
    lines.append(f"  outputs sha256 {digest}")
    return lines


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", default=ROOT / "configs"
                        / "channel_run.json")
    parser.add_argument("--modes", nargs="+", default=["baseline"],
                        choices=("baseline", "surrogate"))
    parser.add_argument("--seeds", type=int, nargs="+", default=[0])
    parser.add_argument("--repeats", type=int, default=10)
    parser.add_argument("--generations", type=int, default=None)
    args = parser.parse_args(argv)
    config = load_run_config(args.config)
    if args.generations is not None:
        config = dataclasses.replace(config, generations=args.generations)
    for mode in args.modes:
        calls = []
        for seed in args.seeds:
            calls += capture(dataclasses.replace(
                config, seed=seed, surrogate_enabled=mode == "surrogate"))
        stats, digest = replay(calls, args.repeats)
        print("\n".join(report(mode, args.seeds, args.repeats, stats, digest,
                               largest_batch_peak(calls))), flush=True)


if __name__ == "__main__":
    main()
