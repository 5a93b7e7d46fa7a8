"""Run the benchmark and the tier-1 suite, and write one BENCH_*.json.

perfbench/run.py runs each of its three workloads untraced (--trace 0) and
traced (--trace 1); each invocation leaves its result in
.bench_out/result-<workload>-trace<t>.json.  The tier-1 suite then runs
once.  The output file gathers, per workload, the end-to-end metrics of the
untraced result and the per-layer metrics of the traced one, the context of
the measurement (commit, src_lines, tool versions), tier-1's pass count and
wall time, and the channel break-even line perfbench prints.  That line
adds perfbench's traced cost per `evaluators.evaluate` call; when the
traced channel-baseline run records no such call (the channel evaluator
solves a generation through `evaluate_batch`, which perfbench does not
wrap), the record says the figure is unavailable instead.  perfbench
itself is only run, never changed.  Every invocation uses seed 0 and the
run length BENCHMARK.json declares (`run_seconds`), and the record stores
both.

Usage (from anywhere; about 4 minutes on a 2-vCPU host):
    python3 scripts/bench.py --out BENCH_<n>.json
"""

import argparse
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RESULTS = ROOT / ".bench_out"
WORKLOADS = ("channel-surrogate", "channel-baseline", "symbolic-surrogate")
TIER1 = [sys.executable, "-m", "pytest", "-q",
         "--continue-on-collection-errors"]
BREAK_EVEN = "break-even evaluator cost:"
NO_EVALUATE_CALLS = (
    f"{BREAK_EVEN} unavailable: the traced channel-baseline run records no "
    "evaluators.evaluate call (training solves each generation through "
    "evaluate_batch, which perfbench does not wrap), so perfbench's figure "
    "would add 0 ms per call")
SEED = 0
RUN_SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
# pytest writes "1 error" / "2 errors" and "1 warning" / "2 warnings".
OUTCOME = re.compile(r"(\d+) (passed|failed|skipped|xfailed|xpassed|"
                     r"deselected|errors?|warnings?)\b")
PLURAL = {"error": "errors", "warning": "warnings"}


def run_perfbench(workload: str, trace: int) -> str:
    """One perfbench invocation; its standard output."""
    return subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(SEED),
         "--seconds", str(RUN_SECONDS), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True).stdout


def tier1_counts(output: str) -> dict[str, int]:
    """Outcome counts from pytest's closing summary line, keyed by the
    plural form of each outcome."""
    summary = output.strip().splitlines()[-1] if output.strip() else ""
    return {PLURAL.get(word, word): int(count)
            for count, word in OUTCOME.findall(summary)}


def run_tier1() -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    started = time.perf_counter()
    proc = subprocess.run(TIER1, cwd=ROOT, env=env, capture_output=True,
                          text=True)
    wall_s = time.perf_counter() - started
    return {"command": " ".join(["python", *TIER1[1:]]),
            "returncode": proc.returncode, "wall_s": round(wall_s, 1),
            **tier1_counts(proc.stdout)}


def break_even_line(stdout: str) -> str | None:
    lines = [line for line in stdout.splitlines()
             if line.startswith(BREAK_EVEN)]
    return lines[-1] if lines else None


def collect(results: Path, tier1: dict, break_even: str | None) -> dict:
    """The bench record from perfbench's stored results of one source tree."""
    workloads, contexts = {}, []
    for name in WORKLOADS:
        untraced, traced = (
            json.loads((results / f"result-{name}-trace{t}.json").read_text())
            for t in (0, 1))
        contexts += [untraced["context"], traced["context"]]
        workloads[name] = {
            "correct": untraced["correct"] and traced["correct"],
            "seed": untraced["seed"],
            "end_to_end": untraced["metrics"],
            "per_layer": traced["metrics"],
        }
    if len({c["src_sha256"] for c in contexts}) != 1:
        raise ValueError("perfbench results come from different source trees")
    calls = workloads["channel-baseline"]["per_layer"].get(
        "evaluators.evaluate.calls")
    if calls is not None and calls["value"] == 0:
        break_even = NO_EVALUATE_CALLS
    return {"context": contexts[0], "run_seconds": RUN_SECONDS,
            "workloads": workloads, "tier1": tier1, "break_even": break_even}


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True,
                        help="file to write, BENCH_<n>.json")
    args = parser.parse_args(argv)

    break_even = None
    for name in WORKLOADS:
        for trace in (0, 1):
            stdout = run_perfbench(name, trace)
            break_even = break_even_line(stdout) or break_even
    record = collect(RESULTS, run_tier1(), break_even)
    args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {args.out}: tier-1 {record['tier1']}; "
          f"{record['break_even']}")


if __name__ == "__main__":
    main()
