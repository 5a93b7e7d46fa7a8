"""Run the benchmark and the tier-1 suite, and write one BENCH_*.json.

perfbench/run.py runs each of its three workloads untraced (--trace 0) and
traced (--trace 1); each invocation leaves its result in
.bench_out/result-<workload>-trace<t>.json.  The tier-1 suite then runs
once, and scripts/efficiency_study.py STUDY_ROUNDS times on the channel
config's seeds 0-9.  The output file gathers, per workload, the end-to-end
metrics of the untraced result and the per-layer metrics of the traced one,
the context of the measurement (commit, src_lines, tool versions), tier-1's
pass count and wall time, and the break-even evaluator cost: each round's
median over those seeds of the study's paired c*, the cost per evaluator
call at which a surrogate run and a baseline run take equally long, and the
median of the rounds' medians.  perfbench
itself is only run, never changed.  Every perfbench invocation uses seed 0
and the run length BENCHMARK.json declares (`run_seconds`), and the record
stores both.

Usage (from anywhere; about 5 minutes on a 2-vCPU host):
    python3 scripts/bench.py --out BENCH_<n>.json
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RESULTS = ROOT / ".bench_out"
WORKLOADS = ("channel-surrogate", "channel-baseline", "symbolic-surrogate")
TIER1 = [sys.executable, "-m", "pytest", "-q",
         "--continue-on-collection-errors"]
STUDY = [sys.executable, "scripts/efficiency_study.py",
         "--config", "configs/channel_run.json", "--seeds", "10"]
STUDY_MEDIAN = re.compile(r"^median break-even: +(\S+) ms per call$",
                          re.MULTILINE)
# One round's median c* moves by about 25% between rounds of one tree.
STUDY_ROUNDS = 3
SEED = 0
RUN_SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
# pytest writes "1 error" / "2 errors" and "1 warning" / "2 warnings".
OUTCOME = re.compile(r"(\d+) (passed|failed|skipped|xfailed|xpassed|"
                     r"deselected|errors?|warnings?)\b")
PLURAL = {"error": "errors", "warning": "warnings"}


def run_perfbench(workload: str, trace: int) -> None:
    """One perfbench invocation, which stores its result under RESULTS."""
    subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(SEED),
         "--seconds", str(RUN_SECONDS), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, check=True)


def tier1_counts(output: str) -> dict[str, int]:
    """Outcome counts from pytest's closing summary line, keyed by the
    plural form of each outcome."""
    summary = output.strip().splitlines()[-1] if output.strip() else ""
    return {PLURAL.get(word, word): int(count)
            for count, word in OUTCOME.findall(summary)}


def source_env() -> dict:
    """The environment with this tree's src/ first on PYTHONPATH."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))


def run_tier1() -> dict:
    started = time.perf_counter()
    proc = subprocess.run(TIER1, cwd=ROOT, env=source_env(),
                          capture_output=True, text=True)
    wall_s = time.perf_counter() - started
    return {"command": " ".join(["python", *TIER1[1:]]),
            "returncode": proc.returncode, "wall_s": round(wall_s, 1),
            **tier1_counts(proc.stdout)}


def run_study() -> str:
    """The efficiency study's standard output."""
    return subprocess.run(STUDY, cwd=ROOT, env=source_env(),
                          capture_output=True, text=True, check=True).stdout


def round_median(study_stdout: str) -> float:
    """The median c* one run of the study printed."""
    medians = STUDY_MEDIAN.findall(study_stdout)
    if len(medians) != 1:
        raise ValueError("the efficiency study printed not one median "
                         f"break-even line but {len(medians)}")
    return float(medians[0])


def break_even(study_stdouts: list[str]) -> dict:
    """Each study round's median c*, their median, and the command."""
    rounds = [round_median(stdout) for stdout in study_stdouts]
    return {"median_ms_per_call": statistics.median(rounds),
            "round_medians_ms_per_call": rounds,
            "command": " ".join(["python3", *STUDY[1:]])}


def collect(results: Path, tier1: dict, break_even: dict) -> dict:
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
    return {"context": contexts[0], "run_seconds": RUN_SECONDS,
            "workloads": workloads, "tier1": tier1, "break_even": break_even}


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True,
                        help="file to write, BENCH_<n>.json")
    args = parser.parse_args(argv)

    for name in WORKLOADS:
        for trace in (0, 1):
            run_perfbench(name, trace)
    record = collect(RESULTS, run_tier1(), break_even(
        [run_study() for _ in range(STUDY_ROUNDS)]))
    args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {args.out}: tier-1 {record['tier1']}; break-even "
          f"{record['break_even']['median_ms_per_call']} ms per call")


if __name__ == "__main__":
    main()
