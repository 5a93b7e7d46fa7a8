"""sagep benchmark: one workload per invocation.

Usage (from the repository root):

    python3 perfbench/run.py --workload channel-surrogate --seed 0 \
        --seconds 20 --trace 0

Workloads are listed in workloads.WORKLOADS.  With --trace 0 the last line
of standard output is a JSON object with the end-to-end metrics; with
--trace 1 it holds the per-layer metrics of traced runs.  Lines before it
are a readable report.  Spans, per-run results and the context of each
invocation go to .bench_out/ under the repository root.  BLAS is pinned to
one thread.  Exit code 2 means the repository is incomplete and nothing was
measured.
"""

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
REQUIRED = ("src/sagep/__init__.py", "configs/channel_run.json",
            "configs/symbolic_quadratic.json")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def report(result: dict) -> list[str]:
    lines = [f"workload {result['workload']}  seed {result['seed']}  "
             f"trace {result['trace']}  runs {result['attempted']}  "
             f"failed {result['failed']}"]
    for run in result["runs"]:
        lines.append(f"  run {run['index']:2d} seed {run['seed']:2d}"
                     f"{' traced' if run['traced'] else '       '}  "
                     f"wall_s {run['wall_s']}  run_s {run['run_s']}  "
                     f"expensive {run['expensive_evals']}"
                     f"  hv_ref {run['hv_ref']}"
                     f"{'  FAILED' if run['failed'] else ''}")
    times = [run["run_s"] for run in result["runs"]
             if run["run_s"] is not None]
    if not result["trace"] and times:
        seeds = len({run["seed"] for run in result["runs"]})
        lines.append(f"  run_s is the median over {seeds} seeds of their mean "
                     f"run_s, from {len(times)} runs, in seconds at the "
                     f"nominal host speed; the slowest run took {max(times)!r}"
                     f" s (no higher percentile has ten runs beyond it)")
    for name, metric in result["metrics"].items():
        lines.append(f"  {name} = {metric['value']!r} {metric['unit']}")
    table = result["layers"]
    if table:
        lines.append(f"  layers of run {table['run']}, self time as a share "
                     f"of its {table['wall_s']:.3f} s:")
        for span, layer in sorted(table["spans"].items(),
                                  key=lambda item: -item[1]["self_s"]):
            lines.append(f"    {span:32s} calls {layer['calls']:7d}  "
                         f"busy {layer['busy_s']:9.4f} s  "
                         f"self {layer['self_s']:9.4f} s  "
                         f"{100 * layer['self_s'] / table['wall_s']:5.1f}%")
    if "trace.overhead_s" in result["metrics"]:
        lines.append(f"  tracing overhead: "
                     f"{result['metrics']['trace.overhead_s']['value']!r} s "
                     f"(traced minus untraced run of seed {result['runs'][0]['seed']})")
    lines.append("  context " + json.dumps(result["context"], sort_keys=True))
    return lines


def break_even_line(src_sha256: str) -> str:
    """Channel evaluator cost per call above which the surrogate saves wall
    time, from the latest stored results of both channel workloads, if all
    of them were measured on the source tree with digest src_sha256."""
    needs = ("break-even evaluator cost: needs stored results of "
             "channel-surrogate and channel-baseline, traced and untraced, "
             "of this source tree")
    try:
        stored = {name: json.loads((OUT / f"result-{name}.json").read_text())
                  for name in ("channel-surrogate-trace0",
                               "channel-baseline-trace0",
                               "channel-baseline-trace1")}
        if any(result["context"]["src_sha256"] != src_sha256
               for result in stored.values()):
            return needs
        saved = (stored["channel-baseline-trace0"]["metrics"]
                 ["expensive_evals"]["value"]
                 - stored["channel-surrogate-trace0"]["metrics"]
                 ["expensive_evals"]["value"])
        extra_s = (stored["channel-surrogate-trace0"]["metrics"]["run_s"]
                   ["value"]
                   - stored["channel-baseline-trace0"]["metrics"]["run_s"]
                   ["value"])
        ms_per_call = (stored["channel-baseline-trace1"]["metrics"]
                       ["evaluators.evaluate.ms_per_call"]["value"])
    except (OSError, ValueError, KeyError):
        return needs
    if saved <= 0:
        return "break-even evaluator cost: the surrogate saves no evaluations"
    return (f"break-even evaluator cost: {1e3 * extra_s / saved + ms_per_call!r}"
            f" ms per call ({extra_s!r} s extra over {saved!r} saved calls,"
            f" plus {ms_per_call!r} ms per call today)")


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [path for path in REQUIRED if not (ROOT / path).exists()]
    if missing:
        print(f"cannot benchmark: missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    # Pin BLAS before numpy loads; setup probes inherit the environment.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    result = workloads.measure(args.workload,
                               workloads.WORKLOADS[args.workload],
                               args.seed, args.seconds, bool(args.trace), OUT)
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1) + "\n")
    for line in report(result):
        print(line)
    if args.workload.startswith("channel-"):
        print(break_even_line(result["context"]["src_sha256"]))
    print(json.dumps({key: result[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
