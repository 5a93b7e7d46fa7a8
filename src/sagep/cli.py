"""Command-line front end.

Subcommands: run (execute a training run from a JSON config), replay
(passively re-run selection against a stored baseline database) and report
(recompute metrics files from a database).  run and replay print the
final hypervolume, against the reference the run's generation-0 outcomes
fix (see metrics).  Exit codes: 0 success, 1 configuration error, 2
runtime error.  SAGEP_LOG_LEVEL controls log verbosity
(DEBUG/INFO/WARNING/...).
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path

from .metrics import emit_report
from .orchestrator import (ConfigError, EvaluationDatabase, ReplayError,
                           RunError, load_run_config, metrics_from_records,
                           passive_replay, run_training)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2


def _setup_logging() -> None:
    level_name = os.environ.get("SAGEP_LOG_LEVEL", "WARNING").upper()
    level = getattr(logging, level_name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(level=level,
                        format="%(asctime)s %(name)s %(levelname)s %(message)s")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sagep",
        description="Surrogate-assisted symbolic regression training runs")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a training run")
    p_run.add_argument("--config", required=True, help="JSON run config")
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
    p_run.add_argument("--baseline", action="store_true",
                       help="disable the surrogate (evaluate every candidate)")

    p_replay = sub.add_parser("replay",
                              help="passively replay a stored database")
    p_replay.add_argument("--db", required=True, help="JSONL database")
    p_replay.add_argument("--config", required=True, help="JSON run config")

    p_report = sub.add_parser("report",
                              help="recompute metrics files from a database")
    p_report.add_argument("--db", required=True, help="JSONL database")
    p_report.add_argument("--out", required=True, help="output directory")

    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    # The flags replace config fields before the config is checked.
    overrides = {} if args.seed is None else {"seed": args.seed}
    if args.baseline:
        overrides["surrogate_enabled"] = False
    config = load_run_config(args.config, **overrides)
    db, metrics = run_training(config)
    out_dir = Path(config.output_dir)
    db_path = db.write(out_dir / "db.jsonl")
    csv_path, summary_path = emit_report(metrics, out_dir)
    print(f"database: {db_path}")
    print(f"metrics: {csv_path}")
    print(f"summary: {summary_path}")
    print(f"expensive evaluations: {metrics.total_expensive}")
    print(f"final hypervolume: {metrics.final_hypervolume!r}")
    return EXIT_OK


def _cmd_replay(args: argparse.Namespace) -> int:
    config = load_run_config(args.config)
    db = EvaluationDatabase.read(args.db)
    metrics = passive_replay(db, config)
    print(f"generations: {len(metrics.rows)}")
    print(f"revealed expensive records: {metrics.total_expensive} "
          f"of {len(db.records)}")
    print(f"selection ratio: {metrics.final_selection_ratio!r}")
    print(f"relative error: {metrics.final_relative_error!r}")
    print(f"final hypervolume: {metrics.final_hypervolume!r}")
    return EXIT_OK


def _cmd_report(args: argparse.Namespace) -> int:
    db = EvaluationDatabase.read(args.db)
    metrics = metrics_from_records(db.records)
    csv_path, summary_path = emit_report(metrics, Path(args.out))
    print(f"metrics: {csv_path}")
    print(f"summary: {summary_path}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {"run": _cmd_run, "replay": _cmd_replay,
                "report": _cmd_report}
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (RunError, ReplayError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
