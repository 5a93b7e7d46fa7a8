"""SHA-256 digests of every output of the shipped run configs.

For each config, training runs at one seed in surrogate and in baseline
mode, and the digests of db.jsonl, metrics.csv and summary.txt are printed,
then the run's `decisions` digest: that of every record's generation, id
and provenance, with the objectives of each true outcome (expensive and
cache records).  It leaves out the GP's means, so it matches between two
checkouts whenever both runs evaluate the same phenotypes and get the same
outcomes, even if the surrogate's predictions differ in the last bits.
The baseline database is then replayed with the surrogate on and off, and
the digests of each replay's report (metrics.csv and summary.txt) follow.
Each line reads `<config> <mode> <file> <sha256>`; given several seeds,
each line starts with `seed=N`.  A byte-identity claim between two
checkouts is then one diff:

    PYTHONPATH=src python3 scripts/output_digests.py --seed 0 1 2 > after.txt

Usage:
    python3 scripts/output_digests.py [config.json ...] [--seed 0 ...]
"""

import argparse
import dataclasses
import hashlib
import tempfile
from pathlib import Path

from sagep.metrics import emit_report
from sagep.orchestrator import load_run_config, passive_replay, run_training

SHIPPED = [Path(__file__).resolve().parents[1] / "configs" / name
           for name in ("channel_run.json", "symbolic_quadratic.json")]


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def decisions_digest(records) -> str:
    """sha256 of the run's decisions and true outcomes, not its predictions."""
    lines = [f"{r.generation} {r.id} {r.provenance}"
             + ("" if r.provenance == "surrogate"
                else " " + " ".join(map(repr, r.objectives)))
             for r in records]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def config_digests(config, out: Path) -> list[tuple[str, str, str]]:
    """(mode, file, digest) for the runs and replays of one config."""
    rows = []
    for mode, surrogate in (("surrogate", True), ("baseline", False)):
        db, metrics = run_training(dataclasses.replace(
            config, surrogate_enabled=surrogate))
        paths = [db.write(out / mode / "db.jsonl"),
                 *emit_report(metrics, out / mode)]
        rows += [(mode, path.name, sha256(path)) for path in paths]
        rows.append((mode, "decisions", decisions_digest(db.records)))
    for mode, surrogate in (("replay-surrogate", True),
                            ("replay-baseline", False)):
        metrics = passive_replay(db, dataclasses.replace(
            config, surrogate_enabled=surrogate))
        rows += [(mode, path.name, sha256(path))
                 for path in emit_report(metrics, out / mode)]
    return rows


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("configs", nargs="*", type=Path, default=SHIPPED,
                        help="run configs (default: the shipped ones)")
    parser.add_argument("--seed", type=int, nargs="+", default=[0])
    args = parser.parse_args(argv)

    for seed in args.seed:
        prefix = f"seed={seed} " if len(args.seed) > 1 else ""
        for path in args.configs:
            config = dataclasses.replace(load_run_config(path), seed=seed)
            with tempfile.TemporaryDirectory() as tmp:
                for mode, name, digest in config_digests(config, Path(tmp)):
                    print(f"{prefix}{path.stem} {mode} {name} {digest}")


if __name__ == "__main__":
    main()
