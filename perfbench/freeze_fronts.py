"""Regenerate perfbench/data/baseline_fronts.json.

Usage (from the repository root): python3 perfbench/freeze_fronts.py

For each shipped config and each seed in workloads.SEEDS, runs training with
the surrogate off and stores the non-dominated objective vectors of its
converged expensive records.  The hypervolume reference point of a config is
the componentwise maximum over all of its stored fronts, widened by
REF_MARGIN; hv_ref divides a run's hypervolume by that of its seed's stored
front.  The file is frozen: regenerating it on a commit that changes what a
baseline run finds moves hv_ref for every later comparison.
"""

import dataclasses
import json
import os
import sys
from pathlib import Path

if __name__ == "__main__":
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    BENCH = Path(__file__).resolve().parent
    sys.path.insert(0, str(BENCH.parent / "src"))

    from sagep import orchestrator
    from workloads import FRONTS_FILE, SEEDS, WORKLOADS, expensive_front

    REF_MARGIN = 1.1
    configs = {}
    for config_name in sorted({w.config for w in WORKLOADS.values()}):
        config = dataclasses.replace(
            orchestrator.load_run_config(BENCH.parent / config_name),
            surrogate_enabled=False)
        fronts = {}
        for seed in SEEDS:
            db, _ = orchestrator.run_training(
                dataclasses.replace(config, seed=seed))
            fronts[str(seed)] = expensive_front(db.records)
            print(config_name, seed, len(fronts[str(seed)]), file=sys.stderr)
        points = [p for front in fronts.values() for p in front]
        ref = [REF_MARGIN * max(p[k] for p in points) for k in range(2)]
        configs[config_name] = {"ref": ref, "fronts": fronts}
    FRONTS_FILE.parent.mkdir(exist_ok=True)
    FRONTS_FILE.write_text(json.dumps({"seeds": list(SEEDS),
                                       "configs": configs}, indent=1) + "\n")
