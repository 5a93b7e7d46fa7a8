"""Time sagep's set-up in this fresh process and print it as one JSON line.

Usage: python3 perfbench/setup_probe.py <repo root> <config json>

Phases: `import_s` imports sagep with numpy and scipy, `config_s` loads the
run config, `build_s` builds the config's evaluator.  Each is timed with
hostspeed.SpeedClock, in seconds at a fixed host speed.
"""

import json
import sys

from hostspeed import SpeedClock

if __name__ == "__main__":
    root, config_path = sys.argv[1], sys.argv[2]
    sys.path.insert(0, f"{root}/src")
    with SpeedClock() as imports:
        import numpy  # noqa: F401
        import scipy  # noqa: F401
        from sagep import orchestrator
    with SpeedClock() as load:
        config = orchestrator.load_run_config(config_path)
    with SpeedClock() as build:
        orchestrator.build_evaluator(config.evaluator)
    print(json.dumps({"import_s": imports.scaled_s, "config_s": load.scaled_s,
                      "build_s": build.scaled_s}))
