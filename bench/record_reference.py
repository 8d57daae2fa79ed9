#!/usr/bin/env python3
"""Record every workload's reference outputs at its default seed.

    python3 bench/record_reference.py

Overwrites ``bench/reference.json`` with the sha256 of each output file, the
value and margin of each ``analyze`` check, and the python and numpy versions
of the run.  Record it at a commit whose outputs are the reference: a change
that alters any output file is a behaviour change and says so.
"""

from __future__ import annotations

import json
import shutil
import sys

from run import REFERENCE, WORKLOADS, prepare, run_once


def main() -> int:
    recorded = {"recorded_with": None, "workloads": {}}
    for name, workload in WORKLOADS.items():
        seed = workload.config["seed"]
        work, config_path = prepare(name, seed)
        try:
            run = run_once(workload.command, config_path, work, trace=False)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        if run["problems"]:
            print(f"{name}: {run['problems']}", file=sys.stderr)
            return 1
        recorded["recorded_with"] = run["versions"]
        recorded["workloads"][name] = {"seed": seed, "sha256": run["sha256"], "checks": run["checks"]}
        print(f"{name}: recorded {len(run['sha256'])} files")
    REFERENCE.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
