#!/usr/bin/env python3
"""Recompute the committed seed-0 references (``perfbench/references.json``).

    python3 perfbench/make_references.py [workload ...]

Paper cases run the exact full-series engine (``adaptive=None``), the large
grid the dense engine and every campaign scenario its standalone analysis
(``standalone_scenario_run``).  Takes a few minutes; only needed when the
workloads' inputs change.
"""

from __future__ import annotations

import json
import sys

from run import WORKLOAD_NAMES, import_program


def main(argv: list[str]) -> int:
    workloads = import_program()
    path = workloads.REFERENCE_FILE
    tables = json.loads(path.read_text()) if path.exists() else {}
    for name in argv or WORKLOAD_NAMES:
        workload = workloads.make_workload(name, workloads.DEFAULT_SEED, quick=False)
        tables[name] = workload.compute_base_references()
        print(name, json.dumps(tables[name], sort_keys=True), flush=True)
    path.write_text(json.dumps(tables, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
