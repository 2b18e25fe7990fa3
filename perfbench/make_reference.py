"""Regenerate ``reference.json``, the estimates every pass is checked against.

Run from the root of a source checkout:

    python3 perfbench/make_reference.py

Each workload's driver is run once at ``REFERENCE_SCALE`` times the
benchmark's runs per point, on a seed of its own, so a pass's estimates can
be compared with ones of a third the standard error.  Regenerate only from a
commit whose results are trusted: a change that regroups the random stream
moves individual estimates but not their distribution, so it must still pass
against the old reference.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_SEED = 220908665
REFERENCE_SCALE = 10
REFERENCE_WORKERS = 2


def main() -> int:
    sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]
    from workloads import REFERENCE_PATH, WORKLOADS

    payload = {"seed": REFERENCE_SEED, "scale": REFERENCE_SCALE, "workloads": {}}
    for workload in WORKLOADS.values():
        runs = REFERENCE_SCALE * workload.runs
        output = workload.run(workload.arguments(runs), REFERENCE_SEED, REFERENCE_WORKERS)
        payload["workloads"][workload.name] = {
            "runs": runs,
            "rows": [
                {"params": dict(params), "scheme": scheme, "estimate": est, "std_error": se}
                for params, scheme, est, se in workload.rows(output)
            ],
        }
        print(f"{workload.name}: {runs} runs per point", file=sys.stderr)
    with open(REFERENCE_PATH, "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
