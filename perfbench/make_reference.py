"""Regenerate ``reference_digests.json``: the output digests of the
warm-up and the first ops of every workload at seed 0, which the
benchmark checks each op of a seed-0 run against.

    python3 perfbench/make_reference.py

Rerun it only when a change is meant to alter simulated outputs.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run
import workloads

SEED = 0
#: Reference ops per workload: more than a seed-0 run completes.
COUNTS = {
    "target-run": 20,
    "ppi-serve": 40,
    "fleet": 66,
}


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    (run.OUT / "tmp").mkdir(parents=True, exist_ok=True)
    doc = {"seed": SEED, "workloads": {}}
    for name in workloads.NAMES:
        work_dir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=run.OUT / "tmp"))
        try:
            workload = workloads.build(name, work_dir)
            digests = {}
            for index in [run.WARMUP, *range(COUNTS[name])]:
                record = run.run_op(workload, SEED, index)
                if record.failure is not None:
                    print(f"{name} op {index}: {record.failure}",
                          file=sys.stderr)
                    return 1
                digests[str(index)] = record.digest
            doc["workloads"][name] = digests
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
        print(f"{name}: {len(digests)} digests")
    run.REFERENCE_PATH.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
