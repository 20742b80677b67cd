#!/usr/bin/env python
"""Benchmark-regression gate over the ``BENCH_*.json`` artifacts.

Usage (CI runs exactly this)::

    python -m pytest benchmarks/test_bench_regression.py \
                     benchmarks/test_bench_scan.py \
                     benchmarks/test_bench_kernels_batched.py -q
    python benchmarks/check_regression.py

Covered artifacts: ``BENCH_kernels`` (scalar DP kernels + pairwise aligner
microbenchmarks), ``BENCH_scan`` (sharded scan vs workers), and
``BENCH_kernels_batched`` (batched-vs-scalar kernel cascade; its
test file additionally asserts the >= 3x batched speedup outright).

Compares the freshly measured medians in ``benchmarks/out/`` against
the committed baselines in ``benchmarks/baselines/``.  Raw seconds are
meaningless across machines, so each artifact carries a *canary* (a
fixed numpy workload timed in the same session) and the gate compares
canary-normalised ratios: ``median / canary`` now vs at baseline time.
An entry's own canary, timed right around it, is preferred; entries
recorded before per-entry canaries existed fall back to the file's.
A kernel is flagged only if its normalised cost grew by more than the
tolerance (default 25%; override with ``REPRO_BENCH_TOLERANCE=0.4``).

Regenerate baselines after an intentional perf change with::

    REPRO_BENCH_UPDATE=1 python benchmarks/check_regression.py
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
DEFAULT_TOLERANCE = 0.25


def load(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def check_group(current: dict, baseline: dict, tolerance: float,
                name: str) -> list:
    """Return a list of human-readable regression descriptions."""
    failures = []
    cur_canary = current["canary_seconds"]
    base_canary = baseline["canary_seconds"]
    if cur_canary <= 0 or base_canary <= 0:
        return [f"{name}: non-positive canary time"]
    for entry, base in sorted(baseline["entries"].items()):
        cur = current["entries"].get(entry)
        if cur is None:
            failures.append(f"{name}/{entry}: missing from current run")
            continue
        base_ratio = base["median_seconds"] / base.get(
            "canary_seconds", base_canary)
        cur_ratio = cur["median_seconds"] / cur.get(
            "canary_seconds", cur_canary)
        change = cur_ratio / base_ratio - 1.0
        status = "FAIL" if change > tolerance else "ok"
        print(f"  {status:4s} {name}/{entry}: {change:+.1%} "
              f"(normalised {base_ratio:.3f} -> {cur_ratio:.3f})")
        if change > tolerance:
            failures.append(
                f"{name}/{entry}: {change:+.1%} slower than baseline "
                f"(tolerance {tolerance:.0%})"
            )
    for entry in sorted(set(current["entries"]) - set(baseline["entries"])):
        print(f"  new  {name}/{entry} (no baseline yet)")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--current", default=str(HERE / "out"),
                        help="directory with freshly measured BENCH_*.json")
    parser.add_argument("--baseline", default=str(HERE / "baselines"),
                        help="directory with committed baselines")
    parser.add_argument("--tolerance", type=float, default=float(
        os.environ.get("REPRO_BENCH_TOLERANCE", DEFAULT_TOLERANCE)
    ))
    args = parser.parse_args(argv)

    current_dir = Path(args.current)
    baseline_dir = Path(args.baseline)
    artifacts = sorted(current_dir.glob("BENCH_*.json"))
    if not artifacts:
        print(f"no BENCH_*.json under {current_dir}; run the "
              "benchmarks first", file=sys.stderr)
        return 2

    if os.environ.get("REPRO_BENCH_UPDATE"):
        baseline_dir.mkdir(parents=True, exist_ok=True)
        for artifact in artifacts:
            shutil.copy(artifact, baseline_dir / artifact.name)
            print(f"baseline updated: {baseline_dir / artifact.name}")
        return 0

    failures = []
    for artifact in artifacts:
        baseline_path = baseline_dir / artifact.name
        print(f"{artifact.name}:")
        if not baseline_path.exists():
            print("  new  (no committed baseline; "
                  "run with REPRO_BENCH_UPDATE=1 to create one)")
            continue
        failures.extend(check_group(
            load(artifact), load(baseline_path), args.tolerance,
            artifact.stem,
        ))

    if failures:
        print("\nbenchmark regressions detected:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("\nno benchmark regressions "
          f"(tolerance {args.tolerance:.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
