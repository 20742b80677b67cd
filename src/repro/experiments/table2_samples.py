"""Table II: summary of input samples."""

from __future__ import annotations

from typing import Optional

from ..core.report import render_table
from ..core.runner import BenchmarkRunner
from ._shared import ensure_runner


def render(runner: Optional[BenchmarkRunner] = None) -> str:
    runner = ensure_runner(runner)
    rows = []
    for sample in runner.samples.values():
        row = sample.table_row()
        rows.append(
            (
                row["Sample"], row["Structure"], row["Complexity"],
                row["Seq. Length"], row["Target"],
            )
        )
    return render_table(
        ["Sample", "Structure", "Complexity", "Seq. Length",
         "Primary Benchmark Target"],
        rows,
        title="Table II: Summary of Input Samples Used in AF3 Experiments",
    )


def main() -> None:
    print(render())


if __name__ == "__main__":
    main()
