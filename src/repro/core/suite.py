"""AFSysBench: the user-facing facade of the benchmark suite.

Bundles the runner, profiling views and experiment drivers behind one
object so a downstream user can regenerate any paper artifact in a few
lines::

    from repro import AfSysBench

    bench = AfSysBench.small()        # fast synthetic databases
    print(bench.figure(3))            # stacked MSA+inference bars
    print(bench.table(6))             # layer-wise JAX-profiler times
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from ..msa.engine import MsaEngineConfig
from .runner import BenchmarkRunner


class AfSysBench:
    """Regenerates every table and figure of the characterization."""

    def __init__(self, runner: Optional[BenchmarkRunner] = None) -> None:
        self.runner = runner or BenchmarkRunner()

    @classmethod
    def small(cls, seed: int = 0) -> "AfSysBench":
        """A configuration whose functional searches run in seconds.

        Uses smaller synthetic databases; the paper-scale extrapolation
        keeps simulated times unchanged in shape.
        """
        return cls(
            BenchmarkRunner(
                msa_config=MsaEngineConfig(
                    num_background=48, homologs_per_query=6, seed=seed
                )
            )
        )

    def _experiments(self) -> Dict[str, Callable[[], str]]:
        # Imported lazily: experiments import this module's runner
        # machinery and heavy drivers should not load at import time.
        from .. import experiments

        return {
            "table1": lambda: experiments.table1_platforms.render(self.runner),
            "table2": lambda: experiments.table2_samples.render(self.runner),
            "table3": lambda: experiments.table3_cpu_metrics.render(self.runner),
            "table4": lambda: experiments.table4_function_profile.render(self.runner),
            "table5": lambda: experiments.table5_inference_bottlenecks.render(
                self.runner
            ),
            "table6": lambda: experiments.table6_layer_times.render(self.runner),
            "fig2": lambda: experiments.fig2_rna_memory.render(self.runner),
            "fig3": lambda: experiments.fig3_total_time.render(self.runner),
            "fig4": lambda: experiments.fig4_msa_threads.render(self.runner),
            "fig5": lambda: experiments.fig5_6qnr_scaling.render(self.runner),
            "fig6": lambda: experiments.fig6_inference_threads.render(self.runner),
            "fig7": lambda: experiments.fig7_phase_ratio.render(self.runner),
            "fig8": lambda: experiments.fig8_gpu_breakdown.render(self.runner),
            "fig9": lambda: experiments.fig9_layer_breakdown.render(self.runner),
            "section6": lambda: experiments.section6_optimizations.render(
                self.runner
            ),
            "whatif": lambda: experiments.whatif_architectures.render(
                self.runner
            ),
            "scaling": lambda: experiments.scaling_study.render(self.runner),
            "roofline": lambda: experiments.roofline.render(self.runner),
        }

    def table(self, number: int) -> str:
        """Render paper Table ``number`` (1-6)."""
        return self._dispatch(f"table{number}")

    def figure(self, number: int) -> str:
        """Render paper Figure ``number`` (2-9)."""
        return self._dispatch(f"fig{number}")

    def _dispatch(self, key: str) -> str:
        experiments = self._experiments()
        if key not in experiments:
            raise KeyError(
                f"no experiment {key!r}; available: {', '.join(experiments)}"
            )
        return experiments[key]()

    def all_artifacts(self) -> Dict[str, str]:
        """Render every table and figure (the full reproduction)."""
        return {key: fn() for key, fn in self._experiments().items()}
