"""Real (measured, not simulated) parallel execution of the hot paths.

The analytical simulators in :mod:`repro.hardware` reproduce the
paper's scaling *curves*; this package makes the repo's own functional
substrate reproduce the paper's scaling *behaviour* on real cores:

* :mod:`~repro.parallel.plan` — :class:`ExecutionPlan`, the single
  config object the CLI/pipeline thread through both hot paths;
* :mod:`~repro.parallel.shard` — scan shard geometry shared with the
  checkpoint/resume accounting, plus the order-invariant merge;
* :mod:`~repro.parallel.executor` — serial/thread/forked-process
  sharded map with per-task wall-clock timings;
* :mod:`~repro.parallel.timeline` — renders those timings as
  observability spans (real worker tracks in ``repro observe``);
* :mod:`~repro.parallel.measure` — wall-clock scaling measurements
  behind ``repro scale --measured`` (Fig. 4 / Fig. 6 counterparts).
"""

from .executor import (
    ExecutionOutcome,
    TaskTiming,
    run_sharded,
)
from .plan import (
    ATTENTION_MODES,
    BACKENDS,
    ExecutionPlan,
    RECOMPUTE_SCOPES,
)
from .shard import merge_sharded, records_remaining, shard_bounds
from .timeline import record_outcome, scan_timeline

__all__ = [
    "ATTENTION_MODES",
    "BACKENDS",
    "ExecutionOutcome",
    "ExecutionPlan",
    "RECOMPUTE_SCOPES",
    "TaskTiming",
    "merge_sharded",
    "record_outcome",
    "records_remaining",
    "run_sharded",
    "scan_timeline",
    "shard_bounds",
]
