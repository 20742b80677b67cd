"""Recovery machinery: worker health, circuit breaking, checkpoints.

These are the stateful pieces the gateway uses to *survive* a
:class:`~repro.faults.plan.FaultPlan`:

* :class:`WorkerHealth` — per-worker ledger of dispatches, completions,
  aborts, crashes and restarts.  The chaos harness' "worker accounting
  balances" invariant is checked directly against these counters.
* :class:`CircuitBreaker` — per-worker closed → open → half-open state
  machine.  Repeated failures (crashes, OOMs) eject a worker from the
  dispatch pool; after a cooldown one probe batch decides whether it
  rejoins or stays out.
* :class:`CheckpointStore` — last-completed-DB-shard checkpoints for
  in-flight MSA scans, keyed by chain content.  A request whose worker
  dies mid-search resumes from the checkpoint instead of re-streaming
  the whole database — the ParaFold/AF_Cache resume-cheaply property.
* :class:`FaultStats` — the campaign-wide counters that become the
  ``faults`` section of the serving report.
"""

from __future__ import annotations

import dataclasses
import enum
from collections import OrderedDict
from typing import Dict, Optional

from ..msa.database import SCAN_SHARDS


class BreakerState(enum.Enum):
    """The classic three-state circuit-breaker lifecycle."""

    CLOSED = "closed"          # normal dispatch
    OPEN = "open"              # ejected from the pool, cooling down
    HALF_OPEN = "half_open"    # probing: one batch decides


class CircuitBreaker:
    """Consecutive-failure breaker for one worker.

    ``failure_threshold`` consecutive failures trip it OPEN; after
    ``cooldown_seconds`` the gateway moves it HALF_OPEN and routes one
    probe batch to the worker — success closes the breaker, any
    failure re-opens it for another cooldown.  A threshold of 0
    disables the breaker entirely.
    """

    def __init__(
        self, failure_threshold: int = 3, cooldown_seconds: float = 1800.0
    ) -> None:
        if failure_threshold < 0:
            raise ValueError("failure_threshold must be >= 0")
        if cooldown_seconds < 0:
            raise ValueError("cooldown_seconds must be >= 0")
        self.failure_threshold = failure_threshold
        self.cooldown_seconds = cooldown_seconds
        self.state = BreakerState.CLOSED
        self.consecutive_failures = 0
        self.opens = 0
        self.half_opens = 0
        self.closes = 0

    @property
    def enabled(self) -> bool:
        """False when the threshold is 0 (breaker disabled)."""
        return self.failure_threshold > 0

    @property
    def allows_dispatch(self) -> bool:
        """Whether the worker may receive work (OPEN blocks it)."""
        return self.state is not BreakerState.OPEN

    def record_success(self) -> None:
        """Reset the failure streak; a half-open probe success closes
        the breaker."""
        if self.state is BreakerState.HALF_OPEN:
            self.state = BreakerState.CLOSED
            self.closes += 1
        self.consecutive_failures = 0

    def record_failure(self) -> bool:
        """Count one failure; True when the breaker newly opens."""
        if not self.enabled:
            return False
        self.consecutive_failures += 1
        trip = (
            self.state is BreakerState.HALF_OPEN
            or (
                self.state is BreakerState.CLOSED
                and self.consecutive_failures >= self.failure_threshold
            )
        )
        if trip:
            self.state = BreakerState.OPEN
            self.opens += 1
            return True
        return False

    def to_half_open(self) -> None:
        """Cooldown expired: admit one probe dispatch (OPEN only)."""
        if self.state is BreakerState.OPEN:
            self.state = BreakerState.HALF_OPEN
            self.half_opens += 1


@dataclasses.dataclass
class WorkerHealth:
    """Mutable per-worker ledger the gateway maintains during a run."""

    index: int
    up: bool = True
    #: Token of the in-flight job; completion events carry the token
    #: they were scheduled with, so a crash invalidates them by bumping.
    job_token: int = 0
    busy: bool = False
    job_started: float = 0.0
    job_expected_end: float = 0.0
    needs_rewarm: bool = False     # crashed: next batch pays cold start
    pending_stall: float = 0.0     # stall arriving while idle hits the
    #                              # next job started on this worker
    pressure_until: float = 0.0    # GPU OOM-spike window end
    pressure_bytes: float = 0.0
    slow_until: float = 0.0        # slow-node window end
    slow_factor: float = 1.0
    dispatches: int = 0
    completions: int = 0
    aborts: int = 0
    crashes: int = 0
    preemptions: int = 0
    restarts: int = 0
    breaker: CircuitBreaker = dataclasses.field(
        default_factory=CircuitBreaker
    )

    def invalidate_job(self) -> None:
        """Bump the job token so the in-flight job's completion event
        arrives stale and is ignored."""
        self.job_token += 1
        self.busy = False

    def active_pressure(self, now: float) -> float:
        """Injected memory pressure in bytes, 0 outside the window."""
        return self.pressure_bytes if now < self.pressure_until else 0.0

    def active_slowdown(self, now: float) -> float:
        """Slow-node multiplier, 1.0 outside the window."""
        return self.slow_factor if now < self.slow_until else 1.0

    def take_stall(self) -> float:
        """Consume the stall banked while idle (charged to the next
        job this worker starts)."""
        stall, self.pending_stall = self.pending_stall, 0.0
        return stall

    @property
    def balanced(self) -> bool:
        """Dispatch/termination and down/up bookkeeping both balance."""
        return (
            self.dispatches == self.completions + self.aborts
            and self.crashes + self.preemptions == self.restarts
        )


@dataclasses.dataclass(frozen=True)
class MsaCheckpoint:
    """Resume point of an interrupted MSA database scan.

    The scan is modelled as ``SCAN_SHARDS`` equal slices of the
    paper-scale database stream; ``completed_shards`` of them survived
    the interruption.
    """

    completed_shards: int

    def __post_init__(self) -> None:
        if not 0 <= self.completed_shards <= SCAN_SHARDS:
            raise ValueError("completed_shards out of range")

    @property
    def remaining_fraction(self) -> float:
        """Fraction of the scan a resume still has to run."""
        return 1.0 - self.completed_shards / SCAN_SHARDS


def finished_scan_shards(
    resumed: int, elapsed: float, planned: float
) -> int:
    """DB shards an interrupted scan provably finished: the ``resumed``
    ones it started from plus the floor of the share of the rest that
    ``elapsed`` of its ``planned`` seconds covered.  Clamped to
    ``SCAN_SHARDS - 1``: a scan that *looks* complete but whose finish
    event has not fired is not complete."""
    if planned <= 0 or elapsed <= 0:
        return resumed
    progressed = int((SCAN_SHARDS - resumed) * min(1.0, elapsed / planned))
    return min(SCAN_SHARDS - 1, resumed + progressed)


class CheckpointStore:
    """Content-keyed MSA scan checkpoints with save/resume counters."""

    def __init__(self) -> None:
        self._store: Dict[str, MsaCheckpoint] = {}
        self.saved = 0
        self.resumed = 0
        self.invalidated = 0
        self.shards_saved = 0     # DB shards resume runs did NOT rescan

    def save(self, key: str, checkpoint: MsaCheckpoint) -> None:
        """Record (or overwrite) the resume point for a chain content."""
        self._store[key] = checkpoint
        self.saved += 1

    def take(self, key: str) -> Optional[MsaCheckpoint]:
        """Pop the checkpoint for a resuming scan (counts the resume)."""
        checkpoint = self._store.pop(key, None)
        if checkpoint is not None and checkpoint.completed_shards > 0:
            self.resumed += 1
            self.shards_saved += checkpoint.completed_shards
            return checkpoint
        return None

    def invalidate(self, key: str) -> bool:
        """Drop a checkpoint whose source data turned out corrupt."""
        if self._store.pop(key, None) is not None:
            self.invalidated += 1
            return True
        return False

    def __len__(self) -> int:
        return len(self._store)

    def __contains__(self, key: str) -> bool:
        return key in self._store


@dataclasses.dataclass
class FaultStats:
    """Campaign-wide fault and recovery counters (report surface)."""

    events_injected: int = 0
    events_applied: int = 0
    events_noop: int = 0           # e.g. crash of an already-down worker
    gpu_crashes: int = 0
    msa_crashes: int = 0
    preemptions: int = 0
    restarts: int = 0
    rewarm_events: int = 0
    rewarm_seconds: float = 0.0    # init + recompile paid after crashes
    oom_spike_ooms: int = 0
    stalls_applied: int = 0
    stall_seconds: float = 0.0
    corruptions: int = 0
    cache_invalidations: int = 0
    checkpoints_saved: int = 0
    checkpoint_resumes: int = 0
    checkpoint_shards_saved: int = 0
    breaker_opens: int = 0
    breaker_half_opens: int = 0
    breaker_closes: int = 0
    degraded_served: int = 0
    fault_retries: int = 0         # re-admissions caused by faults
    store_corruptions: int = 0     # feature-store entries tampered
    preemption_notices: int = 0    # spot two-minute-warnings received

    def as_dict(self) -> "OrderedDict[str, object]":
        """Ordered dict in declaration order (the ``faults`` section
        of the report summary; floats rounded for golden stability)."""
        return OrderedDict(
            events_injected=self.events_injected,
            events_applied=self.events_applied,
            events_noop=self.events_noop,
            gpu_crashes=self.gpu_crashes,
            msa_crashes=self.msa_crashes,
            preemptions=self.preemptions,
            restarts=self.restarts,
            rewarm_events=self.rewarm_events,
            rewarm_seconds=round(self.rewarm_seconds, 6),
            oom_spike_ooms=self.oom_spike_ooms,
            stalls_applied=self.stalls_applied,
            stall_seconds=round(self.stall_seconds, 6),
            corruptions=self.corruptions,
            cache_invalidations=self.cache_invalidations,
            checkpoints_saved=self.checkpoints_saved,
            checkpoint_resumes=self.checkpoint_resumes,
            checkpoint_shards_saved=self.checkpoint_shards_saved,
            breaker_opens=self.breaker_opens,
            breaker_half_opens=self.breaker_half_opens,
            breaker_closes=self.breaker_closes,
            degraded_served=self.degraded_served,
            fault_retries=self.fault_retries,
            store_corruptions=self.store_corruptions,
            preemption_notices=self.preemption_notices,
        )
