"""Serving chaos campaigns: seeded fault schedules + invariant checking.

A campaign builds a seeded request stream and a seeded
:class:`~repro.faults.plan.FaultPlan`, runs them through the serving
gateway, and then audits the wreckage against the invariants a serving
system must keep under failure:

* **no request lost** — every admitted request reaches a terminal
  state (full-quality done, degraded done, shed, timed out, or
  OOM-failed) and every non-completion carries a recorded reason;
* **monotonic time** — the event loop never moves simulated time
  backwards, and no request completes before it arrives or after the
  simulation ends;
* **balanced worker accounting** — per worker, dispatches equal
  completions plus aborts, and crashes plus preemptions equal
  restarts (nothing leaks, nothing double-counts);
* **determinism** — the same seed yields a byte-identical report,
  faults and all.

The campaign sits next to the gateway it audits, as
:mod:`repro.cluster.chaos` sits next to its scheduler, and carries the
gateway's own :class:`~repro.serving.gateway.GatewayConfig`: the
recovery policy under test is :data:`CHAOS_GATEWAY`, written once.
Campaigns are exactly as reproducible as fault-free runs: the golden
chaos test pins one seeded campaign's entire summary.  The harness
itself is shared with the fleet audit (:mod:`repro.faults.audit`).
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict
from typing import Dict, Iterator, List, Optional, Tuple

from ..faults.audit import (
    ChaosResult,
    audit_campaign,
    audit_suite,
    check_all,
    monotone_time,
    seeded_plan,
    validate_fault_mix,
)
from ..hardware.platform import get_platform
from ..sequences.builtin import builtin_samples
from .gateway import GatewayConfig, ServingGateway
from .queueing import PoissonArrivals, RequestState, build_request_stream

#: The gateway a serving campaign runs: a small pool behind a tight
#: queue, plus the recovery policy under test (restarts, the circuit
#: breaker and the degraded fallback).  Fields left out keep the
#: GatewayConfig defaults.
CHAOS_GATEWAY = GatewayConfig(
    num_gpu_workers=3,
    num_msa_workers=3,
    queue_limit=64,
    timeout_seconds=14400.0,
    retry_backoff_seconds=60.0,
    restart_seconds=300.0,
    breaker_failure_threshold=2,
    breaker_cooldown_seconds=1800.0,
    degraded_fallback=True,
    degraded_msa_depth=16,
)


@dataclasses.dataclass(frozen=True)
class ChaosConfig:
    """One seeded chaos campaign, fully determined by its fields."""

    seed: int = 0
    platform: str = "Server"
    num_requests: int = 120
    arrival_rps: float = 0.02
    gateway: GatewayConfig = CHAOS_GATEWAY
    # -- fault mix (counts over the campaign horizon) ------------------
    crashes: int = 3
    preemptions: int = 2
    oom_spikes: int = 2
    db_stalls: int = 3
    db_corruptions: int = 2
    slow_nodes: int = 2
    store_corruptions: int = 0   # needs a feature store to bite
    preemption_notices: int = 0  # spot reclaim warnings (lead + outage)
    #: Optional fault-kind whitelist (FaultKind values, e.g.
    #: ``("worker_crash",)``): the plan is generated with the full mix
    #: (preserving every seeded draw) and then filtered, so one kind
    #: can be replayed in isolation to debug a mixed-kind failure.
    kinds: Optional[Tuple[str, ...]] = None

    def __post_init__(self) -> None:
        if self.num_requests < 1:
            raise ValueError("num_requests must be >= 1")
        validate_fault_mix(self.kinds)

    def fault_counts(self) -> "OrderedDict[str, int]":
        """The per-kind event counts the plan generator is fed."""
        return OrderedDict(
            crashes=self.crashes,
            preemptions=self.preemptions,
            oom_spikes=self.oom_spikes,
            db_stalls=self.db_stalls,
            db_corruptions=self.db_corruptions,
            slow_nodes=self.slow_nodes,
            store_corruptions=self.store_corruptions,
            preemption_notices=self.preemption_notices,
        )

    def summary_head(self) -> "OrderedDict[str, object]":
        """The leading fields of this campaign's chaos summary."""
        return OrderedDict(
            seed=self.seed,
            platform=self.platform,
            requests=self.num_requests,
        )


def campaign_stream(config: ChaosConfig):
    """The seeded request stream a campaign config describes: the
    builtin samples at ``arrival_rps`` Poisson arrivals."""
    return build_request_stream(
        list(builtin_samples().values()),
        n=config.num_requests,
        arrivals=PoissonArrivals(config.arrival_rps, seed=config.seed),
        seed=config.seed,
    )


def build_campaign(config: ChaosConfig, probe=None):
    """The ``(gateway, stream, plan)`` triple a campaign config describes.

    ``probe`` is an optional :class:`~repro.observability.GatewayProbe`
    forwarded to the gateway, so chaos runs can record span timelines
    without changing what the campaign simulates.  The gateway runs
    without a feature store, so ``store_corruptions`` events are
    audited noops.
    """
    stream = campaign_stream(config)
    plan = seeded_plan(
        config, stream[-1].arrival_seconds,
        config.gateway.num_gpu_workers, config.gateway.num_msa_workers,
    )
    gateway = ServingGateway(
        get_platform(config.platform), config.gateway,
        fault_plan=plan, probe=probe,
    )
    return gateway, stream, plan


def requests_accounted(gateway, report) -> Iterator[str]:
    """No request lost: every request ends terminal, every
    non-completion and every degraded answer carries a reason, and the
    terminal counts add up to the submitted count."""
    for request in report.requests:
        if not request.state.terminal:
            yield (
                f"request {request.request_id} ended non-terminal "
                f"in state {request.state.value}"
            )
        elif (
            request.state is not RequestState.DONE
            and not request.failure_reason
        ):
            yield (
                f"request {request.request_id} ended {request.state.value} "
                f"with no recorded reason"
            )
        elif request.degraded and not request.failure_reason:
            yield (
                f"request {request.request_id} is degraded with no "
                f"recorded reason (silent quality loss)"
            )
    accounted = (
        report.completed + report.degraded + report.shed
        + report.timed_out + report.failed_oom
    )
    if accounted != report.submitted:
        yield (
            f"request conservation: {report.submitted} submitted but "
            f"{accounted} accounted for"
        )


def completions_in_window(gateway, report) -> Iterator[str]:
    """No request completes before it arrives or after the run ends."""
    for request in report.requests:
        done = request.completion_seconds
        if done is None:
            continue
        if done < request.arrival_seconds:
            yield f"request {request.request_id} completed before it arrived"
        if done > report.duration_seconds + 1e-9:
            yield (
                f"request {request.request_id} completed after the "
                f"simulation ended"
            )


def workers_balanced(gateway, report) -> Iterator[str]:
    """Per worker: idle at the end, dispatches == completions + aborts
    and crashes + preemptions == restarts."""
    for domain, pool in (
        ("gpu", gateway.gpu_health), ("msa", gateway.msa_health)
    ):
        for health in pool:
            if health.busy:
                yield f"{domain} worker {health.index} still busy at end"
            if not health.balanced:
                yield (
                    f"{domain} worker {health.index} accounting is "
                    f"unbalanced: {health.dispatches} dispatched vs "
                    f"{health.completions} completed + "
                    f"{health.aborts} aborted; {health.crashes} crashes + "
                    f"{health.preemptions} preemptions vs "
                    f"{health.restarts} restarts"
                )


def degradation_explicit(gateway, report) -> Iterator[str]:
    """Every degraded answer is flagged and counted as served."""
    fault_summary = report.fault_summary or {}
    degraded_requests = sum(1 for r in report.requests if r.degraded)
    if degraded_requests != report.degraded:
        yield (
            f"degraded accounting: {degraded_requests} flagged requests "
            f"vs {report.degraded} reported"
        )
    if fault_summary.get("degraded_served", 0) < report.degraded:
        yield "degraded responses served without being counted as such"


#: The serving audit, in report order.
SERVING_INVARIANTS = (
    requests_accounted,
    monotone_time,
    completions_in_window,
    workers_balanced,
    degradation_explicit,
)


def check_invariants(gateway, report) -> List[str]:
    """Audit one finished gateway run; returns violation descriptions."""
    return check_all(SERVING_INVARIANTS, gateway, report)


def _run_once(config: ChaosConfig):
    """One campaign run: ``(gateway, report, plan)``."""
    gateway, stream, plan = build_campaign(config)
    return gateway, gateway.run(stream), plan


def run_campaign(
    config: Optional[ChaosConfig] = None,
    check_determinism: bool = True,
) -> ChaosResult:
    """Run one seeded chaos campaign and audit its invariants.

    With ``check_determinism`` the whole campaign runs twice and the
    serialized summaries must match byte for byte — the same guarantee
    the fault-free golden tests pin, extended to fault runs.
    """
    return audit_campaign(
        config or ChaosConfig(), _run_once, SERVING_INVARIANTS,
        check_determinism,
    )


def run_suite(
    seeds: Tuple[int, ...] = (0, 1, 2),
    base: Optional[ChaosConfig] = None,
    check_determinism: bool = True,
) -> Dict[int, ChaosResult]:
    """One campaign per seed (the CI chaos job's entry point)."""
    return audit_suite(
        seeds, base or ChaosConfig(), run_campaign, check_determinism
    )
