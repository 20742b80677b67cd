"""The seeded chaos audit harness the serving and cluster campaigns share.

A campaign is a frozen config (seed, fault mix, optional kind
whitelist, ``fault_counts()``, ``summary_head()``) plus a ``run_once``
that builds and runs one simulation and a tuple of named invariant
checks.  The plan build, the seeded rerun, the per-seed suite and the
result type are written here once.  Kill/resume campaigns
(:mod:`repro.campaign.chaos`) compare two directories across kills,
not seeded reruns of one build, so they keep their own differential.
"""

from __future__ import annotations

import dataclasses
import json
from collections import OrderedDict
from typing import (
    Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple,
)

from .plan import FaultKind, FaultPlan, restrict_kinds

#: A named invariant: ``check(simulator, report)`` yields violations.
Invariant = Callable[[object, object], Iterable[str]]


def validate_fault_mix(
    horizon_scale: float, kinds: Optional[Tuple[str, ...]]
) -> None:
    """Reject a horizon outside (0, 1] or an unknown fault kind."""
    if not 0 < horizon_scale <= 1:
        raise ValueError("horizon_scale must be in (0, 1]")
    if kinds is not None:
        valid = {kind.value for kind in FaultKind}
        unknown = [k for k in kinds if k not in valid]
        if unknown:
            raise ValueError(
                f"unknown fault kinds {unknown}; valid: {sorted(valid)}"
            )


def seeded_plan(
    config,
    last_arrival: float,
    num_gpu_workers: int,
    num_msa_workers: int,
) -> FaultPlan:
    """The campaign's seeded fault plan over the first
    ``horizon_scale`` of the arrival window.  A ``kinds`` whitelist
    filters the full plan, so every seeded draw is preserved and one
    kind can be replayed in isolation."""
    plan = FaultPlan.generate(
        seed=config.seed,
        horizon_seconds=max(last_arrival * config.horizon_scale, 1.0),
        num_gpu_workers=num_gpu_workers,
        num_msa_workers=num_msa_workers,
        **config.fault_counts(),
    )
    if config.kinds is not None:
        plan = restrict_kinds(
            plan, (FaultKind(value) for value in config.kinds)
        )
    return plan


def monotone_time(simulator, report) -> Iterator[str]:
    """The event loop never moved simulated time backwards."""
    if simulator.monotonic_violations:
        yield (
            f"event loop moved time backwards "
            f"{simulator.monotonic_violations} times"
        )


def check_all(
    invariants: Sequence[Invariant], simulator, report
) -> List[str]:
    """Every violation the named ``invariants`` find, in order."""
    return [v for check in invariants for v in check(simulator, report)]


@dataclasses.dataclass
class ChaosResult:
    """What one campaign produced: the plan, the report, the audit."""

    config: object
    plan: FaultPlan
    report: object
    violations: List[str]
    deterministic: Optional[bool]   # None when the rerun was skipped

    @property
    def ok(self) -> bool:
        """Invariants held and the rerun (if run) was byte-identical."""
        return not self.violations and self.deterministic is not False

    def summary(self) -> "OrderedDict[str, object]":
        """Rounded, ordered, JSON-stable campaign summary."""
        summary = self.config.summary_head()
        summary.update(
            fault_events=len(self.plan),
            fault_kinds=self.plan.kind_counts(),
            invariants_ok=self.ok,
            deterministic=self.deterministic,
            violations=list(self.violations),
            report=self.report.summary(),
        )
        return summary

    def to_json(self) -> str:
        """The summary as indented JSON (the golden chaos form)."""
        return json.dumps(self.summary(), indent=2)

    def render(self) -> str:
        """The report's ASCII rendering plus a chaos verdict line."""
        lines = [self.report.render()]
        verdict = "PASS" if self.ok else "FAIL"
        determinism = {
            True: "byte-identical rerun",
            False: "RERUN DIVERGED",
            None: "rerun skipped",
        }[self.deterministic]
        lines.append(
            f"  chaos      : seed {self.config.seed}, "
            f"{len(self.plan)} fault events over "
            f"{len(self.plan.active_kinds)} kinds -> "
            f"invariants {verdict} ({determinism})"
        )
        for violation in self.violations:
            lines.append(f"    VIOLATION: {violation}")
        return "\n".join(lines)


def audit_campaign(
    config,
    run_once: Callable[[object], Tuple[object, object, FaultPlan]],
    invariants: Sequence[Invariant],
    check_determinism: bool = True,
) -> ChaosResult:
    """Run one seeded campaign and audit its invariants.

    ``run_once(config)`` returns ``(simulator, report, plan)``.  With
    ``check_determinism`` the campaign runs a second time and the two
    reports' JSON must match byte for byte.
    """
    simulator, report, plan = run_once(config)
    violations = check_all(invariants, simulator, report)
    deterministic: Optional[bool] = None
    if check_determinism:
        _, rerun, _ = run_once(config)
        deterministic = (
            json.dumps(report.summary(), indent=2)
            == json.dumps(rerun.summary(), indent=2)
        )
        if not deterministic:
            violations.append(
                "seeded rerun produced a different report "
                "(nondeterminism)"
            )
    return ChaosResult(config, plan, report, violations, deterministic)


def audit_suite(
    seeds: Sequence[int], base, campaign, check_determinism: bool = True
) -> Dict[int, ChaosResult]:
    """``campaign(config, check_determinism)`` once per seed."""
    return OrderedDict(
        (seed, campaign(dataclasses.replace(base, seed=seed),
                        check_determinism))
        for seed in seeds
    )
