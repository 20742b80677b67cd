"""Cluster chaos audit: the acceptance gate for the fleet scheduler.

Twenty seeded campaigns throw spot preemption (with and without
notice), hard crashes, slow nodes, and feature-store corruption at the
scheduler *simultaneously*, and every run must keep the fault-tolerance
invariants: no job lost, balanced per-node accounting, monotone
simulated time, zero double execution of migrated work, and
byte-identical reruns per seed.
"""

import dataclasses

from repro.cluster import (
    ClusterChaosConfig,
    check_cluster_invariants,
    run_cluster_campaign,
    run_cluster_suite,
)
from repro.cluster.chaos import run_once
from repro.faults import FaultKind

AUDIT_SEEDS = tuple(range(20))

#: Every campaign must schedule all three headline fault kinds at once
#: — the acceptance criterion is survival under the *combination*.
REQUIRED_KINDS = {
    FaultKind.PREEMPTION_NOTICE.value,
    FaultKind.WORKER_CRASH.value,
    FaultKind.STORE_CORRUPTION.value,
}


class TestInvariantSuite:
    def test_twenty_seeds_hold_every_invariant(self):
        results = run_cluster_suite(
            AUDIT_SEEDS, check_determinism=False
        )
        assert len(results) == len(AUDIT_SEEDS)
        for seed, result in results.items():
            assert result.violations == [], (seed, result.violations)
            scheduled = {
                kind.value for kind in result.plan.active_kinds
            }
            assert REQUIRED_KINDS <= scheduled, (seed, scheduled)
            report = result.report
            assert report.completed + report.failed == report.submitted
            assert report.migrated_recomputed_chains == 0, seed
            assert report.double_billed_shards == 0, seed

    def test_the_suite_actually_exercises_migration(self):
        """The pins are meaningless if no campaign ever drains a busy
        node — across the sweep, drains must bank and resumes must
        consume real work."""
        results = run_cluster_suite(
            AUDIT_SEEDS, check_determinism=False
        )
        reports = [r.report for r in results.values()]
        assert sum(r.migrations for r in reports) > 0
        assert sum(r.drain_publishes for r in reports) > 0
        assert sum(r.drain_checkpoints for r in reports) > 0
        assert sum(r.resumed_shards for r in reports) > 0
        assert sum(r.crash_requeues for r in reports) > 0
        assert sum(r.corrupted_keys for r in reports) > 0


class TestDeterminism:
    def test_same_seed_same_bytes(self):
        a = run_cluster_campaign(
            ClusterChaosConfig(seed=3), check_determinism=False
        )
        b = run_cluster_campaign(
            ClusterChaosConfig(seed=3), check_determinism=False
        )
        assert a.to_json() == b.to_json()
        assert a.deterministic is None   # rerun was skipped

    def test_builtin_rerun_check_across_seeds(self):
        for seed in (0, 1, 7):
            result = run_cluster_campaign(
                ClusterChaosConfig(seed=seed), check_determinism=True
            )
            assert result.deterministic is True
            assert result.ok

    def test_different_seeds_differ(self):
        a = run_cluster_campaign(
            ClusterChaosConfig(seed=0), check_determinism=False
        )
        b = run_cluster_campaign(
            ClusterChaosConfig(seed=1), check_determinism=False
        )
        assert a.to_json() != b.to_json()


class TestKindsFilter:
    def test_restricting_to_notices_only(self):
        config = ClusterChaosConfig(
            seed=0, kinds=("preemption_notice",)
        )
        result = run_cluster_campaign(config, check_determinism=False)
        assert result.violations == []
        assert [k.value for k in result.plan.active_kinds] == [
            "preemption_notice"
        ]
        assert result.report.faults["gpu_crashes"] == 0
        assert result.report.faults["msa_crashes"] == 0

    def test_unknown_kind_rejected(self):
        try:
            ClusterChaosConfig(kinds=("nope",))
        except ValueError as err:
            assert "nope" in str(err)
        else:
            raise AssertionError("bad kind accepted")


class TestCheckerIsNotVacuous:
    """Corrupt a finished run's state; the auditor must object."""

    def _finished(self):
        return run_once(ClusterChaosConfig(seed=0))

    def test_flags_job_loss(self):
        scheduler, report, _ = self._finished()
        report = dataclasses.replace(report, completed=report.completed - 1)
        violations = check_cluster_invariants(scheduler, report)
        assert any("conservation" in v for v in violations)

    def test_flags_time_travel(self):
        scheduler, report, _ = self._finished()
        scheduler.monotonic_violations = 2
        violations = check_cluster_invariants(scheduler, report)
        assert any("backwards" in v for v in violations)

    def test_flags_unbalanced_node(self):
        scheduler, report, _ = self._finished()
        scheduler.nodes[0].health.dispatches += 1
        violations = check_cluster_invariants(scheduler, report)
        assert any("unbalanced" in v for v in violations)

    def test_flags_double_execution(self):
        scheduler, report, _ = self._finished()
        report = dataclasses.replace(report, double_billed_shards=3)
        violations = check_cluster_invariants(scheduler, report)
        assert any("billed twice" in v for v in violations)
