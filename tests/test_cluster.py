"""Cluster scheduler tests: units, dispatch policy, migration payoff.

The fleet-level counterpart of ``test_serving_gateway.py``: targeted
unit tests pin each building block (config validation, priority
queues, autoscaling policies, the migration ledger, checkpoint
arithmetic), integration tests pin the scheduler's dispatch
preferences, and the migration differential proves checkpointed
migration saves real compute.  Golden files pin the full chaos-run
summary and the policy Pareto table.
"""

import dataclasses
import json
import pathlib

import pytest

from repro.cluster import (
    Autoscaler,
    ClusterChaosConfig,
    ClusterConfig,
    ClusterJob,
    ClusterScheduler,
    ClusterView,
    MigrationLedger,
    NodePoolSpec,
    POLICIES,
    PoolView,
    PriorityJobQueue,
    build_job_stream,
    chain_scan_seconds,
    get_policy,
    pareto_rows,
    run_cluster_campaign,
)
from repro.cluster.jobs import ChainStatus
from repro.observability import ClusterProbe
from repro.serving.scenarios import ppi_chain_library, ppi_pair_samples

GOLDEN = pathlib.Path(__file__).parent / "golden"
CLUSTER_GOLDEN = GOLDEN / "cluster_summary.json"
PARETO_GOLDEN = GOLDEN / "cluster_pareto.json"

PARETO_POLICIES = ("fixed", "queue-depth", "cost-aware")


def make_job(job_id, priority=1, arrival=0.0, seed=0):
    samples = ppi_pair_samples(ppi_chain_library(4, seed=seed))
    return ClusterJob(
        job_id=job_id,
        sample=samples[job_id % len(samples)],
        priority=priority,
        arrival_seconds=arrival,
    )


class TestClusterConfig:
    def test_defaults_are_valid(self):
        cfg = ClusterConfig()
        assert cfg.policy == "queue-depth"
        assert cfg.migration is True
        assert len(cfg.pools) == 3

    def test_rejects_empty_pools(self):
        with pytest.raises(ValueError, match="at least one"):
            ClusterConfig(pools=())

    def test_rejects_zero_initial_fleet(self):
        pool = NodePoolSpec(
            name="p", platform="Server", spot=False,
            cost_per_hour=1.0, provision_seconds=0.0,
            min_nodes=0, max_nodes=2, initial_nodes=0,
        )
        with pytest.raises(ValueError, match="initial fleet"):
            ClusterConfig(pools=(pool,))

    def test_rejects_duplicate_pool_names(self):
        pool = NodePoolSpec(
            name="p", platform="Server", spot=False,
            cost_per_hour=1.0, provision_seconds=0.0, initial_nodes=1,
        )
        with pytest.raises(ValueError, match="unique"):
            ClusterConfig(pools=(pool, pool))

    def test_rejects_bad_max_attempts(self):
        with pytest.raises(ValueError, match="max_attempts"):
            ClusterConfig(max_attempts=0)

    @pytest.mark.parametrize("seconds", [0, -1])
    def test_rejects_non_positive_restart_seconds(self, seconds):
        # A negative restart would schedule the node's return before
        # its crash and move the event loop's clock backwards.
        with pytest.raises(ValueError, match="restart_seconds"):
            ClusterConfig(restart_seconds=seconds)

    def test_unknown_policy_rejected_with_catalogue(self):
        with pytest.raises(ValueError, match="fixed"):
            get_policy("yolo")


class TestPriorityJobQueue:
    def test_strict_priority_then_fifo_by_job_id(self):
        q = PriorityJobQueue()
        low = make_job(5, priority=2)
        high = make_job(3, priority=0)
        normal_old = make_job(1, priority=1)
        normal_new = make_job(2, priority=1)
        for job in (low, normal_new, high, normal_old):
            q.push(job)
        assert [q.pop().job_id for _ in range(4)] == [3, 1, 2, 5]
        assert q.pop() is None

    def test_requeued_job_goes_ahead_of_later_arrivals(self):
        q = PriorityJobQueue()
        q.push(make_job(9, priority=1))
        q.push(make_job(4, priority=1), requeue=True)   # migrated back
        assert q.pop().job_id == 4
        assert q.requeues == 1
        assert q.pushes == 2

    def test_duplicate_push_rejected(self):
        q = PriorityJobQueue()
        job = make_job(0)
        q.push(job)
        with pytest.raises(ValueError, match="already queued"):
            q.push(job)

    def test_depths_by_class(self):
        q = PriorityJobQueue()
        q.push(make_job(0, priority=0))
        q.push(make_job(1, priority=2))
        q.push(make_job(2, priority=2))
        assert q.depths() == {0: 1, 2: 2}
        assert len(q) == 3


class TestJobStream:
    def test_seeded_stream_is_reproducible(self):
        a = build_job_stream(12, seed=3)
        b = build_job_stream(12, seed=3)
        assert [j.arrival_seconds for j in a] == [
            j.arrival_seconds for j in b
        ]
        assert [j.priority for j in a] == [j.priority for j in b]
        assert [j.sample.name for j in a] == [j.sample.name for j in b]

    def test_jobs_share_chain_keys_across_the_stream(self):
        jobs = build_job_stream(30, num_chains=6, seed=0)
        keys = [w.key for j in jobs for w in j.chains]
        # Pairs drawn with replacement from 6 chains must collide.
        assert len(set(keys)) < len(keys)
        assert all(len(j.chains) == 2 for j in jobs)

    def test_msa_depth_is_gateway_calibrated(self):
        for job in build_job_stream(8, seed=1):
            expected = min(
                254, 32 + job.sample.assembly.total_residues // 6
            )
            assert job.msa_depth == expected

    def test_scan_seconds_monotone_in_threads(self):
        job = make_job(0)
        chain = job.chains[0].chain
        platform = NodePoolSpec(
            name="p", platform="Server", spot=False,
            cost_per_hour=1.0, provision_seconds=0.0, initial_nodes=1,
        ).get_platform()
        assert chain_scan_seconds(platform, chain, threads=8) < \
            chain_scan_seconds(platform, chain, threads=1)


class TestAutoscalerPolicies:
    def _view(self, queue_depth, total=1, busy=0, idle=1, booting=0,
              now=600.0, spec=None):
        spec = spec or NodePoolSpec(
            name="p", platform="Server", spot=True,
            cost_per_hour=1.0, provision_seconds=0.0,
            min_nodes=0, max_nodes=8, initial_nodes=1,
        )
        pool = PoolView(
            spec=spec, total_nodes=total, busy_nodes=busy,
            idle_nodes=idle, booting_nodes=booting,
        )
        return ClusterView(
            now=now, queue_depth=queue_depth,
            high_priority_depth=0, pools={spec.name: pool},
        )

    def test_registry_ships_the_pareto_policy_families(self):
        for name in ("fixed", "queue-depth", "aggressive",
                     "conservative", "cost-aware"):
            assert name in POLICIES
            assert POLICIES[name].name == name

    def test_fixed_never_scales(self):
        scaler = Autoscaler(get_policy("fixed"))
        assert scaler.decide(self._view(queue_depth=50)) == {"p": 0}
        assert scaler.scale_outs == 0

    def test_queue_depth_scales_out_on_backlog(self):
        scaler = Autoscaler(get_policy("queue-depth"))
        deltas = scaler.decide(
            self._view(queue_depth=9, total=1, busy=1, idle=0)
        )
        # ceil(9 / 3) = 3 wanted, none idle -> +3 (clamped to max 8).
        assert deltas["p"] == 3
        assert scaler.scale_outs == 3

    def test_cooldown_suppresses_the_next_action(self):
        scaler = Autoscaler(get_policy("queue-depth"))
        assert scaler.decide(self._view(queue_depth=9, now=600.0))["p"] > 0
        assert scaler.decide(self._view(queue_depth=30, now=700.0)) == {
            "p": 0
        }

    def test_scale_in_limited_to_idle_nodes(self):
        scaler = Autoscaler(get_policy("queue-depth"))
        deltas = scaler.decide(self._view(
            queue_depth=0, total=5, busy=3, idle=1,
        ))
        # Target is busy + 1 spare = 4, wish is -1, one idle: -1.
        assert deltas["p"] == -1
        deltas = scaler.decide(self._view(
            queue_depth=0, total=5, busy=4, idle=0, now=9999.0,
        ))
        assert deltas["p"] == 0   # nothing idle to reap

    def test_cost_aware_keeps_on_demand_at_floor(self):
        spec = NodePoolSpec(
            name="od", platform="Server", spot=False,
            cost_per_hour=12.0, provision_seconds=0.0,
            min_nodes=1, max_nodes=4, initial_nodes=1,
        )
        scaler = Autoscaler(get_policy("cost-aware"))
        deltas = scaler.decide(self._view(
            queue_depth=20, total=1, busy=0, idle=1, spec=spec,
        ))
        assert deltas["od"] == 0   # backlog goes to spot, not here


class TestMigrationLedger:
    def test_recompute_after_drain_is_charged(self):
        ledger = MigrationLedger()
        job = make_job(1)
        job.chains[0].status = ChainStatus.DURABLE
        ledger.record_drain(job)
        ledger.record_scan_start(job, job.chains[0].key, resumed_shards=0)
        assert ledger.migrated_recomputed_chains == 1
        assert job.migrated_recomputed_chains == 1

    def test_resume_consuming_the_bank_is_clean(self):
        ledger = MigrationLedger()
        job = make_job(1)
        key = job.chains[0].key
        ledger.record_drain(job, checkpointed_key=key,
                            checkpointed_shards=6)
        assert ledger.drain_checkpoints == 1
        ledger.record_scan_start(job, key, resumed_shards=6)
        assert ledger.double_billed_shards == 0

    def test_resume_below_the_bank_is_double_billing(self):
        ledger = MigrationLedger()
        job = make_job(1)
        key = job.chains[0].key
        ledger.record_drain(job, checkpointed_key=key,
                            checkpointed_shards=6)
        ledger.record_scan_start(job, key, resumed_shards=2)
        assert ledger.double_billed_shards == 4

    def test_corruption_strikes_the_bank(self):
        ledger = MigrationLedger()
        job = make_job(1)
        key = job.chains[0].key
        job.chains[0].status = ChainStatus.DURABLE
        ledger.mark_durable(key)
        ledger.record_drain(job, checkpointed_key=key,
                            checkpointed_shards=6)
        ledger.mark_untrusted(key)
        assert ledger.corrupted_keys == 1
        assert not ledger.is_durable(key)
        # Recomputing a corrupted entry is legitimate, not a violation.
        ledger.record_scan_start(job, key, resumed_shards=0)
        assert ledger.migrated_recomputed_chains == 0
        assert ledger.double_billed_shards == 0

    def test_forget_job_settles_its_banking(self):
        ledger = MigrationLedger()
        job = make_job(1)
        key = job.chains[0].key
        ledger.record_drain(job, checkpointed_key=key,
                            checkpointed_shards=6)
        ledger.forget_job(job)
        ledger.record_scan_start(job, key, resumed_shards=0)
        assert ledger.double_billed_shards == 0


class _AssignmentProbe(ClusterProbe):
    """Records (job_id, pool_name) for every dispatch."""

    def __init__(self):
        self.assignments = []

    def job_started(self, job, node, now):
        self.assignments.append((job.job_id, node.pool.name))


class TestDispatchPreference:
    def _run(self, jobs):
        probe = _AssignmentProbe()
        scheduler = ClusterScheduler(ClusterConfig(), probe=probe)
        scheduler.run(jobs)
        return probe.assignments

    def test_high_priority_takes_on_demand_first(self):
        # Arrive after every pool has provisioned (240 s worst case).
        job = make_job(0, priority=0, arrival=300.0)
        assignments = self._run([job])
        assert assignments == [(0, "h100-ondemand")]

    def test_normal_priority_fills_cheapest_nodes_first(self):
        job = make_job(0, priority=1, arrival=300.0)
        assignments = self._run([job])
        assert assignments == [(0, "rtx4080-spot")]

    def test_mixed_arrivals_split_by_class(self):
        jobs = [
            make_job(0, priority=2, arrival=300.0),
            make_job(1, priority=0, arrival=300.0),
        ]
        got = dict(self._run(jobs))
        assert got[1] == "h100-ondemand"
        assert got[0] == "rtx4080-spot"


class TestFaultFreeRun:
    def test_all_jobs_complete_and_accounting_balances(self):
        jobs = build_job_stream(10, seed=5, arrival_rate_per_hour=30.0)
        scheduler = ClusterScheduler(ClusterConfig())
        report = scheduler.run(jobs)
        assert report.completed == 10
        assert report.failed == 0
        assert report.attempts == 10          # no retries needed
        assert report.migrations == 0
        assert report.cost_usd > 0
        assert report.latency.p99 > 0
        for node in scheduler.nodes:
            h = node.health
            assert h.dispatches == h.completions + h.aborts

    def test_summary_round_trips_through_json(self):
        jobs = build_job_stream(6, seed=2, arrival_rate_per_hour=30.0)
        report = ClusterScheduler(ClusterConfig()).run(jobs)
        summary = json.loads(json.dumps(report.summary()))
        assert summary["submitted"] == 6
        assert summary["pools"].keys() == {
            "h100-ondemand", "h100-spot", "rtx4080-spot"
        }
        for pool in summary["pools"].values():
            assert 0.0 <= pool["utilization"] <= 1.0


class TestMigrationDifferential:
    """Checkpointed migration provably reuses the drained node's work."""

    # Seed 7's campaign drains a node that has both a finished-but-
    # unpublished chain (drain publish) and a scan in flight (drain
    # checkpoint) — the full migration protocol in one run.
    CONFIG = ClusterChaosConfig(seed=7)

    def test_migration_on_reuses_checkpoints(self):
        result = run_cluster_campaign(
            self.CONFIG, check_determinism=False
        )
        report = result.report
        assert result.violations == []
        # Drains banked work and resumes consumed it...
        assert report.drain_publishes > 0
        assert report.drain_checkpoints > 0
        assert report.resumed_shards > 0
        # ... and nothing banked was ever re-executed (the pins).
        assert report.migrated_recomputed_chains == 0
        assert report.double_billed_shards == 0

    def test_migration_off_pays_strictly_more_compute(self):
        on = run_cluster_campaign(
            self.CONFIG, check_determinism=False
        ).report
        off = run_cluster_campaign(
            dataclasses.replace(self.CONFIG, migration=False),
            check_determinism=False,
        ).report
        # Same jobs, same faults: without drain publication and
        # checkpointing, every preempted node's work is recomputed.
        assert off.resumed_shards == 0
        assert off.drain_publishes == 0
        assert off.drain_checkpoints == 0
        assert off.scan_seconds_billed > on.scan_seconds_billed


class TestGoldens:
    def test_golden_cluster_summary(self):
        result = run_cluster_campaign(
            ClusterChaosConfig(), check_determinism=False
        )
        got = json.loads(json.dumps(result.summary()))
        golden = json.loads(CLUSTER_GOLDEN.read_text())
        assert got == golden

    def test_golden_pareto_table(self):
        reports = [
            run_cluster_campaign(
                ClusterChaosConfig(policy=policy),
                check_determinism=False,
            ).report
            for policy in PARETO_POLICIES
        ]
        got = json.loads(json.dumps(pareto_rows(reports)))
        golden = json.loads(PARETO_GOLDEN.read_text())
        assert got == golden
