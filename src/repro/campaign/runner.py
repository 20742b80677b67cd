"""The campaign orchestrator: waves of ready tasks on the parallel engine.

The runner loops over the task graph: take every *ready* task, group
by stage, execute each stage group through
:func:`repro.parallel.run_sharded` under that stage's
:class:`~repro.parallel.ExecutionPlan`, then persist each finished
output as its own atomic checkpoint.  Two properties fall out of that
structure:

* **Resume recomputes zero finished stages.**  Outputs already on disk
  are adopted as done before the first wave; the ready query never
  returns them, and :class:`~repro.campaign.state.CampaignState`
  counts any overwrite of an adopted output as ``recomputed`` — the
  differential audit pins that at zero.
* **Scheduling cannot change results.**  Stage outputs are pure
  functions of target + config (see :mod:`repro.campaign.stages`), so
  worker count, backend, kill timing and resume boundaries are all
  invisible in the persisted documents and in the final cohort report.

MSA chain features flow through the PR 6 feature store when one is
configured: the runner tells each MSA wave which chain keys are
already stored, shards compute only the gap, and the runner publishes
the new payloads — so a second campaign over an overlapping cohort
computes only what is genuinely new (``chains_reused`` on the run
report), exactly the ``msa-precompute`` read-through discipline.

A :class:`~repro.faults.KillSwitch` (``kill_after=N``) injects a
deterministic mid-campaign death after N durable stage outputs; the
raised :class:`CampaignKilled` carries the partial run report so chaos
harnesses can audit what the "dead" process left behind.
"""

from __future__ import annotations

import dataclasses
import time
from collections import OrderedDict
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..faults.kill import KillSwitch, SimulatedKill
from ..model.memory_planner import AttentionSchedule
from ..parallel import ExecutionPlan, run_sharded
from ..store.feature_store import DEFAULT_BYTE_BUDGET
from .dag import STAGES, StageTask, build_graph
from .manifest import TargetSpec
from .state import CampaignState, CampaignStateError
from .stages import run_stage_shard

__all__ = [
    "CampaignConfig",
    "CampaignKilled",
    "CampaignRunReport",
    "run_campaign",
]

#: Default modeled width of each stage pool (the simulated-timeline
#: knob, persisted with the campaign; the MSA pool is widest because
#: the paper's Fig 3/7 makes MSA the dominant, CPU-parallel phase).
DEFAULT_STAGE_WORKERS: "OrderedDict[str, int]" = OrderedDict(
    preprocess=2, msa=4, inference=2, report=1
)


@dataclasses.dataclass(frozen=True)
class CampaignConfig:
    """Everything that may influence a campaign's *results*.

    Persisted into ``campaign.json`` so a resume cannot silently run
    under different assumptions.  Execution knobs that must *not*
    influence results (real worker count, backend, kill timing) are
    arguments of :func:`run_campaign` instead.
    """

    platform: str = "Server"
    threads: int = 8
    seed: int = 0
    stage_workers: Mapping[str, int] = dataclasses.field(
        default_factory=lambda: OrderedDict(DEFAULT_STAGE_WORKERS)
    )
    max_tokens: int = 0          # 0 = no admission limit
    store_dir: Optional[str] = None
    store_budget_mb: float = DEFAULT_BYTE_BUDGET / (1024 * 1024)
    #: Inference attention schedule for every target (an
    #: :data:`~repro.model.memory_planner.ATTENTION_SCHEDULES` name;
    #: tiled plans a block per target).  Persisted because it changes
    #: which targets are admitted, i.e. the cohort's *results*.
    attention: str = "chunked"
    #: Optional shape-bucket edges for the inference stage (``repro
    #: buckets fit`` output; docs/bucketing.md).  When set, every
    #: target executes at its padded bucket size — exactly what the
    #: bucketed XLA deployment does — so it changes per-target
    #: results and is persisted; ``None`` executes at exact size.
    buckets: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        if self.buckets is not None:
            edges = tuple(int(e) for e in self.buckets)
            if not edges or any(e < 1 for e in edges):
                raise ValueError(
                    f"buckets must be positive edges, got {edges}"
                )
            if sorted(set(edges)) != list(edges):
                raise ValueError(
                    f"buckets must be sorted and unique, got {edges}"
                )
            object.__setattr__(self, "buckets", edges)
        AttentionSchedule(self.attention)   # validates the name
        unknown = set(self.stage_workers) - set(STAGES)
        if unknown:
            raise ValueError(
                f"stage_workers names unknown stages: {sorted(unknown)}"
            )
        if any(int(w) < 1 for w in self.stage_workers.values()):
            raise ValueError("stage_workers values must be >= 1")
        object.__setattr__(self, "stage_workers", OrderedDict(
            (stage, int(self.stage_workers.get(stage, 1)))
            for stage in STAGES
        ))

    def config_doc(self) -> Dict[str, object]:
        """Every field, in declaration order (``campaign.json``)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_doc(cls, doc: Mapping) -> "CampaignConfig":
        """The strict inverse of :meth:`config_doc`."""
        names = [field.name for field in dataclasses.fields(cls)]
        mismatch = sorted(set(names).symmetric_difference(doc))
        if mismatch:
            name = mismatch[0]
            kind = "no" if name in names else "an unknown"
            raise CampaignStateError(
                f"campaign.json config has {kind} {name!r} field"
            )
        try:
            return cls(**{name: doc[name] for name in names})
        except ValueError as exc:
            raise CampaignStateError(
                f"campaign.json config: {exc}"
            ) from exc


class CampaignKilled(RuntimeError):
    """The injected kill struck; ``report`` holds the partial run."""

    def __init__(self, report: "CampaignRunReport") -> None:
        super().__init__(
            f"campaign killed after {report.stages_executed} persisted "
            f"stage outputs — resume with 'repro campaign resume'"
        )
        self.report = report


@dataclasses.dataclass
class CampaignRunReport:
    """What one run (or resume) of a campaign actually did.

    This is the *ephemeral* surface — wall clock, store reuse, wasted
    work — deliberately separate from the cohort report, which must be
    identical however many runs it took to finish the campaign.
    """

    campaign_dir: str
    targets: int
    tasks_total: int
    adopted_done: int
    stages_executed: int
    stages_failed: int
    resumed_recomputed_stages: int
    wasted_shard_results: int
    chains_computed: int
    chains_reused: int
    store_puts: int
    killed: bool
    complete: bool
    waves: int
    backend: str
    wall_seconds: float
    executed_by_stage: "OrderedDict[str, int]" = dataclasses.field(
        default_factory=OrderedDict
    )

    def summary(self) -> "OrderedDict[str, object]":
        return OrderedDict(
            targets=self.targets,
            tasks_total=self.tasks_total,
            adopted_done=self.adopted_done,
            stages_executed=self.stages_executed,
            stages_failed=self.stages_failed,
            resumed_recomputed_stages=self.resumed_recomputed_stages,
            wasted_shard_results=self.wasted_shard_results,
            executed_by_stage=self.executed_by_stage,
            chains_computed=self.chains_computed,
            chains_reused=self.chains_reused,
            store_puts=self.store_puts,
            killed=self.killed,
            complete=self.complete,
            waves=self.waves,
            backend=self.backend,
        )

    def render(self) -> str:
        by_stage = ", ".join(
            f"{stage}={count}"
            for stage, count in self.executed_by_stage.items()
        ) or "nothing"
        lines = [
            f"campaign {self.campaign_dir}: {self.targets} targets, "
            f"{self.tasks_total} tasks",
            f"  executed : {self.stages_executed} stage outputs "
            f"({by_stage}) in {self.waves} waves [{self.backend}]",
            f"  resumed  : {self.adopted_done} adopted from disk, "
            f"{self.resumed_recomputed_stages} recomputed "
            f"(must be 0), {self.wasted_shard_results} shard results "
            f"wasted by the kill",
            f"  chains   : {self.chains_computed} computed, "
            f"{self.chains_reused} reused from the feature store",
            f"  outcome  : "
            + ("KILLED mid-run" if self.killed
               else ("complete" if self.complete else "stalled")),
        ]
        if self.stages_failed:
            lines.insert(
                2,
                f"  failed   : {self.stages_failed} stage(s) — see "
                f"'repro campaign status' / the report's failures "
                f"section",
            )
        return "\n".join(lines)


def _open_store(config: CampaignConfig):
    if not config.store_dir:
        return None
    from ..store import FeatureStore

    return FeatureStore(
        config.store_dir,
        byte_budget=int(config.store_budget_mb * 1024 * 1024),
    )


def _shard_payloads(
    stage: str,
    tasks: Sequence[StageTask],
    targets: Mapping[str, TargetSpec],
    outputs: Mapping[str, dict],
    config: CampaignConfig,
    stored_keys: Tuple[str, ...],
    plan: ExecutionPlan,
) -> List[Tuple[str, CampaignConfig, Tuple[str, ...], List]]:
    """Contiguous task chunks, one payload per shard."""
    jobs = [
        (
            targets[task.target_id],
            {dep: outputs[dep] for dep in task.deps if dep in outputs},
        )
        for task in tasks
    ]
    return [
        (stage, config, stored_keys, jobs[start:end])
        for start, end in plan.chunk_bounds(len(jobs))
    ]


def run_campaign(
    campaign_dir,
    targets: Optional[Sequence[TargetSpec]] = None,
    config: Optional[CampaignConfig] = None,
    plan: Optional[ExecutionPlan] = None,
    kill_after: Optional[int] = None,
) -> CampaignRunReport:
    """Run (or resume) the campaign in ``campaign_dir`` to completion.

    With ``targets``/``config`` the directory is initialized first
    (idempotent when they match what is already there); without them
    both are loaded from ``campaign.json`` — the resume path.  ``plan``
    only controls *real* execution parallelism of the stage waves and
    cannot change any persisted byte; ``kill_after`` arms the
    deterministic kill switch.
    """
    wall_start = time.perf_counter()
    state = CampaignState(campaign_dir)
    if targets is not None:
        config = config or CampaignConfig()
        state.initialize(targets, config.config_doc())
    else:
        targets, config_doc = state.load()
        config = CampaignConfig.from_doc(config_doc)
    plan = plan or ExecutionPlan(workers=1, backend="serial")
    graph = build_graph(targets)
    by_id = {t.target_id: t for t in targets}

    outputs = state.adopt()
    done = {t for t, d in outputs.items() if d.get("status") == "ok"}
    failed = {t for t, d in outputs.items() if d.get("status") == "failed"}
    already_done = set(done)
    adopted = len(outputs)

    store = _open_store(config)
    kill = KillSwitch(kill_after)

    executed_by_stage: "OrderedDict[str, int]" = OrderedDict()
    stages_failed = 0
    chains_computed = 0
    chains_reused = 0
    store_puts = 0
    wasted = 0
    waves = 0
    backend = "serial"
    killed = False

    def publish_and_persist(record: dict) -> None:
        """Store publication + durable checkpoint for one task."""
        nonlocal chains_computed, chains_reused, store_puts
        nonlocal stages_failed
        publish = record.pop("publish", None)
        if record["stage"] == "msa" and record["status"] == "ok":
            chains_computed += len(publish or ())
            chains_reused += (
                record["query_chains"] - len(publish or ())
            )
            if store is not None:
                for key, payload in publish or ():
                    if store.put(key, payload):
                        store_puts += 1
        tid = record["task"]
        state.save_output(record, already_done)
        if record["status"] == "failed":
            stages_failed += 1
            failed.add(tid)
        else:
            done.add(tid)
        outputs[tid] = record
        executed_by_stage[record["stage"]] = (
            executed_by_stage.get(record["stage"], 0) + 1
        )
        kill.record()

    try:
        while True:
            ready = graph.ready(done, failed)
            if not ready:
                break
            waves += 1
            for stage in STAGES:
                stage_tasks = [t for t in ready if t.stage == stage]
                if not stage_tasks:
                    continue
                stage_plan = plan.with_workers(
                    min(plan.workers, max(1, len(stage_tasks)))
                )
                stored_keys: Tuple[str, ...] = ()
                if stage == "msa" and store is not None:
                    wanted = sorted(
                        {
                            c["key"]
                            for t in stage_tasks
                            for c in outputs[
                                f"{t.target_id}.preprocess"
                            ]["chains"]
                        }
                    )
                    gap = set(store.missing(wanted))
                    stored_keys = tuple(
                        k for k in wanted if k not in gap
                    )
                outcome = run_sharded(
                    run_stage_shard,
                    _shard_payloads(
                        stage, stage_tasks, by_id, outputs, config,
                        stored_keys, stage_plan,
                    ),
                    stage_plan,
                    default_backend="thread",
                )
                backend = outcome.backend
                records = [r for shard in outcome.results for r in shard]
                try:
                    for record in records:
                        publish_and_persist(record)
                except SimulatedKill:
                    # Everything computed but not yet persisted is the
                    # work the kill wasted — a resume recomputes it,
                    # legitimately: it was never durable.
                    persisted = {
                        r["task"] for r in records if r["task"] in outputs
                    }
                    wasted += len(records) - len(persisted)
                    raise
    except SimulatedKill:
        killed = True

    if store is not None:
        store.sync()

    remaining = graph.ready(done, failed)
    complete = not killed and not remaining
    report = CampaignRunReport(
        campaign_dir=str(campaign_dir),
        targets=len(targets),
        tasks_total=len(graph),
        adopted_done=adopted,
        stages_executed=sum(executed_by_stage.values()),
        stages_failed=stages_failed,
        resumed_recomputed_stages=state.recomputed,
        wasted_shard_results=wasted,
        chains_computed=chains_computed,
        chains_reused=chains_reused,
        store_puts=store_puts,
        killed=killed,
        complete=complete,
        waves=waves,
        backend=backend,
        wall_seconds=time.perf_counter() - wall_start,
        executed_by_stage=executed_by_stage,
    )
    if killed:
        raise CampaignKilled(report)
    return report
