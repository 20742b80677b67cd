"""Pure stage functions: deterministic task outputs, shard-executable.

Every stage output is a pure function of ``(target, campaign config)``
— never of scheduling, worker count, kill timing, or what the feature
store happened to hold.  That purity is what makes the kill/resume
differential meaningful: an interrupted-and-resumed campaign's final
report must be *byte-identical* to an uninterrupted one, so nothing
order-dependent may leak into a persisted stage output.  (Run-level
ephemera — store hits, wall clock, wasted shard results — live on the
:class:`~repro.campaign.runner.CampaignRunReport` instead.)

:func:`run_stage_shard` is the module-level picklable entry point
:func:`repro.parallel.run_sharded` maps over shard payloads; a task
that raises :class:`StageError` becomes a ``status: "failed"`` record
with the actionable message, not a traceback.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, Collection, Dict, List, Tuple

from ..core.estimator import estimate_msa_peak_bytes
from ..hardware.gpu import GpuOutOfMemoryError
from ..hardware.memory import MemoryOutcome
from ..hardware.platform import get_platform
from ..model.memory_planner import (
    AttentionSchedule, MemoryBudgetError, resolve_schedule,
)
from ..msa.cost import msa_cost
from ..serving.cache import chain_feature_key, chain_store_payload
from .dag import task_id
from .manifest import TargetSpec

if TYPE_CHECKING:
    from .runner import CampaignConfig

__all__ = ["StageError", "run_stage_shard", "stage_output"]

#: Fixed host-side cost constants of the cheap stages (simulated
#: seconds; preprocess models input parsing + featurization, report
#: models output serialisation/upload).
PREPROCESS_BASE_SECONDS = 0.3
PREPROCESS_PER_TOKEN_SECONDS = 2.0e-4
REPORT_SECONDS = 0.15


class StageError(RuntimeError):
    """A stage failure with an operator-actionable message."""


def _round(value: float) -> float:
    return round(float(value), 6)


def _preprocess(
    target: TargetSpec, config: "CampaignConfig"
) -> "OrderedDict":
    sample = target.to_sample()
    assembly = sample.assembly
    tokens = assembly.num_tokens
    if config.max_tokens and tokens > config.max_tokens:
        raise StageError(
            f"target {target.target_id!r} has {tokens} tokens, over the "
            f"campaign's max_tokens admission limit of "
            f"{config.max_tokens} — "
            f"raise --max-tokens or split the assembly"
        )
    platform = get_platform(config.platform)
    # The paper's Section VI pre-check: predict the MSA-phase peak from
    # chain lengths alone — the same model ``repro estimate`` and
    # ``repro run`` admit by — and refuse admission to OOM-doomed
    # targets instead of letting them die mid-campaign.
    outcome = platform.memory.check(
        estimate_msa_peak_bytes(assembly, config.threads)
    )
    if outcome is MemoryOutcome.OOM:
        raise StageError(
            f"target {target.target_id!r} is predicted to exceed "
            f"{platform.name}'s memory during the MSA phase — run it "
            f"on a larger platform or drop it from the cohort"
        )
    chains = []
    for chain in assembly:
        chains.append(
            OrderedDict(
                chain_id=chain.chain_id,
                molecule_type=chain.molecule_type.value,
                residues=chain.length,
                copies=chain.copies,
                key=chain_feature_key(chain),
            )
        )
    return OrderedDict(
        tokens=tokens,
        chain_count=assembly.chain_count,
        complexity=sample.complexity.value,
        has_rna=sample.has_rna,
        memory_outcome=outcome.value,
        chains=chains,
        simulated_seconds=_round(
            PREPROCESS_BASE_SECONDS + PREPROCESS_PER_TOKEN_SECONDS * tokens
        ),
    )


def _msa(
    target: TargetSpec, config: "CampaignConfig",
    stored_keys: Collection[str],
) -> "OrderedDict":
    sample = target.to_sample()
    platform = get_platform(config.platform)
    cost = msa_cost(sample, platform, config.threads)
    stored = set(stored_keys)
    publish: List[Tuple[str, dict]] = []
    keys = []
    for chain in sample.msa_queries():
        key = chain_feature_key(chain)
        keys.append(key)
        if key not in stored:
            publish.append((key, chain_store_payload(chain)))
            stored.add(key)
    return OrderedDict(
        msa_seconds=_round(cost.seconds),
        msa_depth=cost.depth,
        query_chains=len(keys),
        chain_keys=sorted(set(keys)),
        simulated_seconds=_round(cost.seconds),
        # Stripped by the runner before the output is persisted: the
        # payloads the store does not hold yet (run-dependent).
        publish=publish,
    )


def _inference(
    target: TargetSpec, config: "CampaignConfig", upstream: Dict
) -> "OrderedDict":
    """Inference under the campaign's attention schedule: a resident
    OOM or an infeasible tiled plan on this platform is an admission
    failure with an actionable message, never a silent fallback."""
    preprocess = upstream[task_id(target.target_id, "preprocess")]
    msa = upstream[task_id(target.target_id, "msa")]
    platform = get_platform(config.platform)
    tokens = int(preprocess["tokens"])
    bucket = None
    if config.buckets is not None:
        # Bucketed deployments execute at the padded shape: the GPU
        # computes (and admission is judged) on bucket-sized tensors.
        from ..core.server import bucket_for

        try:
            bucket = bucket_for(tokens, config.buckets)
        except ValueError as exc:
            raise StageError(
                f"target {target.target_id!r} does not fit the "
                f"campaign's buckets: {exc}"
            ) from exc
        tokens = bucket
    try:
        schedule, _ = resolve_schedule(
            AttentionSchedule(config.attention),
            tokens, platform.gpu.memory_bytes,
        )
    except MemoryBudgetError as exc:
        raise StageError(
            f"target {target.target_id!r} fails memory-planner "
            f"admission on {platform.name}: {exc}"
        ) from exc
    try:
        breakdown = schedule.simulator(platform).run(
            tokens,
            threads=config.threads,
            msa_depth=int(msa["msa_depth"]),
            allow_unified_memory=schedule.allow_unified_memory,
        )
    except GpuOutOfMemoryError as exc:
        raise StageError(
            f"target {target.target_id!r} inference OOMs on "
            f"{platform.name}: {exc}"
        ) from exc
    return OrderedDict(
        inference_seconds=_round(breakdown.total),
        breakdown=OrderedDict(
            (phase, _round(seconds))
            for phase, seconds in breakdown.as_dict().items()
        ),
        used_unified_memory=breakdown.used_unified_memory,
        device_memory_gib=_round(
            breakdown.device_memory_demand / (1024 ** 3)
        ),
        simulated_seconds=_round(breakdown.total),
        attention=schedule.name,
        attention_block=schedule.block,
        bucket=bucket,
    )


def _report(target: TargetSpec, upstream: Dict) -> "OrderedDict":
    """Per-target merge (the ``join_json`` step): one record holding
    everything the cohort report aggregates."""
    preprocess = upstream[task_id(target.target_id, "preprocess")]
    msa = upstream[task_id(target.target_id, "msa")]
    inference = upstream[task_id(target.target_id, "inference")]
    msa_seconds = float(msa["msa_seconds"])
    inference_seconds = float(inference["inference_seconds"])
    total = msa_seconds + inference_seconds
    return OrderedDict(
        tokens=preprocess["tokens"],
        chain_count=preprocess["chain_count"],
        complexity=preprocess["complexity"],
        has_rna=preprocess["has_rna"],
        msa_depth=msa["msa_depth"],
        chain_keys=msa["chain_keys"],
        msa_seconds=_round(msa_seconds),
        inference_seconds=_round(inference_seconds),
        total_seconds=_round(total),
        msa_fraction=_round(msa_seconds / total if total else 0.0),
        inference_breakdown=inference["breakdown"],
        used_unified_memory=inference["used_unified_memory"],
        simulated_seconds=_round(REPORT_SECONDS),
    )


def stage_output(
    stage: str, target: TargetSpec, config: "CampaignConfig",
    upstream: Dict, stored_keys: Collection[str] = (),
) -> "OrderedDict":
    """One task's output document (without the task/status envelope).

    ``stored_keys`` are the chain keys the feature store already holds
    (MSA only): those chains are not offered for publication.
    """
    if stage == "preprocess":
        return _preprocess(target, config)
    if stage == "msa":
        return _msa(target, config, stored_keys)
    if stage == "inference":
        return _inference(target, config, upstream)
    if stage == "report":
        return _report(target, upstream)
    raise ValueError(f"unknown stage {stage!r}")


def run_stage_shard(payload) -> List["OrderedDict"]:
    """One worker's shard of a stage wave (picklable entry point).

    ``payload`` is ``(stage, config, stored_keys, jobs)`` where each
    job is ``(target, upstream_outputs)``.  Returns one enveloped
    record per job, in job order; a :class:`StageError` becomes a
    ``failed`` record, anything else propagates (a bug, not an
    operator problem).
    """
    stage, config, stored_keys, jobs = payload
    out: List[OrderedDict] = []
    for target, upstream in jobs:
        envelope = OrderedDict(
            task=task_id(target.target_id, stage),
            target=target.target_id,
            stage=stage,
        )
        try:
            body = stage_output(
                stage, target, config, upstream, stored_keys
            )
        except StageError as exc:
            envelope["status"] = "failed"
            envelope["error"] = str(exc)
        else:
            envelope["status"] = "ok"
            envelope.update(body)
        out.append(envelope)
    return out
