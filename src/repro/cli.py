"""Command-line interface: the shell-facing face of AFSysBench.

The paper's AFSysBench is a shell harness; this module provides the
equivalent entry points over the simulated platforms::

    python -m repro run --sample 2PV7 --platform Server --threads 4
    python -m repro sweep --samples 2PV7 promo --threads 1 2 4
    python -m repro artifact table3
    python -m repro estimate --json input.json
    python -m repro samples
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import List, Optional

from .core.pipeline import Af3Pipeline
from .core.runner import BenchmarkRunner
from .core.suite import AfSysBench
from .hardware.gpu import GpuOutOfMemoryError
from .hardware.memory import OutOfMemoryError
from .hardware.platform import PLATFORMS, get_platform
from .model.memory_planner import (
    ATTENTION_SCHEDULES, AttentionSchedule, MemoryBudgetError,
    resolve_schedule,
)
from .msa.engine import MsaEngine, MsaEngineConfig
from .parallel import ExecutionPlan
from .sequences.builtin import builtin_samples
from .sequences.input_json import load_json
from .sequences.sample import InputSample, classify_complexity

GIB = 1024 ** 3


def _at_least(cast, low, strict: bool = False):
    """An argparse ``type=`` that parses with ``cast`` and rejects
    values below ``low`` (or equal to it when ``strict``), so a bad
    flag exits 2 with a one-line usage error instead of a traceback."""

    def parse(text: str):
        value = cast(text)
        if not (value > low if strict else value >= low):   # NaN fails
            raise argparse.ArgumentTypeError(
                f"must be {'>' if strict else '>='} {low}, got {text}"
            )
        return value

    parse.__name__ = cast.__name__
    return parse


_COUNT = _at_least(int, 1)                  # workers, requests, batches
_TALLY = _at_least(int, 0)                  # retries and fault counts
_CHAINS = _at_least(int, 2)                 # a PPI screen pairs chains
_POSITIVE = _at_least(float, 0, strict=True)   # rates, budgets, timeouts
_SECONDS = _at_least(float, 0)              # waits and backoffs


def _fault_kinds(text: str):
    """``--kinds`` CSV -> tuple of fault-kind values (None if empty)."""
    from .faults.audit import validate_fault_mix

    kinds = tuple(k.strip() for k in text.split(",") if k.strip())
    try:
        validate_fault_mix(kinds)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return kinds or None


@functools.lru_cache(maxsize=8)
def _small_engine(
    seed: int = 0, plan: Optional[ExecutionPlan] = None
) -> MsaEngine:
    # Cached so repeated CLI invocations in one process (tests, the
    # REPL) reuse each sample's functional search results; engines are
    # keyed by (seed, plan) and MsaEngine itself caches per sample.
    return MsaEngine(
        MsaEngineConfig(num_background=40, homologs_per_query=6, seed=seed),
        plan=plan,
    )


def _resolve_sample(args: argparse.Namespace) -> InputSample:
    if getattr(args, "json", None):
        assembly = load_json(args.json)
        return InputSample(
            name=assembly.name,
            assembly=assembly,
            complexity=classify_complexity(
                assembly.total_residues, assembly.chain_count,
                mixed=len({c.molecule_type for c in assembly}) > 1,
            ),
            target_characteristic="user-supplied input",
        )
    samples = builtin_samples()
    name = args.sample
    for key, sample in samples.items():
        if key.lower() == name.lower():
            return sample
    raise SystemExit(
        f"unknown sample {name!r}; available: {', '.join(samples)}"
    )


def cmd_run(args: argparse.Namespace) -> int:
    sample = _resolve_sample(args)
    platform = get_platform(args.platform)
    plan = ExecutionPlan(workers=getattr(args, "workers", 1))
    budget_mb = args.memory_budget_mb
    if budget_mb is not None and args.attention != "tiled":
        print("--memory-budget-mb requires --attention tiled",
              file=sys.stderr)
        return 2
    try:
        schedule, memory_plan = resolve_schedule(
            AttentionSchedule(args.attention),
            sample.assembly.num_tokens, platform.gpu.memory_bytes,
            budget_bytes=(
                None if budget_mb is None else budget_mb * 1024.0 * 1024.0
            ),
        )
    except MemoryBudgetError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if memory_plan is not None:
        # Realise the planned schedule on the functional substrate too,
        # so the numpy model runs the same tiles the plan promises.
        plan = memory_plan.execution_plan(plan)
    pipeline = Af3Pipeline(
        platform, msa_engine=_small_engine(args.seed, plan), plan=plan,
        schedule=schedule,
    )
    try:
        result = pipeline.run(sample, threads=args.threads)
    except OutOfMemoryError as exc:
        print(f"OOM: {exc}", file=sys.stderr)
        return 2
    except GpuOutOfMemoryError as exc:
        print(
            f"GPU OOM under --attention {schedule.name}: {exc}\n"
            "Try --attention tiled (the memory planner picks a block "
            "that fits).", file=sys.stderr,
        )
        return 2
    if args.format == "json":
        doc = {
            "sample": result.sample_name,
            "platform": result.platform_name,
            "threads": result.threads,
            "attention": schedule.name,
            "msa_seconds": result.msa_seconds,
            "inference_seconds": result.inference_seconds,
            "msa_fraction": result.msa_fraction,
            "inference_breakdown": result.inference.as_dict(),
            "peak_memory_gib": result.peak_memory_bytes / GIB,
            "disk_utilization": result.iostat.utilization,
            "ipc": result.msa_report.ipc,
            "llc_miss_pct": result.msa_report.llc_miss_pct,
        }
        if memory_plan is not None:
            doc["memory_plan"] = memory_plan.summary()
        print(json.dumps(doc, indent=2))
    else:
        if memory_plan is not None:
            print(memory_plan.render())
        print(f"{result.sample_name} on {result.platform_name} "
              f"({result.threads} threads)")
        print(f"  MSA:       {result.msa_seconds:10.1f} s "
              f"({100 * result.msa_fraction:.1f} %)")
        print(f"  inference: {result.inference_seconds:10.1f} s")
        for phase, seconds in result.inference.as_dict().items():
            print(f"    {phase:15s} {seconds:8.1f} s")
        print(f"  peak memory: {result.peak_memory_bytes / GIB:.2f} GiB "
              f"({result.memory_outcome.value})")
        print(f"  NVMe util:   {100 * result.iostat.utilization:.0f} %")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    runner = BenchmarkRunner(
        platforms=[get_platform(p) for p in args.platforms],
        msa_config=MsaEngineConfig(
            num_background=40, homologs_per_query=6, seed=args.seed
        ),
    )
    results = runner.run_sweep(
        sample_names=args.samples or None, thread_counts=args.threads
    )
    if args.format == "json":
        print(results.to_json())
    else:
        from .core.report import render_table

        rows = [
            (
                r.sample, r.platform, r.threads,
                f"{r.msa_seconds:,.0f}", f"{r.inference_seconds:,.0f}",
                f"{100 * r.msa_fraction:.1f}%",
                "OOM" if r.oom else "",
            )
            for r in results
        ]
        print(render_table(
            ["Sample", "Platform", "T", "MSA (s)", "Inference (s)",
             "MSA %", ""],
            rows,
            title="AFSysBench sweep",
        ))
    return 0


def cmd_artifact(args: argparse.Namespace) -> int:
    bench = AfSysBench.small(seed=args.seed)
    if args.name == "all":
        from .core.campaign import run_campaign

        result = run_campaign(bench, output_dir=args.out)
        print(f"wrote {result.count} artifacts to {result.output_dir}/ "
              f"(manifest: {result.manifest_path})")
        return 0
    try:
        print(bench._dispatch(args.name))
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    return 0


def cmd_estimate(args: argparse.Namespace) -> int:
    from .core.estimator import estimate

    sample = _resolve_sample(args)
    try:
        report = estimate(
            sample.assembly, threads=args.threads,
            schedule=AttentionSchedule(args.attention, args.attention_block),
        )
    except ValueError as exc:   # a stray block, or a tiled one without
        flag = "--attention-block" if args.attention_block else "--attention"
        args.parser.error(f"argument {flag}: {exc}")
    print(report.render())
    return 0 if report.safe_somewhere else 3


def _open_store(args: argparse.Namespace):
    """The FeatureStore the flags describe, or None without --store-dir."""
    if not getattr(args, "store_dir", None):
        return None
    from .store import FeatureStore

    return FeatureStore(
        args.store_dir,
        byte_budget=int(args.store_budget_mb * 1024 * 1024),
    )


def _resolve_buckets(spec: str, lengths):
    """Turn a ``--buckets`` value into an edge tuple.

    ``fixed`` keeps the AF3 flag default, ``adaptive`` fits edges to
    the stream about to be served (the online analogue of ``repro
    buckets fit``), anything else parses as CSV edges.
    """
    from .buckets import fit_buckets, parse_bucket_spec
    from .core.server import DEFAULT_BUCKETS

    if spec == "fixed":
        return DEFAULT_BUCKETS
    if spec == "adaptive":
        return fit_buckets(list(lengths), max_buckets=len(DEFAULT_BUCKETS))
    return parse_bucket_spec(spec)


def cmd_serve_sim(args: argparse.Namespace) -> int:
    from .serving import (
        GatewayConfig,
        PoissonArrivals,
        ServingGateway,
        build_request_stream,
        ppi_screen_stream,
        sequential_warm_baseline,
    )

    platform = get_platform(args.platform)
    if args.scenario == "ppi-screen":
        stream = ppi_screen_stream(
            args.requests, num_chains=args.chains,
            seed=args.seed, rate_rps=args.rate,
        )
    else:
        stream = build_request_stream(
            list(builtin_samples().values()),
            n=args.requests,
            arrivals=PoissonArrivals(args.rate, seed=args.seed),
            seed=args.seed,
        )
    config = GatewayConfig(
        num_gpu_workers=args.gpu_workers,
        num_msa_workers=args.msa_workers,
        max_batch=args.max_batch,
        max_wait_seconds=args.max_wait,
        queue_limit=args.queue_limit,
        timeout_seconds=args.timeout,
        max_retries=args.retries,
        retry_backoff_seconds=args.backoff,
        buckets=_resolve_buckets(
            getattr(args, "buckets", "fixed"),
            [r.num_tokens for r in stream],
        ),
        compile_cache=getattr(args, "compile_cache", "none"),
    )
    store = _open_store(args)
    if store is not None and args.precompute:
        from .store import precompute_msas

        precompute = precompute_msas([r.sample for r in stream], store)
        print(precompute.render(), file=sys.stderr)
    gateway = ServingGateway(platform, config, store=store)
    report = gateway.run(stream)
    baseline = None
    speedup = None
    if not args.no_baseline:
        baseline = sequential_warm_baseline(platform, stream)
        if report.duration_seconds > 0:
            speedup = baseline / report.duration_seconds
    if args.format == "json":
        summary = report.summary()
        if baseline is not None:
            summary["baseline_sequential_seconds"] = round(baseline, 6)
            summary["speedup_over_sequential"] = (
                round(speedup, 6) if speedup is not None else None
            )
        print(json.dumps(summary, indent=2))
    else:
        print(report.render())
        if baseline is not None:
            line = (
                f"  baseline   : sequential warm server {baseline:,.0f} s "
                f"for the same stream"
            )
            if speedup:
                line += f" -> {speedup:.2f}x gateway speedup"
                if report.completed < report.submitted:
                    # Shed/timed-out requests never ran on the gateway,
                    # so the makespan comparison flatters it.
                    line += (
                        f" (gateway finished only {report.completed}"
                        f"/{report.submitted})"
                    )
            print(line)
    return 0


def cmd_msa_precompute(args: argparse.Namespace) -> int:
    from .sequences.sample import ComplexityClass
    from .serving import ppi_chain_library
    from .store import FeatureStore, precompute_msas

    if args.scenario == "ppi-screen":
        from .sequences.chain import Assembly

        samples = [
            InputSample(
                name=f"chain-{chain.chain_id}",
                assembly=Assembly(
                    name=chain.chain_id, chains=[chain]
                ),
                complexity=ComplexityClass.LOW,
                target_characteristic="PPI screen precompute",
            )
            for chain in ppi_chain_library(args.chains, seed=args.seed)
        ]
    else:
        samples = list(builtin_samples().values())
    store = FeatureStore(
        args.store_dir,
        byte_budget=int(args.store_budget_mb * 1024 * 1024),
    )
    plan = ExecutionPlan(workers=args.workers, backend=args.backend)
    report = precompute_msas(samples, store, plan=plan)
    if args.format == "json":
        print(json.dumps(report.summary(), indent=2))
    else:
        print(report.render())
    return 0


def _campaign_targets(args: argparse.Namespace):
    """Targets from ``--manifest`` or the ``--targets N`` seeded cohort."""
    from .campaign import load_manifest, seeded_manifest

    if args.manifest:
        return load_manifest(args.manifest)
    return seeded_manifest(args.targets, seed=args.seed)


def _campaign_config(args: argparse.Namespace):
    from .campaign import CampaignConfig

    buckets = None
    if getattr(args, "buckets", None):
        from .buckets import parse_bucket_spec

        buckets = parse_bucket_spec(args.buckets)
    return CampaignConfig(
        platform=args.platform,
        threads=args.threads,
        seed=args.seed,
        max_tokens=args.max_tokens,
        store_dir=args.store_dir,
        store_budget_mb=args.store_budget_mb,
        attention=args.attention,
        buckets=buckets,
    )


def _campaign_run(args: argparse.Namespace, resume: bool) -> int:
    from .campaign import CampaignKilled, run_campaign

    plan = ExecutionPlan(workers=args.workers, backend=args.backend)
    kwargs = {}
    if not resume:
        kwargs["targets"] = _campaign_targets(args)
        kwargs["config"] = _campaign_config(args)
    try:
        report = run_campaign(
            args.dir, plan=plan,
            kill_after=getattr(args, "kill_after", None), **kwargs,
        )
    except CampaignKilled as exc:
        print(exc.report.render())
        print(str(exc), file=sys.stderr)
        return 3
    if args.format == "json":
        print(json.dumps(report.summary(), indent=2))
    else:
        print(report.render())
    if report.stages_failed:
        return 4
    return 0


def _campaign_errors(command):
    """A directory that is not a campaign is an operator error: print
    the one-line message and exit 2."""

    @functools.wraps(command)
    def run(args: argparse.Namespace) -> int:
        from .campaign.state import CampaignStateError

        try:
            return command(args)
        except CampaignStateError as exc:
            print(exc, file=sys.stderr)
            return 2

    return run


def cmd_campaign_run(args: argparse.Namespace) -> int:
    return _campaign_run(args, resume=False)


@_campaign_errors
def cmd_campaign_resume(args: argparse.Namespace) -> int:
    return _campaign_run(args, resume=True)


@_campaign_errors
def cmd_campaign_report(args: argparse.Namespace) -> int:
    from .campaign import (
        CampaignState,
        campaign_spans,
        cohort_summary,
        render_cohort_markdown,
    )

    state = CampaignState(args.dir)
    targets, config_doc = state.load()
    outputs = state.load_outputs()
    summary = cohort_summary(outputs, targets, config_doc)
    if args.trace:
        from .observability import chrome_trace_json

        recorder = campaign_spans(
            outputs, targets, config_doc["stage_workers"]
        )
        text = chrome_trace_json(
            recorder,
            metadata={
                "campaign": str(args.dir),
                "platform": config_doc["platform"],
                "seed": config_doc["seed"],
            },
        )
        _write_out(text + "\n", args.trace)
    if args.format == "json":
        _write_out(json.dumps(summary, indent=2) + "\n", args.out)
    elif args.format == "prometheus":
        from .observability import CAMPAIGN_METRICS, prometheus_metrics

        _write_out(prometheus_metrics(summary, CAMPAIGN_METRICS), args.out)
    else:
        _write_out(render_cohort_markdown(summary), args.out)
    return 0


@_campaign_errors
def cmd_campaign_status(args: argparse.Namespace) -> int:
    """Read-only progress scan — safe against a live campaign."""
    from .campaign import CampaignState
    from .core.report import render_table

    state = CampaignState(args.dir)
    status = state.scan_status()
    rows = [
        (stage, c["total"], c["done"], c["failed"], c["blocked"],
         c["pending"])
        for stage, c in status.items()
    ]
    print(render_table(
        ["Stage", "Total", "Done", "Failed", "Blocked", "Pending"], rows
    ))
    for doc in state.failed_records():
        print(f"failed {doc['task']}: {doc.get('error', '')}")
    total = sum(c["total"] for c in status.values())
    done = sum(c["done"] for c in status.values())
    print(f"{done}/{total} stage outputs done")
    return 0


def cmd_campaign_differential(args: argparse.Namespace) -> int:
    from .campaign import kill_resume_differential

    result = kill_resume_differential(
        args.dir,
        _campaign_targets(args),
        config=_campaign_config(args),
        kill_after=args.kill_after,
        plan=ExecutionPlan(workers=args.workers, backend=args.backend),
    )
    print(result.render())
    return 0 if result.passed else 4


def cmd_chaos(args: argparse.Namespace) -> int:
    import os

    from .faults import ChaosConfig, run_suite

    quick = bool(os.environ.get("REPRO_BENCH_QUICK"))
    base = ChaosConfig(
        seed=args.seed,
        platform=args.platform,
        num_requests=(
            args.requests if args.requests is not None
            else (40 if quick else 120)
        ),
        arrival_rps=args.rate,
        num_gpu_workers=args.gpu_workers,
        num_msa_workers=args.msa_workers,
        timeout_seconds=args.timeout,
        max_retries=args.retries,
        crashes=args.crashes,
        preemptions=args.preemptions,
        oom_spikes=args.oom_spikes,
        db_stalls=args.db_stalls,
        db_corruptions=args.db_corruptions,
        slow_nodes=args.slow_nodes,
        preemption_notices=args.preemption_notices,
        kinds=args.kinds,
        restart_seconds=args.restart,
        breaker_failure_threshold=args.breaker_threshold,
        breaker_cooldown_seconds=args.breaker_cooldown,
        degraded_fallback=not args.no_degraded_fallback,
    )
    seeds = tuple(args.seeds) if args.seeds else (args.seed,)
    results = run_suite(
        seeds, base, check_determinism=not args.no_determinism_check
    )
    return _print_chaos_suite("chaos", results, args.format)


def _print_chaos_suite(command: str, results, fmt: str) -> int:
    """Print a per-seed chaos suite; exit 4 if any seed failed."""
    if fmt == "json":
        print(json.dumps(
            {str(seed): r.summary() for seed, r in results.items()},
            indent=2,
        ))
    else:
        print("\n\n".join(r.render() for r in results.values()))
    failing = [str(s) for s, r in results.items() if not r.ok]
    if not failing:
        return 0
    print(
        f"{command}: invariant violation or nondeterminism on "
        f"seed(s) {', '.join(failing)}",
        file=sys.stderr,
    )
    return 4


def _cluster_chaos_config(args: argparse.Namespace, policy: str, seed: int):
    from .cluster import ClusterChaosConfig

    return ClusterChaosConfig(
        seed=seed,
        num_jobs=args.jobs,
        num_chains=args.chains,
        arrival_rate_per_hour=args.rate,
        policy=policy,
        migration=not args.no_migration,
        max_attempts=args.max_attempts,
        preemption_notices=args.preemption_notices,
        crashes=args.crashes,
        preemptions=args.preemptions,
        slow_nodes=args.slow_nodes,
        store_corruptions=args.store_corruptions,
        kinds=args.kinds,
        compile_cache=getattr(args, "compile_cache", "none"),
    )


def cmd_cluster_sim(args: argparse.Namespace) -> int:
    from collections import OrderedDict

    from .cluster import render_pareto_table, pareto_rows
    from .cluster.chaos import _run_once

    reports = OrderedDict()
    for policy in args.policies:
        config = _cluster_chaos_config(args, policy, args.seed)
        _scheduler, report, _plan = _run_once(config)
        reports[policy] = report
    if args.format == "json":
        print(json.dumps(OrderedDict(
            seed=args.seed,
            jobs=args.jobs,
            migration=not args.no_migration,
            pareto=pareto_rows(list(reports.values())),
            policies=OrderedDict(
                (name, r.summary()) for name, r in reports.items()
            ),
        ), indent=2))
    else:
        for report in reports.values():
            print(report.render())
            print()
        if len(reports) > 1:
            print(render_pareto_table(list(reports.values())))
    return 0


def cmd_cluster_chaos(args: argparse.Namespace) -> int:
    from .cluster import run_cluster_suite

    seeds = tuple(args.seeds) if args.seeds else (args.seed,)
    results = run_cluster_suite(
        seeds, _cluster_chaos_config(args, args.policy, args.seed),
        check_determinism=not args.no_determinism_check,
    )
    return _print_chaos_suite("cluster-chaos", results, args.format)


def _bucket_fit_lengths(args: argparse.Namespace):
    """Token lengths for ``repro buckets fit``: a seeded mix, the
    paper cohort, or a file (campaign manifest, JSON length array, or
    JSON trace rows with ``num_tokens``/``tokens``/``length``)."""
    import pathlib

    from .buckets import paper_cohort_lengths, realistic_mix, trace_lengths

    source = args.source
    if source == "realistic":
        return realistic_mix(seed=args.seed, n=args.requests)
    if source == "cohort":
        return paper_cohort_lengths()
    path = pathlib.Path(source)
    if not path.exists():
        raise SystemExit(
            f"buckets fit: source {source!r} is neither 'realistic', "
            f"'cohort', nor an existing file"
        )
    doc = None
    if path.suffix.lower() == ".json":
        try:
            doc = json.loads(path.read_text())
        except ValueError:
            doc = None
    if isinstance(doc, list) and doc and all(
        isinstance(x, int) for x in doc
    ):
        return [int(x) for x in doc]
    if isinstance(doc, list) and doc and all(
        isinstance(x, dict) for x in doc
    ):
        return trace_lengths(doc)
    from .campaign.manifest import load_manifest

    targets = load_manifest(path)
    return [t.to_assembly().num_tokens for t in targets]


def cmd_buckets_fit(args: argparse.Namespace) -> int:
    from collections import OrderedDict

    from .buckets import (
        compare_bucketings,
        fit_buckets,
        power_of_two_buckets,
        render_comparison,
    )
    from .core.server import DEFAULT_BUCKETS

    try:
        lengths = _bucket_fit_lengths(args)
    except SystemExit as exc:
        print(str(exc), file=sys.stderr)
        return 2
    fitted = fit_buckets(
        lengths, max_buckets=args.max_buckets, min_width=args.min_width
    )
    schemes = [("pow2", power_of_two_buckets(max(lengths)))]
    if max(lengths) <= DEFAULT_BUCKETS[-1]:
        schemes.append(("fixed", DEFAULT_BUCKETS))
    schemes.append(("adaptive", fitted))
    comparison = compare_bucketings(lengths, schemes)
    bucket_csv = ",".join(str(e) for e in fitted)
    if args.format == "json":
        print(json.dumps(OrderedDict(
            source=args.source,
            requests=len(lengths),
            max_buckets=args.max_buckets,
            min_width=args.min_width,
            fitted=list(fitted),
            comparison=comparison.summary(),
        ), indent=2))
    else:
        print(render_comparison(comparison))
        print()
        print(f"fitted buckets ({len(fitted)} edges): {bucket_csv}")
        print(f"  persist with: repro serve-sim --buckets {bucket_csv}")
    return 0


def _observed_run(args: argparse.Namespace):
    """Run one seeded gateway simulation with span recording attached.

    Returns ``(probe, report)``.  With ``--chaos`` the run is built
    through the chaos harness (same default fault mix as the ``chaos``
    subcommand); otherwise it is a fault-free ``serve-sim``-style run.
    Either way the simulation itself is identical to the un-observed
    one — the probe only listens.
    """
    from .observability import SpanProbe

    probe = SpanProbe()
    if args.chaos:
        from .faults.chaos import _build

        config = _chaos_config_from_args(args)
        gateway, stream, _plan = _build(config, probe=probe)
    else:
        from .serving import (
            GatewayConfig,
            PoissonArrivals,
            ServingGateway,
            build_request_stream,
        )

        platform = get_platform(args.platform)
        config = GatewayConfig(
            num_gpu_workers=args.gpu_workers,
            num_msa_workers=args.msa_workers,
            max_batch=args.max_batch,
            max_wait_seconds=args.max_wait,
            queue_limit=args.queue_limit,
            timeout_seconds=args.timeout,
            max_retries=args.retries,
            retry_backoff_seconds=args.backoff,
        )
        stream = build_request_stream(
            list(builtin_samples().values()),
            n=args.requests,
            arrivals=PoissonArrivals(args.rate, seed=args.seed),
            seed=args.seed,
        )
        gateway = ServingGateway(platform, config, probe=probe)
    report = gateway.run(stream)
    return probe, report


def _chaos_config_from_args(args: argparse.Namespace):
    """The chaos campaign config an ``observe --chaos`` run uses."""
    from .faults import ChaosConfig

    return ChaosConfig(
        seed=args.seed,
        platform=args.platform,
        num_requests=args.requests,
        arrival_rps=args.rate,
        num_gpu_workers=args.gpu_workers,
        num_msa_workers=args.msa_workers,
        timeout_seconds=args.timeout if args.timeout else 14400.0,
        max_retries=args.retries,
    )


def _write_out(text: str, out: Optional[str]) -> None:
    if out and out != "-":
        with open(out, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def cmd_observe_export_trace(args: argparse.Namespace) -> int:
    from .observability import chrome_trace_json

    probe, _report = _observed_run(args)
    metadata = {
        "seed": args.seed,
        "platform": args.platform,
        "requests": args.requests,
        "chaos": bool(args.chaos),
    }
    text = chrome_trace_json(
        probe.recorder, metadata=metadata, indent=args.indent
    )
    if not text.endswith("\n"):
        text += "\n"
    _write_out(text, args.out)
    return 0


def cmd_observe_export_metrics(args: argparse.Namespace) -> int:
    from .observability import SERVING_METRICS, prometheus_metrics

    _probe, report = _observed_run(args)
    _write_out(prometheus_metrics(report.summary(), SERVING_METRICS),
               args.out)
    return 0


def cmd_observe_explain(args: argparse.Namespace) -> int:
    from .observability import explain

    probe, _report = _observed_run(args)
    try:
        print(explain(probe.recorder, args.request_id))
    except KeyError:
        print(
            f"no spans recorded for request {args.request_id} "
            f"(stream had --requests {args.requests})",
            file=sys.stderr,
        )
        return 2
    return 0


def cmd_scale(args: argparse.Namespace) -> int:
    """Thread/worker scaling curves: simulated, measured, or both."""
    import os
    import pathlib

    texts = {}
    if not args.measured_only:
        from .experiments import fig4_msa_threads, fig6_inference_threads

        runner = BenchmarkRunner(
            msa_config=MsaEngineConfig(
                num_background=40, homologs_per_query=6, seed=args.seed
            )
        )
        texts["scale_simulated_fig4.txt"] = fig4_msa_threads.render(runner)
        texts["scale_simulated_fig6.txt"] = (
            fig6_inference_threads.render(runner)
        )
    if args.measured or args.measured_only:
        from .experiments import measured_scaling

        texts["scale_measured.txt"] = measured_scaling.render(
            worker_counts=tuple(args.workers), seed=args.seed
        )
    if args.out:
        out_dir = pathlib.Path(args.out)
        os.makedirs(out_dir, exist_ok=True)
        for name, text in texts.items():
            (out_dir / name).write_text(text + "\n")
        print(f"wrote {', '.join(sorted(texts))} to {out_dir}/")
    else:
        print("\n\n".join(texts[name] for name in sorted(texts)))
    return 0


def cmd_observe_export_scan_trace(args: argparse.Namespace) -> int:
    """Chrome trace of a *real* (measured) parallel MSA database scan."""
    from .observability import chrome_trace_json
    from .parallel import scan_timeline

    sample = _resolve_sample(args)
    engine = MsaEngine(
        MsaEngineConfig(
            num_background=args.num_background,
            homologs_per_query=6,
            seed=args.seed,
        ),
        plan=ExecutionPlan(workers=args.workers, backend=args.backend),
    )
    result = engine.run(sample)
    outcomes, labels = [], []
    for search in result.searches:
        for outcome in search.scan_outcomes:
            outcomes.append(outcome)
            labels.append(f"{search.query_name}:{search.database_name}")
    recorder = scan_timeline(
        outcomes, track_prefix="msa-worker", labels=labels
    )
    metadata = {
        "sample": sample.name,
        "seed": args.seed,
        "workers": args.workers,
        "measured": True,
    }
    text = chrome_trace_json(recorder, metadata=metadata, indent=args.indent)
    if not text.endswith("\n"):
        text += "\n"
    _write_out(text, args.out)
    return 0


def cmd_samples(_args: argparse.Namespace) -> int:
    from .core.report import render_table

    rows = [
        (
            s.name, s.structure_description, s.complexity.value,
            s.sequence_length, s.target_characteristic,
        )
        for s in builtin_samples().values()
    ]
    print(render_table(
        ["Sample", "Structure", "Complexity", "Length", "Target"], rows
    ))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="afsysbench",
        description="AF3 workload characterization benchmark suite "
                    "(simulated platforms)",
    )
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for the synthetic databases")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="simulate one end-to-end AF3 run")
    run.add_argument("--sample", default="2PV7")
    run.add_argument("--json", help="AF3 JSON input file instead of --sample")
    run.add_argument("--platform", default="Server",
                     choices=sorted(PLATFORMS), help="platform preset")
    run.add_argument("--threads", type=_COUNT, default=8)
    run.add_argument("--workers", type=_COUNT, default=1,
                     help="real worker processes for the functional "
                          "MSA database scans (results are "
                          "byte-identical for any count)")
    run.add_argument("--attention", choices=ATTENTION_SCHEDULES,
                     default="chunked",
                     help="inference attention schedule: chunked "
                          "(production default), resident (full O(N^3) "
                          "logits, strict admission), or tiled (the "
                          "memory planner picks a block; see "
                          "docs/memory_planner.md)")
    run.add_argument("--memory-budget-mb", type=float, default=None,
                     help="schedulable-workspace budget (MiB) for the "
                          "tiled planner; default plans against the "
                          "platform's device memory")
    run.add_argument("--format", choices=["text", "json"], default="text")
    run.set_defaults(func=cmd_run)

    sweep = sub.add_parser("sweep", help="samples x platforms x threads")
    sweep.add_argument("--samples", nargs="*", default=None)
    sweep.add_argument("--platforms", nargs="*",
                       default=["Server", "Desktop"])
    sweep.add_argument("--threads", nargs="*", type=_COUNT,
                       default=[1, 2, 4, 6, 8])
    sweep.add_argument("--format", choices=["text", "json"], default="text")
    sweep.set_defaults(func=cmd_sweep)

    artifact = sub.add_parser(
        "artifact",
        help="regenerate a paper table/figure (e.g. table3, fig5, all)",
    )
    artifact.add_argument("name")
    artifact.add_argument("--out", default="artifacts",
                          help="output directory for 'all'")
    artifact.set_defaults(func=cmd_artifact)

    estimate = sub.add_parser(
        "estimate", help="static memory pre-check for an input (Section VI)"
    )
    estimate.add_argument("--sample", default="6QNR")
    estimate.add_argument("--json", help="AF3 JSON input file")
    estimate.add_argument("--threads", type=_COUNT, default=8)
    estimate.add_argument("--attention", choices=ATTENTION_SCHEDULES,
                          default="chunked",
                          help="attention schedule the GPU demand is "
                               "computed for (tiled needs "
                               "--attention-block)")
    estimate.add_argument("--attention-block", type=_COUNT, default=None,
                          help="tile block for --attention tiled (and "
                               "only for it)")
    estimate.set_defaults(func=cmd_estimate, parser=estimate)

    serve = sub.add_parser(
        "serve-sim",
        help="simulate the multi-worker serving gateway on a seeded "
             "request stream (Section VI at scale)",
    )
    serve.add_argument("--platform", default="Server",
                       choices=sorted(PLATFORMS))
    serve.add_argument("--requests", type=_COUNT, default=200,
                       help="number of requests in the stream")
    serve.add_argument("--rate", type=_POSITIVE, default=0.02,
                       help="Poisson arrival rate in requests/second")
    serve.add_argument("--gpu-workers", type=_COUNT, default=4)
    serve.add_argument("--msa-workers", type=_COUNT, default=4)
    serve.add_argument("--max-batch", type=_COUNT, default=4,
                       help="dynamic batching: max same-bucket batch size")
    serve.add_argument("--max-wait", type=_SECONDS, default=120.0,
                       help="dynamic batching: max coalescing wait (s)")
    serve.add_argument("--queue-limit", type=_COUNT, default=512,
                       help="admission control: shed past this queue depth")
    serve.add_argument("--timeout", type=_POSITIVE, default=None,
                       help="per-attempt queue timeout (s); off by default")
    serve.add_argument("--retries", type=_TALLY, default=2,
                       help="max retries after a timeout")
    serve.add_argument("--backoff", type=_SECONDS, default=30.0,
                       help="base retry backoff (s), doubled per attempt")
    serve.add_argument("--no-baseline", action="store_true",
                       help="skip the sequential warm-server comparison")
    serve.add_argument("--format", choices=["text", "json"], default="text")
    serve.add_argument("--scenario", choices=["default", "ppi-screen"],
                       default="default",
                       help="request mix: builtin samples, or the seeded "
                            "all-vs-all PPI screening workload")
    serve.add_argument("--chains", type=_CHAINS, default=100,
                       help="ppi-screen: size of the chain library")
    serve.add_argument("--store-dir", default=None,
                       help="enable the disk feature store at this path")
    serve.add_argument("--store-budget-mb", type=_POSITIVE, default=64.0,
                       help="feature-store LRU byte budget in MiB")
    serve.add_argument("--precompute", action="store_true",
                       help="bulk-fill the store from the stream's chains "
                            "before serving (requires --store-dir)")
    serve.add_argument("--buckets", default="fixed", metavar="SPEC",
                       help="shape buckets: 'fixed' (AF3 flag default), "
                            "'adaptive' (fit to this stream), or CSV "
                            "edges like 256,512,1024 (docs/bucketing.md)")
    serve.add_argument("--compile-cache", choices=["none", "shared"],
                       default="none",
                       help="XLA executable cache across GPU workers: "
                            "'shared' models one "
                            "jax_compilation_cache_dir all workers mount")
    serve.set_defaults(func=cmd_serve_sim)

    precompute = sub.add_parser(
        "msa-precompute",
        help="bulk-fill a disk feature store with per-chain MSA "
             "features before an inference wave (checkpointed: "
             "already-stored chains are skipped on restart)",
    )
    precompute.add_argument("--store-dir", required=True,
                            help="feature-store directory to fill")
    precompute.add_argument("--store-budget-mb", type=_POSITIVE, default=64.0)
    precompute.add_argument("--scenario",
                            choices=["default", "ppi-screen"],
                            default="ppi-screen")
    precompute.add_argument("--chains", type=_CHAINS, default=100,
                            help="ppi-screen: size of the chain library")
    precompute.add_argument("--workers", type=_COUNT, default=1,
                            help="key-range shards computed in parallel")
    precompute.add_argument("--backend", default="auto",
                            choices=["auto", "serial", "thread", "process"])
    precompute.add_argument("--format", choices=["text", "json"],
                            default="text")
    precompute.set_defaults(func=cmd_msa_precompute)

    chaos = sub.add_parser(
        "chaos",
        help="run a seeded fault-injection campaign against the "
             "serving gateway and check its invariants",
    )
    chaos.add_argument("--platform", default="Server",
                       choices=sorted(PLATFORMS))
    chaos.add_argument("--requests", type=_COUNT, default=None,
                       help="requests per campaign (default 120, or 40 "
                            "with REPRO_BENCH_QUICK=1)")
    chaos.add_argument("--rate", type=_POSITIVE, default=0.02,
                       help="Poisson arrival rate in requests/second")
    chaos.add_argument("--gpu-workers", type=_COUNT, default=3)
    chaos.add_argument("--msa-workers", type=_COUNT, default=3)
    chaos.add_argument("--timeout", type=_POSITIVE, default=14400.0,
                       help="per-attempt queue timeout (s)")
    chaos.add_argument("--retries", type=_TALLY, default=2)
    chaos.add_argument("--crashes", type=_TALLY, default=3,
                       help="worker crashes to schedule")
    chaos.add_argument("--preemptions", type=_TALLY, default=2)
    chaos.add_argument("--oom-spikes", type=_TALLY, default=2)
    chaos.add_argument("--db-stalls", type=_TALLY, default=3)
    chaos.add_argument("--db-corruptions", type=_TALLY, default=2)
    chaos.add_argument("--slow-nodes", type=_TALLY, default=2)
    chaos.add_argument("--preemption-notices", type=_TALLY, default=0,
                       help="spot reclaim warnings (notice lead, then "
                            "outage) to schedule")
    chaos.add_argument("--kinds", type=_fault_kinds, default=None,
                       help="comma-separated fault kinds to keep "
                            "(e.g. worker_crash,db_read_stall); the "
                            "seeded plan is generated in full and then "
                            "filtered, isolating one kind for debugging")
    chaos.add_argument("--restart", type=_POSITIVE, default=300.0,
                       help="crashed-worker restart delay (s)")
    chaos.add_argument("--breaker-threshold", type=_TALLY, default=2,
                       help="consecutive failures that eject a worker "
                            "(0 disables the circuit breaker)")
    chaos.add_argument("--breaker-cooldown", type=_SECONDS, default=1800.0)
    chaos.add_argument("--no-degraded-fallback", action="store_true",
                       help="time out exhausted requests instead of "
                            "serving reduced-depth results")
    chaos.add_argument("--seeds", nargs="*", type=int, default=None,
                       help="run one campaign per seed (default: the "
                            "global --seed)")
    chaos.add_argument("--no-determinism-check", action="store_true",
                       help="skip the byte-identical rerun of each "
                            "campaign")
    chaos.add_argument("--format", choices=["text", "json"],
                       default="text")
    chaos.set_defaults(func=cmd_chaos)

    campaign = sub.add_parser(
        "campaign",
        help="run a resumable multi-target batch campaign "
             "(preprocess -> msa -> inference -> report) with "
             "checkpointed stages and cohort reporting",
    )
    campaign_sub = campaign.add_subparsers(
        dest="campaign_command", required=True
    )

    campaign_exec = argparse.ArgumentParser(add_help=False)
    campaign_exec.add_argument("--dir", required=True,
                               help="campaign state directory")
    campaign_exec.add_argument("--workers", type=_COUNT, default=1,
                               help="real shard workers per stage wave "
                                    "(results are byte-identical for "
                                    "any count)")
    campaign_exec.add_argument("--backend", default="auto",
                               choices=["auto", "serial", "thread",
                                        "process"])
    campaign_exec.add_argument("--format", choices=["text", "json"],
                               default="text")

    campaign_cohort = argparse.ArgumentParser(add_help=False)
    campaign_cohort.add_argument("--manifest", default=None,
                                 help="CSV/JSON target manifest "
                                      "(see docs/campaign.md)")
    campaign_cohort.add_argument("--targets", type=_COUNT, default=12,
                                 help="seeded cohort size when no "
                                      "--manifest is given")
    campaign_cohort.add_argument("--platform", default="Server",
                                 choices=sorted(PLATFORMS))
    campaign_cohort.add_argument("--threads", type=_COUNT, default=8)
    campaign_cohort.add_argument("--max-tokens", type=_TALLY, default=0,
                                 help="admission limit; targets over it "
                                      "fail preprocess (0 disables)")
    campaign_cohort.add_argument("--store-dir", default=None,
                                 help="shared feature store for MSA "
                                      "chain read-through")
    campaign_cohort.add_argument("--store-budget-mb", type=_POSITIVE,
                                 default=64.0)
    campaign_cohort.add_argument("--attention",
                                 choices=ATTENTION_SCHEDULES,
                                 default="chunked",
                                 help="inference attention schedule for "
                                      "the whole cohort (tiled = memory-"
                                      "planner admission; persisted with "
                                      "the campaign)")
    campaign_cohort.add_argument("--buckets", default=None, metavar="CSV",
                                 help="shape-bucket edges for the "
                                      "inference stage (repro buckets "
                                      "fit output); targets execute at "
                                      "their padded bucket size; "
                                      "persisted with the campaign")

    campaign_run = campaign_sub.add_parser(
        "run", parents=[campaign_exec, campaign_cohort],
        help="start (or idempotently continue) a campaign",
    )
    campaign_run.add_argument("--kill-after", type=_COUNT, default=None,
                              help="fault injection: simulate a kill "
                                   "after N persisted stage outputs")
    campaign_run.set_defaults(func=cmd_campaign_run)

    campaign_resume = campaign_sub.add_parser(
        "resume", parents=[campaign_exec],
        help="finish an interrupted campaign (recomputes zero "
             "finished stages)",
    )
    campaign_resume.set_defaults(func=cmd_campaign_resume)

    campaign_report = campaign_sub.add_parser(
        "report",
        help="aggregate the cohort report from a campaign directory",
    )
    campaign_report.add_argument("--dir", required=True)
    campaign_report.add_argument("--format",
                                 choices=["markdown", "json",
                                          "prometheus"],
                                 default="markdown")
    campaign_report.add_argument("--out", default=None,
                                 help="write to a file instead of stdout")
    campaign_report.add_argument("--trace", default=None,
                                 help="also write the simulated campaign "
                                      "timeline as a Chrome/Perfetto "
                                      "trace to this path")
    campaign_report.set_defaults(func=cmd_campaign_report)

    campaign_status = campaign_sub.add_parser(
        "status",
        help="per-stage done/failed/blocked/pending counts (read-only, "
             "safe against a live campaign)",
    )
    campaign_status.add_argument("--dir", required=True)
    campaign_status.set_defaults(func=cmd_campaign_status)

    campaign_diff = campaign_sub.add_parser(
        "differential", parents=[campaign_exec, campaign_cohort],
        help="kill/resume audit: interrupted+resumed campaign must "
             "recompute 0 stages and match the clean report byte for "
             "byte",
    )
    campaign_diff.add_argument("--kill-after", type=_COUNT, default=5)
    campaign_diff.set_defaults(func=cmd_campaign_differential)

    cluster_common = argparse.ArgumentParser(add_help=False)
    cluster_common.add_argument("--jobs", type=_COUNT, default=60,
                                help="jobs in the seeded PPI stream")
    cluster_common.add_argument("--chains", type=_CHAINS, default=24,
                                help="size of the shared chain library")
    cluster_common.add_argument("--rate", type=_POSITIVE, default=120.0,
                                help="Poisson arrival rate in jobs/hour")
    cluster_common.add_argument("--max-attempts", type=_COUNT, default=6,
                                help="node assignments before a job fails")
    cluster_common.add_argument("--no-migration", action="store_true",
                                help="disable drain-time checkpoint/"
                                     "publish (lose work like a crash); "
                                     "use to measure what migration saves")
    cluster_common.add_argument("--preemption-notices", type=_TALLY,
                                default=10,
                                help="spot reclaim warnings to schedule")
    cluster_common.add_argument("--crashes", type=_TALLY, default=3,
                                help="hard node crashes to schedule")
    cluster_common.add_argument("--preemptions", type=_TALLY, default=2,
                                help="zero-warning spot reclaims")
    cluster_common.add_argument("--slow-nodes", type=_TALLY, default=2)
    cluster_common.add_argument("--store-corruptions", type=_TALLY,
                                default=3,
                                help="feature-store entries to rot")
    cluster_common.add_argument("--format", choices=["text", "json"],
                                default="text")
    cluster_common.add_argument("--compile-cache",
                                choices=["none", "shared"],
                                default="none",
                                help="fleet-shared XLA executable cache: "
                                     "'shared' lets every node reuse the "
                                     "first compile per bucket x platform")

    cluster_sim = sub.add_parser(
        "cluster-sim", parents=[cluster_common],
        help="simulate the fault-tolerant cluster scheduler over a "
             "heterogeneous fleet; with several --policies, emit the "
             "cost/throughput/p99 Pareto table",
    )
    cluster_sim.add_argument(
        "--policies", nargs="*",
        default=["fixed", "queue-depth", "cost-aware"],
        help="autoscaling policies to sweep (fixed, queue-depth, "
             "aggressive, conservative, cost-aware)",
    )
    cluster_sim.set_defaults(func=cmd_cluster_sim, kinds=None)

    cluster_chaos = sub.add_parser(
        "cluster-chaos", parents=[cluster_common],
        help="run seeded fault campaigns against the cluster scheduler "
             "and audit no-job-lost / balanced-accounting / "
             "no-double-execution / determinism invariants",
    )
    cluster_chaos.add_argument("--policy", default="queue-depth",
                               help="autoscaling policy under test")
    cluster_chaos.add_argument("--kinds", type=_fault_kinds, default=None,
                               help="comma-separated fault kinds to keep "
                                    "(plan generated in full, then "
                                    "filtered)")
    cluster_chaos.add_argument("--seeds", nargs="*", type=int,
                               default=None,
                               help="one campaign per seed (default: "
                                    "the global --seed)")
    cluster_chaos.add_argument("--no-determinism-check",
                               action="store_true",
                               help="skip the byte-identical rerun")
    cluster_chaos.set_defaults(func=cmd_cluster_chaos)

    buckets_p = sub.add_parser(
        "buckets",
        help="fit shape-bucket boundaries to a token-length "
             "distribution and compare padded-token waste "
             "(docs/bucketing.md)",
    )
    buckets_sub = buckets_p.add_subparsers(
        dest="buckets_command", required=True
    )
    buckets_fit = buckets_sub.add_parser(
        "fit",
        help="emit an optimized bucket list (DP over the empirical "
             "CDF) plus a waste comparison vs pow2/fixed",
    )
    buckets_fit.add_argument(
        "--source", default="realistic",
        help="'realistic' (seeded production mix), 'cohort' (the "
             "paper's targets), or a file: campaign manifest "
             "(CSV/JSON), JSON length array, or JSON trace rows",
    )
    buckets_fit.add_argument("--requests", type=_COUNT, default=2000,
                             help="sample size for --source realistic")
    buckets_fit.add_argument("--max-buckets", type=_COUNT, default=13,
                             help="edge budget (compiles scale with it)")
    buckets_fit.add_argument("--min-width", type=_COUNT, default=1,
                             help="minimum spacing between edges")
    buckets_fit.add_argument("--format", choices=["text", "json"],
                             default="text")
    buckets_fit.set_defaults(func=cmd_buckets_fit)

    observe_common = argparse.ArgumentParser(add_help=False)
    observe_common.add_argument("--platform", default="Server",
                                choices=sorted(PLATFORMS))
    observe_common.add_argument("--requests", type=_COUNT, default=40,
                                help="number of requests in the stream")
    observe_common.add_argument("--rate", type=_POSITIVE, default=0.02,
                                help="Poisson arrival rate in req/s")
    observe_common.add_argument("--gpu-workers", type=_COUNT, default=3)
    observe_common.add_argument("--msa-workers", type=_COUNT, default=3)
    observe_common.add_argument("--max-batch", type=_COUNT, default=4)
    observe_common.add_argument("--max-wait", type=_SECONDS, default=120.0)
    observe_common.add_argument("--queue-limit", type=_COUNT, default=512)
    observe_common.add_argument("--timeout", type=_POSITIVE, default=None,
                                help="per-attempt queue timeout (s)")
    observe_common.add_argument("--retries", type=_TALLY, default=2)
    observe_common.add_argument("--backoff", type=_SECONDS, default=30.0)
    observe_common.add_argument("--chaos", action="store_true",
                                help="inject the default chaos fault mix "
                                     "into the observed run")

    observe = sub.add_parser(
        "observe",
        help="re-run a seeded gateway simulation with span recording "
             "and export/inspect its timeline",
    )
    observe_sub = observe.add_subparsers(dest="observe_command",
                                         required=True)

    export_trace = observe_sub.add_parser(
        "export-trace", parents=[observe_common],
        help="Chrome/Perfetto trace-event JSON (open in "
             "https://ui.perfetto.dev or chrome://tracing)",
    )
    export_trace.add_argument("--out", default="-",
                              help="output file ('-' for stdout)")
    export_trace.add_argument("--indent", type=int, default=None,
                              help="pretty-print with this indent "
                                   "(default: compact golden form)")
    export_trace.set_defaults(func=cmd_observe_export_trace)

    export_metrics = observe_sub.add_parser(
        "export-metrics", parents=[observe_common],
        help="Prometheus text exposition of the run's summary",
    )
    export_metrics.add_argument("--out", default="-",
                                help="output file ('-' for stdout)")
    export_metrics.set_defaults(func=cmd_observe_export_metrics)

    explain_p = observe_sub.add_parser(
        "explain", parents=[observe_common],
        help="reconstruct and print one request's span tree",
    )
    explain_p.add_argument("request_id", type=int)
    explain_p.set_defaults(func=cmd_observe_explain)

    scale = sub.add_parser(
        "scale",
        help="thread-scaling curves: simulated (Figs. 4/6) and/or "
             "measured on this machine's real hot paths",
    )
    scale.add_argument("--measured", action="store_true",
                       help="also measure real wall-clock scaling of "
                            "the sharded scan and Pairformer block")
    scale.add_argument("--measured-only", action="store_true",
                       help="skip the simulated curves")
    scale.add_argument("--workers", nargs="*", type=_COUNT,
                       default=[1, 2, 4, 7],
                       help="worker counts for the measured curves")
    scale.add_argument("--out", default=None,
                       help="directory to write curve files into "
                            "(default: print to stdout)")
    scale.set_defaults(func=cmd_scale)

    export_scan = observe_sub.add_parser(
        "export-scan-trace",
        help="Chrome/Perfetto trace of a real parallel MSA database "
             "scan (measured worker tracks, not simulated)",
    )
    export_scan.add_argument("--sample", default="2PV7")
    export_scan.add_argument("--json", help="AF3 JSON input file")
    export_scan.add_argument("--workers", type=_COUNT, default=4)
    export_scan.add_argument("--backend", default="process",
                             choices=["process", "thread", "serial"])
    export_scan.add_argument("--num-background", type=_TALLY, default=40,
                             help="synthetic database background size")
    export_scan.add_argument("--out", default="-",
                             help="output file ('-' for stdout)")
    export_scan.add_argument("--indent", type=_TALLY, default=None)
    export_scan.set_defaults(func=cmd_observe_export_scan_trace)

    samples = sub.add_parser("samples", help="list builtin inputs")
    samples.set_defaults(func=cmd_samples)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
