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
import dataclasses
import functools
import json
import math
import pathlib
import sys
from collections import OrderedDict
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


def _at_least(cast, low, strict: bool = False, most=None):
    """An argparse ``type=`` that parses with ``cast`` and rejects
    values that are not finite, below ``low`` (or equal to it when
    ``strict``) or above ``most``, so a bad flag exits 2 with a
    one-line usage error instead of a traceback."""

    def parse(text: str):
        value = cast(text)
        in_range = (value > low if strict else value >= low) and (
            most is None or value <= most
        )
        if not (in_range and (cast is int or math.isfinite(value))):
            bound = f"{'>' if strict else '>='} {low}"
            if most is not None:
                bound += f" and <= {most}"
            raise argparse.ArgumentTypeError(
                f"must be a finite number {bound}, got {text}"
            )
        return value

    parse.__name__ = cast.__name__
    return parse


_COUNT = _at_least(int, 1)                  # workers, requests, batches
_TALLY = _at_least(int, 0)                  # retries and fault counts
_CHAINS = _at_least(int, 2)                 # a PPI screen pairs chains
_INDENT = _at_least(int, 0, most=16)        # JSON pretty-print width
_POSITIVE = _at_least(float, 0, strict=True)   # rates and timeouts
_SECONDS = _at_least(float, 0)              # waits and backoffs


def _mebibytes(text: str) -> float:
    """A size in MiB that is a finite whole number of bytes >= 1."""
    value = float(text)
    if not (math.isfinite(value * 1024 * 1024) and value * 1024 * 1024 >= 1):
        raise argparse.ArgumentTypeError(
            f"must be a finite size of at least one byte, got {text}"
        )
    return value


_mebibytes.__name__ = "float"   # argparse's "invalid float value"


def _store_dir(text: str) -> str:
    """A ``--store-dir`` whose nearest existing ancestor (the path
    itself included) is a directory the store can live under."""
    path = pathlib.Path(text)
    for ancestor in (path, *path.parents):
        if ancestor.exists():
            if not ancestor.is_dir():
                raise argparse.ArgumentTypeError(
                    f"{ancestor} exists and is not a directory"
                )
            break
    return text


def _fault_kinds(text: str):
    """``--kinds`` CSV -> tuple of fault-kind values (None if empty)."""
    from .faults.audit import validate_fault_mix

    kinds = tuple(k.strip() for k in text.split(",") if k.strip())
    try:
        validate_fault_mix(kinds)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return kinds or None


def _bucket_edges(text: str):
    """``--buckets`` CSV -> sorted edge tuple."""
    from .buckets import parse_bucket_spec

    try:
        return parse_bucket_spec(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _bucket_spec(text: str):
    """``serve-sim --buckets``: ``fixed``, ``adaptive`` or CSV edges."""
    return text if text in ("fixed", "adaptive") else _bucket_edges(text)


def _builtin_sample(name: str) -> InputSample:
    """A builtin sample, by case-insensitive name."""
    samples = builtin_samples()
    for key, sample in samples.items():
        if key.lower() == name.lower():
            return sample
    raise argparse.ArgumentTypeError(
        f"unknown sample {name!r}; available: {', '.join(samples)}"
    )


def _json_sample(path: str) -> InputSample:
    """The sample an AF3 JSON input file describes."""
    try:
        assembly = load_json(path)
    except (OSError, ValueError) as exc:
        raise argparse.ArgumentTypeError(f"{path}: {exc}") from None
    return InputSample(
        name=assembly.name,
        assembly=assembly,
        complexity=classify_complexity(
            assembly.total_residues, assembly.chain_count,
            mixed=len({c.molecule_type for c in assembly}) > 1,
        ),
        target_characteristic="user-supplied input",
    )


def _with_flags(base, args: argparse.Namespace):
    """``base`` with each field whose flag the user passed set to it.

    A config flag's argparse ``dest`` is the dataclass field it sets,
    and its default is ``None``: "keep the base config's value".  So
    every default lives once, on its config, and every flag lands.
    """
    return dataclasses.replace(base, **{
        field.name: getattr(args, field.name)
        for field in dataclasses.fields(base)
        if getattr(args, field.name, None) is not None
    })


def _gateway_config(args: argparse.Namespace, base, stream=()):
    """The GatewayConfig a serving command runs: ``base`` under its
    flags (``stream`` is what ``--buckets adaptive`` fits to)."""
    config = _with_flags(base, args)
    if getattr(args, "bucket_spec", None) is not None:
        config = dataclasses.replace(config, buckets=_resolve_buckets(
            args.bucket_spec, [r.num_tokens for r in stream]
        ))
    return config


def _chaos_config(args: argparse.Namespace, gateway_base):
    """The serving campaign the flags describe, on ``gateway_base``."""
    from .serving.chaos import ChaosConfig

    return _with_flags(
        ChaosConfig(gateway=_gateway_config(args, gateway_base)), args
    )


#: The CLI's synthetic-database sizing, small enough for a shell; a
#: command's ``--seed`` (and ``--num-background``) land on it.
CLI_MSA = MsaEngineConfig(num_background=40, homologs_per_query=6)


@functools.lru_cache(maxsize=8)
def _small_engine(
    seed: int = 0, plan: Optional[ExecutionPlan] = None
) -> MsaEngine:
    # Cached so repeated CLI invocations in one process (tests, the
    # REPL) reuse each sample's functional search results; engines are
    # keyed by (seed, plan) and MsaEngine itself caches per sample.
    return MsaEngine(dataclasses.replace(CLI_MSA, seed=seed), plan=plan)


def _plan(args: argparse.Namespace) -> ExecutionPlan:
    """The ExecutionPlan of ``--workers`` and ``--backend`` (a flag left
    at None keeps the plan's default)."""
    return ExecutionPlan(**{
        name: getattr(args, name) for name in ("workers", "backend")
        if getattr(args, name, None) is not None
    })


def cmd_run(args: argparse.Namespace) -> int:
    sample = args.json or args.sample
    platform = get_platform(args.platform)
    plan = _plan(args)
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
        platforms=[get_platform(p) for p in args.platforms or ()],
        msa_config=_with_flags(CLI_MSA, args),
    )
    results = runner.run_sweep(
        sample_names=[s.name for s in args.samples or ()],
        thread_counts=args.threads,
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

    sample = args.json or args.sample
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
    if not args.store_dir:
        return None
    from .store import FeatureStore

    if args.store_budget_mb is None:
        return FeatureStore(args.store_dir)
    return FeatureStore(
        args.store_dir,
        byte_budget=int(args.store_budget_mb * 1024 * 1024),
    )


def _resolve_buckets(spec, lengths):
    """Turn a parsed ``--buckets`` value into an edge tuple.

    ``fixed`` keeps the AF3 flag default, ``adaptive`` fits edges to
    the stream about to be served (the online analogue of ``repro
    buckets fit``); CSV edges arrive already parsed.
    """
    from .buckets import fit_buckets
    from .core.server import DEFAULT_BUCKETS

    if spec == "fixed":
        return DEFAULT_BUCKETS
    if spec == "adaptive":
        return fit_buckets(list(lengths), max_buckets=len(DEFAULT_BUCKETS))
    return spec


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
    config = _gateway_config(args, GatewayConfig(), stream)
    largest = max(r.num_tokens for r in stream)
    if args.bucket_spec is not None and largest > config.buckets[-1]:
        args.parser.error(
            f"argument --buckets: largest bucket {config.buckets[-1]} is "
            f"below the largest request ({largest} tokens)"
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
    from .store import precompute_msas

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
    report = precompute_msas(samples, _open_store(args), plan=_plan(args))
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


def _campaign_run(args: argparse.Namespace, resume: bool) -> int:
    from .campaign import CampaignConfig, CampaignKilled, run_campaign

    plan = _plan(args)
    kwargs = {}
    if not resume:
        kwargs["targets"] = _campaign_targets(args)
        kwargs["config"] = _with_flags(CampaignConfig(), args)
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
    """A directory that is not a campaign (or not this schema's) and a
    bad manifest are operator errors: print the one-line message and
    exit 2."""

    @functools.wraps(command)
    def run(args: argparse.Namespace) -> int:
        from .campaign import ManifestError
        from .campaign.state import CampaignStateError

        try:
            return command(args)
        except (CampaignStateError, ManifestError) as exc:
            print(exc, file=sys.stderr)
            return 2

    return run


@_campaign_errors
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
        print(f"failed {doc['task']}: {doc['error']}")
    total = sum(c["total"] for c in status.values())
    done = sum(c["done"] for c in status.values())
    print(f"{done}/{total} stage outputs done")
    return 0


@_campaign_errors
def cmd_campaign_differential(args: argparse.Namespace) -> int:
    from .campaign import CampaignConfig, kill_resume_differential

    result = kill_resume_differential(
        args.dir,
        _campaign_targets(args),
        config=_with_flags(CampaignConfig(), args),
        kill_after=args.kill_after,
        plan=_plan(args),
    )
    print(result.render())
    return 0 if result.passed else 4


def cmd_chaos(args: argparse.Namespace) -> int:
    from .serving.chaos import CHAOS_GATEWAY, run_suite

    seeds = tuple(args.seeds) if args.seeds else (args.seed,)
    results = run_suite(
        seeds, _chaos_config(args, CHAOS_GATEWAY),
        check_determinism=not args.no_determinism_check,
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


def cmd_cluster_sim(args: argparse.Namespace) -> int:
    from .cluster import ClusterChaosConfig, render_pareto_table, pareto_rows
    from .cluster.chaos import run_once

    base = _with_flags(ClusterChaosConfig(), args)
    reports = OrderedDict()
    for policy in args.policies:
        _scheduler, report, _plan = run_once(
            dataclasses.replace(base, policy=policy)
        )
        reports[policy] = report
    if args.format == "json":
        print(json.dumps(OrderedDict(
            seed=base.seed,
            jobs=base.num_jobs,
            migration=base.migration,
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
    from .cluster import ClusterChaosConfig, run_cluster_suite

    seeds = tuple(args.seeds) if args.seeds else (args.seed,)
    results = run_cluster_suite(
        seeds, _with_flags(ClusterChaosConfig(), args),
        check_determinism=not args.no_determinism_check,
    )
    return _print_chaos_suite("cluster-chaos", results, args.format)


def _bucket_fit_lengths(args: argparse.Namespace):
    """Token lengths for ``repro buckets fit``: a seeded mix, the
    paper cohort, or a file (campaign manifest, JSON length array, or
    JSON trace rows with ``num_tokens``/``tokens``/``length``)."""
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

    Returns ``(config, probe, report)``, ``config`` being the
    :class:`~repro.serving.chaos.ChaosConfig` that describes the run.
    With ``--chaos`` the run is built through the chaos harness (same
    gateway and fault mix as the ``chaos`` subcommand); otherwise it is
    the same stream on a fault-free 3+3-worker gateway.  Either way the
    simulation itself is identical to the un-observed one — the probe
    only listens.
    """
    from .observability import SpanProbe
    from .serving import GatewayConfig, ServingGateway
    from .serving.chaos import CHAOS_GATEWAY, build_campaign, campaign_stream

    probe = SpanProbe()
    if args.chaos:
        config = _chaos_config(args, CHAOS_GATEWAY)
        gateway, stream, _plan = build_campaign(config, probe=probe)
    else:
        config = _chaos_config(
            args, GatewayConfig(num_gpu_workers=3, num_msa_workers=3)
        )
        stream = campaign_stream(config)
        gateway = ServingGateway(
            get_platform(config.platform), config.gateway, probe=probe
        )
    return config, probe, gateway.run(stream)


def _write_out(text: str, out: Optional[str]) -> None:
    if out and out != "-":
        with open(out, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def cmd_observe_export_trace(args: argparse.Namespace) -> int:
    from .observability import chrome_trace_json

    config, probe, _report = _observed_run(args)
    metadata = {
        "seed": config.seed,
        "platform": config.platform,
        "requests": config.num_requests,
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

    _config, _probe, report = _observed_run(args)
    _write_out(prometheus_metrics(report.summary(), SERVING_METRICS),
               args.out)
    return 0


def cmd_observe_explain(args: argparse.Namespace) -> int:
    from .observability import explain

    config, probe, _report = _observed_run(args)
    try:
        print(explain(probe.recorder, args.request_id))
    except KeyError:
        print(
            f"no spans recorded for request {args.request_id} "
            f"(stream had --requests {config.num_requests})",
            file=sys.stderr,
        )
        return 2
    return 0


def cmd_scale(args: argparse.Namespace) -> int:
    """Thread/worker scaling curves: simulated, measured, or both."""
    texts = {}
    if not args.measured_only:
        from .experiments import fig4_msa_threads, fig6_inference_threads

        runner = BenchmarkRunner(msa_config=_with_flags(CLI_MSA, args))
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
        out_dir.mkdir(parents=True, exist_ok=True)
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

    sample = args.json or args.sample
    engine = MsaEngine(
        _with_flags(CLI_MSA, args),
        plan=_plan(args),
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


def _parent(*parents: argparse.ArgumentParser) -> argparse.ArgumentParser:
    """A flag group several subcommands share through ``parents=``, so
    each flag is declared once and every subcommand gets that action."""
    return argparse.ArgumentParser(add_help=False, parents=list(parents))


def build_parser() -> argparse.ArgumentParser:
    from .cluster.autoscaler import POLICIES
    from .store import DEFAULT_BYTE_BUDGET

    parser = argparse.ArgumentParser(
        prog="afsysbench",
        description="AF3 workload characterization benchmark suite "
                    "(simulated platforms)",
    )
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for the synthetic databases")
    sub = parser.add_subparsers(dest="command", required=True)

    # -- flags shared by several subcommands, each declared once --------
    text_or_json = _parent()
    text_or_json.add_argument("--format", choices=["text", "json"],
                              default="text")
    platform = _parent()
    platform.add_argument("--platform", default="Server",
                          choices=sorted(PLATFORMS), help="platform preset")
    config_platform = _parent()     # None: keep the config's platform
    config_platform.add_argument("--platform", choices=sorted(PLATFORMS),
                                 help="platform preset")
    threads = _parent()
    threads.add_argument("--threads", type=_COUNT, default=8)
    attention = _parent()
    attention.add_argument("--attention", choices=ATTENTION_SCHEDULES,
                           default="chunked",
                           help="inference attention schedule: chunked "
                                "(production default), resident (full "
                                "O(N^3) logits, strict admission), or tiled "
                                "(blocked by the memory planner; see "
                                "docs/memory_planner.md)")
    json_input = _parent()
    json_input.add_argument("--json", type=_json_sample,
                            help="AF3 JSON input file instead of --sample")
    sample = _parent(json_input)
    sample.add_argument("--sample", type=_builtin_sample, default="2PV7")
    workers = _parent()             # None keeps the ExecutionPlan default
    workers.add_argument("--workers", type=_COUNT,
                         help="real worker processes (default 1; results "
                              "are byte-identical for any count)")
    sharded = _parent(workers)
    sharded.add_argument("--backend",
                         choices=["auto", "serial", "thread", "process"])
    store_budget = _parent()
    store_budget.add_argument(
        "--store-budget-mb", type=_mebibytes,
        help=f"feature-store LRU byte budget in MiB (default "
             f"{DEFAULT_BYTE_BUDGET // (1024 * 1024)})",
    )
    store = _parent(store_budget)
    store.add_argument("--store-dir", type=_store_dir,
                       help="enable the disk feature store at this path")
    chains = _parent()
    chains.add_argument("--chains", type=_CHAINS, default=100,
                        help="ppi-screen: size of the chain library")
    compile_cache = _parent()
    compile_cache.add_argument("--compile-cache", choices=["none", "shared"],
                               help="XLA executable cache: 'shared' lets "
                                    "every GPU worker or fleet node reuse "
                                    "the first compile per bucket x "
                                    "platform")
    gateway_workers = _parent()
    gateway_workers.add_argument("--gpu-workers", dest="num_gpu_workers",
                                 type=_COUNT)
    gateway_workers.add_argument("--msa-workers", dest="num_msa_workers",
                                 type=_COUNT)
    gateway_workers.add_argument("--timeout", dest="timeout_seconds",
                                 type=_POSITIVE,
                                 help="per-attempt queue timeout (s)")
    gateway_workers.add_argument("--retries", dest="max_retries",
                                 type=_TALLY,
                                 help="max retries after a timeout")
    arrivals = _parent()            # ChaosConfig.arrival_rps
    arrivals.add_argument("--rate", dest="arrival_rps", type=_POSITIVE,
                          help="Poisson arrival rate in requests/second")
    batching = _parent()
    batching.add_argument("--max-batch", type=_COUNT,
                          help="dynamic batching: max same-bucket batch size")
    batching.add_argument("--max-wait", dest="max_wait_seconds",
                          type=_SECONDS,
                          help="dynamic batching: max coalescing wait (s)")
    batching.add_argument("--queue-limit", type=_COUNT,
                          help="admission control: shed past this queue "
                               "depth")
    batching.add_argument("--backoff", dest="retry_backoff_seconds",
                          type=_SECONDS,
                          help="base retry backoff (s), doubled per attempt")
    faults = _parent()
    faults.add_argument("--crashes", type=_TALLY,
                        help="worker or node crashes to schedule")
    faults.add_argument("--preemptions", type=_TALLY,
                        help="zero-warning spot reclaims")
    faults.add_argument("--preemption-notices", type=_TALLY,
                        help="spot reclaim warnings (notice lead, then "
                             "outage) to schedule")
    faults.add_argument("--slow-nodes", type=_TALLY)
    suite = _parent()
    suite.add_argument("--kinds", type=_fault_kinds,
                       help="comma-separated fault kinds to keep (e.g. "
                            "worker_crash,db_read_stall); the seeded plan "
                            "is generated in full and then filtered, "
                            "isolating one kind for debugging")
    suite.add_argument("--seeds", nargs="*", type=int,
                       help="run one campaign per seed (default: the "
                            "global --seed)")
    suite.add_argument("--no-determinism-check", action="store_true",
                       help="skip the byte-identical rerun of each "
                            "campaign")
    export_out = _parent()
    export_out.add_argument("--out", default="-",
                            help="output file ('-' for stdout)")
    export = _parent(export_out)
    export.add_argument("--indent", type=_INDENT,
                        help="pretty-print with this indent (default: "
                             "compact golden form)")

    run = sub.add_parser(
        "run", parents=[sample, platform, threads, workers, attention,
                        text_or_json],
        help="simulate one end-to-end AF3 run",
    )
    run.add_argument("--memory-budget-mb", type=_mebibytes,
                     help="schedulable-workspace budget (MiB) for the "
                          "tiled planner; default plans against the "
                          "platform's device memory")
    run.set_defaults(func=cmd_run)

    sweep = sub.add_parser("sweep", parents=[text_or_json],
                           help="samples x platforms x threads")
    sweep.add_argument("--samples", nargs="*", type=_builtin_sample)
    sweep.add_argument("--platforms", nargs="*", choices=sorted(PLATFORMS))
    sweep.add_argument("--threads", nargs="*", type=_COUNT)
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
        "estimate", parents=[json_input, threads, attention],
        help="static memory pre-check for an input (Section VI)",
    )
    estimate.add_argument("--sample", type=_builtin_sample, default="6QNR")
    estimate.add_argument("--attention-block", type=_COUNT, default=None,
                          help="tile block for --attention tiled (and "
                               "only for it)")
    estimate.set_defaults(func=cmd_estimate, parser=estimate)

    serve = sub.add_parser(
        "serve-sim",
        parents=[platform, gateway_workers, batching, text_or_json, chains,
                 store, compile_cache],
        help="simulate the multi-worker serving gateway on a seeded "
             "request stream (Section VI at scale)",
    )
    serve.add_argument("--requests", type=_COUNT, default=200,
                       help="number of requests in the stream")
    serve.add_argument("--rate", type=_POSITIVE, default=0.02,
                       help="Poisson arrival rate in requests/second")
    serve.add_argument("--no-baseline", action="store_true",
                       help="skip the sequential warm-server comparison")
    serve.add_argument("--scenario", choices=["default", "ppi-screen"],
                       default="default",
                       help="request mix: builtin samples, or the seeded "
                            "all-vs-all PPI screening workload")
    serve.add_argument("--precompute", action="store_true",
                       help="bulk-fill the store from the stream's chains "
                            "before serving (requires --store-dir)")
    serve.add_argument("--buckets", dest="bucket_spec", metavar="SPEC",
                       type=_bucket_spec,
                       help="shape buckets: 'fixed' (AF3 flag default), "
                            "'adaptive' (fit to this stream), or CSV "
                            "edges like 256,512,1024 (docs/bucketing.md)")
    serve.set_defaults(func=cmd_serve_sim, parser=serve)

    precompute = sub.add_parser(
        "msa-precompute", parents=[store_budget, chains, sharded,
                                   text_or_json],
        help="bulk-fill a disk feature store with per-chain MSA "
             "features before an inference wave (checkpointed: "
             "already-stored chains are skipped on restart)",
    )
    precompute.add_argument("--store-dir", type=_store_dir, required=True,
                            help="feature-store directory to fill")
    precompute.add_argument("--scenario",
                            choices=["default", "ppi-screen"],
                            default="ppi-screen")
    precompute.set_defaults(func=cmd_msa_precompute)

    chaos = sub.add_parser(
        "chaos",
        parents=[config_platform, arrivals, gateway_workers, faults, suite,
                 text_or_json],
        help="run a seeded fault-injection campaign against the "
             "serving gateway and check its invariants",
    )
    chaos.add_argument("--requests", dest="num_requests", type=_COUNT,
                       help="requests per campaign (default 120; pass 40 "
                            "for a quick run)")
    chaos.add_argument("--oom-spikes", type=_TALLY)
    chaos.add_argument("--db-stalls", type=_TALLY)
    chaos.add_argument("--db-corruptions", type=_TALLY)
    chaos.add_argument("--restart", dest="restart_seconds", type=_POSITIVE,
                       help="crashed-worker restart delay (s)")
    chaos.add_argument("--breaker-threshold",
                       dest="breaker_failure_threshold", type=_TALLY,
                       help="consecutive failures that eject a worker "
                            "(0 disables the circuit breaker)")
    chaos.add_argument("--breaker-cooldown",
                       dest="breaker_cooldown_seconds", type=_SECONDS)
    chaos.add_argument("--no-degraded-fallback", dest="degraded_fallback",
                       action="store_false", default=None,
                       help="time out exhausted requests instead of "
                            "serving reduced-depth results")
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

    campaign_dir = _parent()
    campaign_dir.add_argument("--dir", required=True,
                              help="campaign state directory")
    campaign_exec = _parent(campaign_dir, sharded, text_or_json)

    # CampaignConfig fields: None keeps the dataclass default.
    campaign_cohort = _parent(config_platform, store)
    campaign_cohort.add_argument("--manifest", default=None,
                                 help="CSV/JSON target manifest "
                                      "(see docs/campaign.md)")
    campaign_cohort.add_argument("--targets", type=_COUNT, default=12,
                                 help="seeded cohort size when no "
                                      "--manifest is given")
    campaign_cohort.add_argument("--threads", type=_COUNT)
    campaign_cohort.add_argument("--max-tokens", type=_TALLY,
                                 help="admission limit; targets over it "
                                      "fail preprocess (0 disables)")
    campaign_cohort.add_argument("--attention",
                                 choices=ATTENTION_SCHEDULES,
                                 help="inference attention schedule for "
                                      "the whole cohort (tiled = memory-"
                                      "planner admission; persisted with "
                                      "the campaign)")
    campaign_cohort.add_argument("--buckets", type=_bucket_edges,
                                 metavar="CSV",
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
        "report", parents=[campaign_dir, export_out],
        help="aggregate the cohort report from a campaign directory",
    )
    campaign_report.add_argument("--format",
                                 choices=["markdown", "json",
                                          "prometheus"],
                                 default="markdown")
    campaign_report.add_argument("--trace", default=None,
                                 help="also write the simulated campaign "
                                      "timeline as a Chrome/Perfetto "
                                      "trace to this path")
    campaign_report.set_defaults(func=cmd_campaign_report)

    campaign_status = campaign_sub.add_parser(
        "status", parents=[campaign_dir],
        help="per-stage done/failed/blocked/pending counts (read-only, "
             "safe against a live campaign)",
    )
    campaign_status.set_defaults(func=cmd_campaign_status)

    campaign_diff = campaign_sub.add_parser(
        "differential", parents=[campaign_exec, campaign_cohort],
        help="kill/resume audit: interrupted+resumed campaign must "
             "recompute 0 stages and match the clean report byte for "
             "byte",
    )
    campaign_diff.add_argument("--kill-after", type=_COUNT, default=5)
    campaign_diff.set_defaults(func=cmd_campaign_differential)

    cluster_common = _parent(faults, text_or_json, compile_cache)
    cluster_common.add_argument("--jobs", dest="num_jobs", type=_COUNT,
                                help="jobs in the seeded PPI stream")
    cluster_common.add_argument("--chains", dest="num_chains",
                                type=_CHAINS,
                                help="size of the shared chain library")
    cluster_common.add_argument("--rate", dest="arrival_rate_per_hour",
                                type=_POSITIVE,
                                help="Poisson arrival rate in jobs/hour")
    cluster_common.add_argument("--max-attempts", type=_COUNT,
                                help="node assignments before a job fails")
    cluster_common.add_argument("--no-migration", dest="migration",
                                action="store_false", default=None,
                                help="disable drain-time checkpoint/"
                                     "publish (lose work like a crash); "
                                     "use to measure what migration saves")
    cluster_common.add_argument("--store-corruptions", type=_TALLY,
                                help="feature-store entries to rot")

    cluster_sim = sub.add_parser(
        "cluster-sim", parents=[cluster_common],
        help="simulate the fault-tolerant cluster scheduler over a "
             "heterogeneous fleet; with several --policies, emit the "
             "cost/throughput/p99 Pareto table",
    )
    cluster_sim.add_argument(
        "--policies", nargs="*", choices=list(POLICIES),
        default=["fixed", "queue-depth", "cost-aware"],
        help="autoscaling policies to sweep",
    )
    cluster_sim.set_defaults(func=cmd_cluster_sim)

    cluster_chaos = sub.add_parser(
        "cluster-chaos", parents=[cluster_common, suite],
        help="run seeded fault campaigns against the cluster scheduler "
             "and audit no-job-lost / balanced-accounting / "
             "no-double-execution / determinism invariants",
    )
    cluster_chaos.add_argument("--policy", choices=list(POLICIES),
                               help="autoscaling policy under test")
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
        "fit", parents=[text_or_json],
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
    buckets_fit.set_defaults(func=cmd_buckets_fit)

    observe_common = _parent(config_platform, arrivals, gateway_workers,
                             batching)
    observe_common.add_argument("--requests", dest="num_requests",
                                type=_COUNT, default=40,
                                help="number of requests in the stream")
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
        "export-trace", parents=[observe_common, export],
        help="Chrome/Perfetto trace-event JSON (open in "
             "https://ui.perfetto.dev or chrome://tracing)",
    )
    export_trace.set_defaults(func=cmd_observe_export_trace)

    export_metrics = observe_sub.add_parser(
        "export-metrics", parents=[observe_common, export_out],
        help="Prometheus text exposition of the run's summary",
    )
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
        "export-scan-trace", parents=[sample, export],
        help="Chrome/Perfetto trace of a real parallel MSA database "
             "scan (measured worker tracks, not simulated)",
    )
    export_scan.add_argument("--workers", type=_COUNT, default=4)
    export_scan.add_argument("--backend", default="process",
                             choices=["process", "thread", "serial"])
    export_scan.add_argument("--num-background", type=_TALLY,
                             help="synthetic database background size "
                                  f"(default {CLI_MSA.num_background})")
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
