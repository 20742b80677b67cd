"""CLI tests (fast paths; sweep covered by a tiny invocation)."""

import argparse
import dataclasses
import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.sample.name == "2PV7"   # resolved at parse time
        assert args.platform == "Server"
        assert args.threads == 8

    def test_unknown_platform_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--platform", "Laptop"])


class TestCommands:
    def test_samples_lists_all(self, capsys):
        assert main(["samples"]) == 0
        out = capsys.readouterr().out
        for name in ("2PV7", "7RCE", "1YY9", "promo", "6QNR"):
            assert name in out

    def test_artifact_table1(self, capsys):
        assert main(["artifact", "table1"]) == 0
        assert "Xeon" in capsys.readouterr().out

    def test_artifact_unknown(self, capsys):
        assert main(["artifact", "table99"]) == 2

    def test_run_json_output(self, capsys):
        code = main([
            "run", "--sample", "7RCE", "--platform", "Desktop",
            "--threads", "2", "--format", "json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["sample"] == "7RCE"
        assert payload["msa_seconds"] > 0
        assert 0 < payload["msa_fraction"] < 1

    def test_run_oom_exit_code(self, capsys):
        # 6QNR on the stock Desktop dies like the real thing.
        code = main([
            "run", "--sample", "6QNR", "--platform", "Desktop",
            "--threads", "4",
        ])
        assert code == 2
        assert "OOM" in capsys.readouterr().err

    def test_run_unknown_sample(self):
        with pytest.raises(SystemExit):
            main(["run", "--sample", "NOPE"])

    def test_estimate_6qnr(self, capsys):
        assert main(["estimate", "--sample", "6QNR"]) == 0
        out = capsys.readouterr().out
        assert "97.5" in out
        assert "unified memory" in out

    def test_run_with_json_input(self, tmp_path, capsys):
        doc = {
            "name": "cli_test",
            "sequences": [
                {"protein": {"id": "A", "sequence": "MKTAYIAK" * 10}}
            ],
        }
        path = tmp_path / "input.json"
        path.write_text(json.dumps(doc))
        code = main([
            "run", "--json", str(path), "--platform", "Desktop",
            "--threads", "2", "--format", "json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["sample"] == "cli_test"

    def test_sweep_json(self, capsys):
        code = main([
            "sweep", "--samples", "7RCE", "--threads", "1", "4",
            "--format", "json",
        ])
        assert code == 0
        records = json.loads(capsys.readouterr().out)
        assert len(records) == 4  # 1 sample x 2 platforms x 2 threads


class TestClusterCommands:
    def test_cluster_sim_json_emits_pareto_rows(self, capsys):
        code = main([
            "cluster-sim", "--jobs", "20",
            "--policies", "fixed", "cost-aware", "--format", "json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert [r["policy"] for r in payload["pareto"]] == [
            "fixed", "cost-aware"
        ]
        for summary in payload["policies"].values():
            assert summary["completed"] + summary["failed"] == 20
            assert summary["migrated_recomputed_chains"] == 0
            assert summary["double_billed_shards"] == 0

    def test_cluster_sim_text_renders_pareto_table(self, capsys):
        assert main(["cluster-sim", "--jobs", "20"]) == 0
        out = capsys.readouterr().out
        for name in ("fixed", "queue-depth", "cost-aware"):
            assert name in out
        assert "p99 h" in out   # the Pareto table header

    def test_cluster_chaos_passes_and_exits_zero(self, capsys):
        code = main([
            "cluster-chaos", "--jobs", "30", "--seeds", "0",
            "--no-determinism-check",
        ])
        assert code == 0
        assert "invariants PASS" in capsys.readouterr().out

    def test_cluster_chaos_kinds_filter(self, capsys):
        code = main([
            "cluster-chaos", "--jobs", "20", "--seeds", "0",
            "--kinds", "preemption_notice", "--no-determinism-check",
        ])
        assert code == 0
        assert "1 kinds" in capsys.readouterr().out


class TestBucketCommands:
    def test_buckets_fit_text_renders_table_and_hint(self, capsys):
        code = main([
            "buckets", "fit", "--source", "realistic",
            "--requests", "400",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Bucketing comparison" in out
        assert "fitted buckets" in out
        assert "repro serve-sim --buckets" in out

    def test_buckets_fit_json_is_parseable_and_reduces_waste(self, capsys):
        code = main([
            "buckets", "fit", "--source", "realistic",
            "--requests", "400", "--format", "json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["fitted"] == sorted(set(payload["fitted"]))
        schemes = payload["comparison"]["schemes"]
        assert (
            schemes["adaptive"]["waste_reduction_vs_baseline_pct"] >= 25.0
        )

    def test_buckets_fit_cohort_source(self, capsys):
        code = main([
            "buckets", "fit", "--source", "cohort",
            "--max-buckets", "4", "--format", "json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        # Five builtin samples, four buckets: every edge is an
        # observed cohort length.
        assert payload["fitted"] == [306, 484, 881, 1395]

    def test_buckets_fit_rejects_unknown_source(self, capsys):
        assert main(["buckets", "fit", "--source", "nope.xyz"]) == 2
        assert "source" in capsys.readouterr().err

    def test_serve_sim_adaptive_shared_emits_sections(self, capsys):
        code = main([
            "serve-sim", "--requests", "30", "--buckets", "adaptive",
            "--compile-cache", "shared", "--no-baseline",
            "--format", "json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["compile_cache"]["misses"] >= 1
        assert payload["bucket_waste"]["requests"] == 30
        # Adaptive edges sit at observed lengths: zero padding waste on
        # the 5-sample builtin mix.
        assert payload["bucket_waste"]["waste_tokens"] == 0

    def test_serve_sim_fixed_none_omits_sections(self, capsys):
        code = main([
            "serve-sim", "--requests", "30", "--buckets", "fixed",
            "--compile-cache", "none", "--no-baseline",
            "--format", "json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert "compile_cache" not in payload
        assert "bucket_waste" not in payload

    def test_serve_sim_csv_buckets(self, capsys):
        code = main([
            "serve-sim", "--requests", "20",
            "--buckets", "512,1024,1536,2048", "--no-baseline",
            "--format", "json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["bucket_waste"]["buckets"] == [
            512, 1024, 1536, 2048
        ]


class _Built(Exception):
    """Stops a command once it has built the config under test."""


#: Every command that builds a gateway, as the argv that runs it small.
_GATEWAY_COMMANDS = {
    "serve-sim": ["serve-sim", "--requests", "4", "--no-baseline"],
    "observe": ["observe", "export-metrics", "--requests", "4"],
    "observe-chaos": ["observe", "export-metrics", "--requests", "4",
                      "--chaos"],
    "chaos": ["chaos", "--requests", "4", "--no-determinism-check"],
}
_CLUSTER_COMMANDS = {
    "cluster-sim": ["cluster-sim", "--policies", "fixed"],
    "cluster-chaos": ["cluster-chaos", "--no-determinism-check"],
}


def _flag_cases(commands, names, flags):
    """One case per (command, flag): ``(argv, flag, value, field,
    expected)``, where a ``None`` value is a switch."""
    return [
        pytest.param(commands[name], *flag, id=f"{name}{flag[0]}")
        for name in names for flag in flags
    ]


#: (flag, value, GatewayConfig field, parsed value).
_WORKER_FLAGS = [
    ("--gpu-workers", "5", "num_gpu_workers", 5),
    ("--msa-workers", "6", "num_msa_workers", 6),
    ("--timeout", "17", "timeout_seconds", 17.0),
    ("--retries", "5", "max_retries", 5),
]
_BATCHING_FLAGS = [
    ("--max-batch", "7", "max_batch", 7),
    ("--max-wait", "11", "max_wait_seconds", 11.0),
    ("--queue-limit", "13", "queue_limit", 13),
    ("--backoff", "19", "retry_backoff_seconds", 19.0),
]
_SERVE_FLAGS = [
    ("--compile-cache", "shared", "compile_cache", "shared"),
    ("--buckets", "256,5120", "buckets", (256, 5120)),
]
_RECOVERY_FLAGS = [
    ("--restart", "23", "restart_seconds", 23.0),
    ("--breaker-threshold", "4", "breaker_failure_threshold", 4),
    ("--breaker-cooldown", "29", "breaker_cooldown_seconds", 29.0),
    ("--no-degraded-fallback", None, "degraded_fallback", False),
]


@pytest.mark.parametrize("argv,flag,value,field,expected", [
    *_flag_cases(_GATEWAY_COMMANDS, _GATEWAY_COMMANDS, _WORKER_FLAGS),
    *_flag_cases(_GATEWAY_COMMANDS, ["serve-sim", "observe",
                                     "observe-chaos"], _BATCHING_FLAGS),
    *_flag_cases(_GATEWAY_COMMANDS, ["serve-sim"], _SERVE_FLAGS),
    *_flag_cases(_GATEWAY_COMMANDS, ["chaos"], _RECOVERY_FLAGS),
])
def test_gateway_flag_reaches_the_gateway(
    monkeypatch, argv, flag, value, field, expected
):
    """A non-default gateway flag lands in the GatewayConfig the
    command builds, on every command that takes it."""
    from repro.serving import ServingGateway

    def capture(self, platform, config=None, *args, **kwargs):
        raise _Built(config)

    monkeypatch.setattr(ServingGateway, "__init__", capture)
    with pytest.raises(_Built) as built:
        main([*argv, flag] + ([value] if value is not None else []))
    assert getattr(built.value.args[0], field) == expected


#: (flag, value, ChaosConfig field, parsed value).
_STREAM_FLAGS = [
    ("--platform", "Desktop", "platform", "Desktop"),
    ("--requests", "9", "num_requests", 9),
    ("--rate", "0.5", "arrival_rps", 0.5),
]
_FAULT_FLAGS = [
    ("--crashes", "1", "crashes", 1),
    ("--preemptions", "1", "preemptions", 1),
    ("--oom-spikes", "1", "oom_spikes", 1),
    ("--db-stalls", "1", "db_stalls", 1),
    ("--db-corruptions", "1", "db_corruptions", 1),
    ("--slow-nodes", "1", "slow_nodes", 1),
    ("--preemption-notices", "1", "preemption_notices", 1),
    ("--kinds", "worker_crash", "kinds", ("worker_crash",)),
]


@pytest.mark.parametrize("argv,flag,value,field,expected", [
    *_flag_cases(_GATEWAY_COMMANDS, ["observe-chaos", "chaos"],
                 _STREAM_FLAGS),
    *_flag_cases(_GATEWAY_COMMANDS, ["chaos"], _FAULT_FLAGS),
])
def test_chaos_flag_reaches_the_campaign_config(
    monkeypatch, argv, flag, value, field, expected
):
    """A non-default campaign flag lands in the ChaosConfig the
    command runs."""
    import repro.serving.chaos

    def capture(config, probe=None):
        raise _Built(config)

    monkeypatch.setattr(repro.serving.chaos, "build_campaign", capture)
    with pytest.raises(_Built) as built:
        main([*argv, flag] + ([value] if value is not None else []))
    assert getattr(built.value.args[0], field) == expected


#: (flag, value, ClusterChaosConfig field, parsed value).
_CLUSTER_FLAGS = [
    ("--jobs", "7", "num_jobs", 7),
    ("--chains", "9", "num_chains", 9),
    ("--rate", "33", "arrival_rate_per_hour", 33.0),
    ("--max-attempts", "3", "max_attempts", 3),
    ("--no-migration", None, "migration", False),
    ("--preemption-notices", "4", "preemption_notices", 4),
    ("--crashes", "5", "crashes", 5),
    ("--preemptions", "6", "preemptions", 6),
    ("--slow-nodes", "7", "slow_nodes", 7),
    ("--store-corruptions", "8", "store_corruptions", 8),
    ("--compile-cache", "shared", "compile_cache", "shared"),
]
_CLUSTER_CHAOS_FLAGS = [
    ("--policy", "cost-aware", "policy", "cost-aware"),
    ("--kinds", "worker_crash", "kinds", ("worker_crash",)),
]


@pytest.mark.parametrize("argv,flag,value,field,expected", [
    *_flag_cases(_CLUSTER_COMMANDS, _CLUSTER_COMMANDS, _CLUSTER_FLAGS),
    *_flag_cases(_CLUSTER_COMMANDS, ["cluster-chaos"],
                 _CLUSTER_CHAOS_FLAGS),
])
def test_cluster_flag_reaches_the_campaign_config(
    monkeypatch, argv, flag, value, field, expected
):
    """A non-default cluster flag lands in the ClusterChaosConfig the
    command runs."""
    import repro.cluster.chaos

    def capture(config):
        raise _Built(config)

    monkeypatch.setattr(repro.cluster.chaos, "build_campaign", capture)
    with pytest.raises(_Built) as built:
        main([*argv, flag] + ([value] if value is not None else []))
    assert getattr(built.value.args[0], field) == expected


_CAMPAIGN_COMMANDS = {
    "campaign-run": ["campaign", "run", "--dir", "unused"],
    "campaign-differential": ["campaign", "differential", "--dir", "unused"],
}
#: (flag, value, CampaignConfig field, parsed value).
_CAMPAIGN_FLAGS = [
    ("--platform", "Desktop", "platform", "Desktop"),
    ("--threads", "3", "threads", 3),
    ("--max-tokens", "900", "max_tokens", 900),
    ("--store-dir", "unused-store", "store_dir", "unused-store"),
    ("--store-budget-mb", "8", "store_budget_mb", 8.0),
    ("--attention", "tiled", "attention", "tiled"),
    ("--buckets", "512,256", "buckets", (256, 512)),
]


@pytest.mark.parametrize("argv,flag,value,field,expected", _flag_cases(
    _CAMPAIGN_COMMANDS, _CAMPAIGN_COMMANDS, _CAMPAIGN_FLAGS
))
def test_campaign_flag_reaches_the_campaign_config(
    monkeypatch, argv, flag, value, field, expected
):
    """A non-default campaign flag lands in the CampaignConfig that
    run_campaign or kill_resume_differential receives."""
    import repro.campaign

    def capture(*args, config=None, **kwargs):
        raise _Built(config)

    monkeypatch.setattr(repro.campaign, "run_campaign", capture)
    monkeypatch.setattr(repro.campaign, "kill_resume_differential", capture)
    with pytest.raises(_Built) as built:
        main([*argv, flag, value])
    assert getattr(built.value.args[0], field) == expected


@pytest.mark.parametrize("flag,values,expected", [
    ("--samples", ["promo", "2pv7"], {"samples": ["promo", "2PV7"]}),
    ("--platforms", ["Desktop"], {"platforms": ["Desktop"]}),
    ("--threads", ["3", "5"], {"threads": [3, 5]}),
], ids=["samples", "platforms", "threads"])
def test_sweep_flag_reaches_the_runner(monkeypatch, flag, values, expected):
    """A sweep flag lands in the runner (platforms) or run_sweep
    (samples, case-insensitive, and thread counts); without it the
    runner's own defaults hold."""
    from repro.core.runner import BenchmarkRunner

    def capture(self, sample_names=None, thread_counts=None):
        raise _Built({
            "samples": sample_names,
            "platforms": [p.name for p in self.platforms],
            "threads": thread_counts,
        })

    monkeypatch.setattr(BenchmarkRunner, "run_sweep", capture)
    with pytest.raises(_Built) as built:
        main(["sweep", flag, *values])
    assert expected.items() <= built.value.args[0].items()
    with pytest.raises(_Built) as built:
        main(["sweep"])
    assert built.value.args[0] == {
        "samples": [], "platforms": ["Server", "Desktop"], "threads": None,
    }


def _leaf_parsers(parser, path=()):
    """``(path, parser)`` for every leaf subcommand under ``parser``."""
    subs = [a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield " ".join(path), parser
    for action in subs:
        for name, child in action.choices.items():
            yield from _leaf_parsers(child, (*path, name))


def test_each_flag_is_declared_once():
    """No two subcommands declare the same flag separately: a flag with
    one spelling, dest, type, default, choices and requiredness is one
    action object, shared through an argparse parent parser."""
    declared = {}
    for _path, leaf in _leaf_parsers(build_parser()):
        for action in leaf._actions:
            if action.option_strings and action.dest != "help":
                key = (tuple(action.option_strings), action.dest,
                       action.type, repr(action.default),
                       repr(action.choices), action.nargs, action.required,
                       type(action))
                declared.setdefault(key, set()).add(id(action))
    repeats = {key[0]: len(ids) for key, ids in declared.items()
               if len(ids) > 1}
    assert repeats == {}


#: Every leaf subcommand's option strings (besides -h/--help).
_LEAF_OPTIONS = {
    "run": "--attention --format --json --memory-budget-mb --platform "
           "--sample --threads --workers",
    "sweep": "--format --platforms --samples --threads",
    "artifact": "--out",
    "estimate": "--attention --attention-block --json --sample --threads",
    "serve-sim": "--backoff --buckets --chains --compile-cache --format "
                 "--gpu-workers --max-batch --max-wait --msa-workers "
                 "--no-baseline --platform --precompute --queue-limit "
                 "--rate --requests --retries --scenario --store-budget-mb "
                 "--store-dir --timeout",
    "msa-precompute": "--backend --chains --format --scenario "
                      "--store-budget-mb --store-dir --workers",
    "chaos": "--breaker-cooldown --breaker-threshold --crashes "
             "--db-corruptions --db-stalls --format --gpu-workers --kinds "
             "--msa-workers --no-degraded-fallback --no-determinism-check "
             "--oom-spikes --platform --preemption-notices --preemptions "
             "--rate --requests --restart --retries --seeds --slow-nodes "
             "--timeout",
    "campaign run": "--attention --backend --buckets --dir --format "
                    "--kill-after --manifest --max-tokens --platform "
                    "--store-budget-mb --store-dir --targets --threads "
                    "--workers",
    "campaign resume": "--backend --dir --format --workers",
    "campaign report": "--dir --format --out --trace",
    "campaign status": "--dir",
    "campaign differential": "--attention --backend --buckets --dir "
                             "--format --kill-after --manifest --max-tokens "
                             "--platform --store-budget-mb --store-dir "
                             "--targets --threads --workers",
    "cluster-sim": "--chains --compile-cache --crashes --format --jobs "
                   "--max-attempts --no-migration --policies "
                   "--preemption-notices --preemptions --rate --slow-nodes "
                   "--store-corruptions",
    "cluster-chaos": "--chains --compile-cache --crashes --format --jobs "
                     "--kinds --max-attempts --no-determinism-check "
                     "--no-migration --policy --preemption-notices "
                     "--preemptions --rate --seeds --slow-nodes "
                     "--store-corruptions",
    "buckets fit": "--format --max-buckets --min-width --requests --source",
    "observe export-trace": "--backoff --chaos --gpu-workers --indent "
                            "--max-batch --max-wait --msa-workers --out "
                            "--platform --queue-limit --rate --requests "
                            "--retries --timeout",
    "observe export-metrics": "--backoff --chaos --gpu-workers --max-batch "
                              "--max-wait --msa-workers --out --platform "
                              "--queue-limit --rate --requests --retries "
                              "--timeout",
    "observe explain": "--backoff --chaos --gpu-workers --max-batch "
                       "--max-wait --msa-workers --platform --queue-limit "
                       "--rate --requests --retries --timeout",
    "observe export-scan-trace": "--backend --indent --json "
                                 "--num-background --out --sample "
                                 "--workers",
    "scale": "--measured --measured-only --out --workers",
    "samples": "",
}


def test_leaf_subcommands_keep_their_flags():
    """Sharing declarations moves no flag onto or off a subcommand."""
    options = {
        path: " ".join(sorted(
            option for action in leaf._actions
            for option in action.option_strings
            if option not in ("-h", "--help")
        ))
        for path, leaf in _leaf_parsers(build_parser())
    }
    assert options == _LEAF_OPTIONS


@pytest.mark.parametrize("argv", [
    pytest.param(argv, id=name) for name, argv in (
        ("serve-sim", ["serve-sim"]),
        ("observe", ["observe", "export-metrics"]),
        ("chaos", ["chaos"]),
        ("cluster-sim", ["cluster-sim"]),
        ("cluster-chaos", ["cluster-chaos"]),
        ("campaign-run", ["campaign", "run", "--dir", "x"]),
        ("campaign-differential", ["campaign", "differential", "--dir", "x"]),
        ("sweep", ["sweep"]),
        ("msa-precompute", ["msa-precompute", "--store-dir", "x"]),
        ("run", ["run"]),
        ("export-scan-trace", ["observe", "export-scan-trace"]),
    )
])
def test_config_flags_keep_the_dataclass_default(argv):
    """A flag that sets a config field defaults to None ("keep the base
    config's value"), so no argparse default repeats a dataclass one.
    observe's --requests is its own stream size (40, not the
    campaign's 120), and the global --seed serves every command.
    sweep's flags are BenchmarkRunner's and run_sweep's arguments, and
    --workers and --backend are ExecutionPlan fields."""
    from repro.campaign import CampaignConfig
    from repro.cluster import ClusterChaosConfig
    from repro.msa.engine import MsaEngineConfig
    from repro.serving import GatewayConfig
    from repro.serving.chaos import ChaosConfig

    def fields(*classes):
        return {f.name for cls in classes for f in dataclasses.fields(cls)}

    plan = {"workers", "backend"}   # the ExecutionPlan fields with flags

    names = {
        "serve-sim": fields(GatewayConfig),
        "observe export-metrics": fields(GatewayConfig, ChaosConfig),
        "chaos": fields(GatewayConfig, ChaosConfig),
        "cluster-sim": fields(ClusterChaosConfig),
        "cluster-chaos": fields(ClusterChaosConfig),
        "campaign run": fields(CampaignConfig) | plan,
        "campaign differential": fields(CampaignConfig) | plan,
        "msa-precompute": plan,
        "run": {"workers"},
        "sweep": {"samples", "platforms", "threads"},
        "observe export-scan-trace": fields(MsaEngineConfig),
    }[" ".join(a for a in argv[:2] if not a.startswith("-"))]
    own = {"seed", "num_requests"} if argv[0] == "observe" else {"seed"}
    args = vars(build_parser().parse_args(argv))
    flagged = {name: args[name] for name in names & args.keys() - own}
    assert flagged and all(v is None for v in flagged.values()), flagged


@pytest.mark.parametrize("argv", [
    ["serve-sim", "--max-batch", "0"],
    ["serve-sim", "--rate", "0"],
    ["serve-sim", "--timeout", "-5"],
    ["chaos", "--crashes", "-1"],
    ["chaos", "--kinds", "worker_crash,nope"],
    ["cluster-sim", "--jobs", "0"],
    ["cluster-chaos", "--rate", "nan"],
    ["msa-precompute", "--store-dir", "unused", "--chains", "1"],
    ["observe", "export-metrics", "--gpu-workers", "0"],
    ["observe", "export-trace", "--requests", "-3"],
    ["observe", "explain", "0", "--rate", "0"],
    ["run", "--workers", "0"],
    ["run", "--threads", "0"],
    ["sweep", "--threads", "0"],
    ["estimate", "--threads", "-1"],
    ["estimate", "--attention", "tiled", "--attention-block", "0"],
    ["estimate", "--attention", "tiled", "--attention-block", "-4"],
    ["campaign", "run", "--dir", "unused", "--targets", "0"],
    ["campaign", "run", "--dir", "unused", "--workers", "0"],
    ["buckets", "fit", "--requests", "0"],
    ["buckets", "fit", "--max-buckets", "0"],
    ["scale", "--measured-only", "--workers", "0"],
    ["observe", "export-scan-trace", "--workers", "0"],
    ["observe", "export-scan-trace", "--num-background", "-1"],
    ["estimate", "--attention", "tiled"],
    ["estimate", "--attention", "chunked", "--attention-block", "512"],
    # A budget that rounds to zero bytes, and a store dir that is a file.
    ["msa-precompute", "--store-dir", "unused", "--store-budget-mb", "1e-9"],
    ["serve-sim", "--store-budget-mb", "1e-9"],
    ["campaign", "run", "--dir", "unused", "--store-budget-mb", "1e-9"],
    ["msa-precompute", "--store-dir", __file__],
    ["serve-sim", "--store-dir", __file__],
    ["campaign", "run", "--dir", "unused", "--store-dir", __file__],
    # Not finite, or finite only until scaled to bytes.
    ["run", "--attention", "tiled", "--memory-budget-mb", "inf"],
    ["run", "--attention", "tiled", "--memory-budget-mb", "nan"],
    ["run", "--attention", "tiled", "--memory-budget-mb", "-5"],
    ["cluster-sim", "--rate", "inf"],
    ["serve-sim", "--store-budget-mb", "1e305"],
    ["observe", "export-trace", "--indent", "-1"],
    ["observe", "export-scan-trace", "--indent", "1000000000"],
])
def test_bad_numeric_flag_exits_2_without_traceback(argv):
    """Bad values stop at the argparse boundary: exit 2, one error
    line naming the flag, never a Python traceback."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert f"error: argument {argv[-2]}:" in proc.stderr


@pytest.mark.parametrize("argv", [
    ["run", "--json", "{tmp}/missing.json"],
    ["estimate", "--json", "{tmp}/missing.json"],
    ["run", "--json", "{tmp}/bad.json"],
    ["sweep", "--platforms", "Foo"],
    ["sweep", "--samples", "NOPE"],
    ["run", "--sample", "NOPE"],
    ["campaign", "run", "--dir", "unused", "--buckets", "abc"],
    ["campaign", "run", "--dir", "unused", "--buckets", "0,5"],
    ["serve-sim", "--buckets", "abc"],
    ["cluster-sim", "--policies", "nope"],
    ["cluster-chaos", "--policy", "nope"],
    # Parses, but cannot hold the stream's largest request (1395 tokens).
    ["serve-sim", "--requests", "20", "--no-baseline", "--buckets", "256"],
], ids=lambda argv: " ".join(argv[-2:]).replace("{tmp}/", ""))
def test_bad_named_value_exits_2_with_one_error_line(
    argv, tmp_path, capsys
):
    """A name or file that does not resolve is a usage error too."""
    (tmp_path / "bad.json").write_text("{bad")
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2
    errors = [line for line in capsys.readouterr().err.splitlines()
              if "error:" in line]
    assert len(errors) == 1
    assert f"error: argument {argv[-2]}:" in errors[0]
    if argv[-1] == "256":
        assert "1395 tokens" in errors[0]


@pytest.mark.parametrize("subcommand", ["status", "resume", "report"])
def test_campaign_on_a_non_campaign_dir_exits_2_with_one_line(
    subcommand, tmp_path
):
    """Pointing a campaign command at a directory that is not a
    campaign is an operator error: the one-line message, exit 2."""
    missing = tmp_path / "not-a-campaign"
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "campaign", subcommand,
         "--dir", str(missing)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines() == [
        f"{missing} is not a campaign directory (no campaign.json) — "
        f"start one with 'repro campaign run --dir {missing} ...'"
    ]
    assert not missing.exists()
