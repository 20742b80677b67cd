"""CLI tests (fast paths; sweep covered by a tiny invocation)."""

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
        assert args.sample == "2PV7"
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
