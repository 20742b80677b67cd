"""Campaign orchestrator: manifests, DAG, determinism, reporting.

The resume-specific audits (kill/resume differential, recompute
counters) live in test_campaign_resume.py; this file covers everything
else: manifest parsing and its edge cases, DAG scheduling queries,
stage output determinism, the golden cohort summary, the markdown /
Prometheus / span render surfaces, the read-only status scan, and the
feature-store read-through.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.campaign import (
    CampaignConfig,
    CampaignState,
    ChainSpec,
    ManifestError,
    TargetSpec,
    build_graph,
    campaign_spans,
    cohort_summary,
    load_manifest,
    merge_task_outputs,
    parse_manifest_csv,
    parse_manifest_json,
    render_cohort_markdown,
    render_manifest_csv,
    run_campaign,
    seeded_manifest,
    simulated_schedule,
)
from repro.campaign.dag import STAGES, task_id
from repro.campaign.stages import StageError, stage_output
from repro.campaign.state import CampaignStateError
from repro.core.estimator import DEFAULT_PLATFORMS, estimate
from repro.model.memory_planner import ATTENTION_SCHEDULES
from repro.observability import CAMPAIGN_METRICS, prometheus_metrics
from repro.parallel import ExecutionPlan
from repro.sequences.builtin import builtin_samples

GOLDEN = pathlib.Path(__file__).parent / "golden" / "campaign_summary.json"

CSV_OK = (
    "id,chains\n"
    "T1,protein:MKWVTFISLLLLFSSAYSRGV\n"
    "T2,protein*2:MKWVTFISLLLLFSSAYS;rna:ACGUACGUACGU\n"
)


def _run(tmp_path, targets, config=None, **kwargs):
    report = run_campaign(
        tmp_path / "camp", targets=targets,
        config=config or CampaignConfig(), **kwargs,
    )
    state = CampaignState(tmp_path / "camp")
    loaded_targets, config_doc = state.load()
    return report, state, loaded_targets, config_doc


class TestManifest:
    def test_csv_round_trip(self):
        targets = parse_manifest_csv(CSV_OK)
        assert [t.target_id for t in targets] == ["T1", "T2"]
        assert targets[1].chains[0].copies == 2
        assert targets[1].chains[1].molecule_type == "rna"
        again = parse_manifest_csv(render_manifest_csv(targets))
        assert again == targets

    def test_json_manifest_and_file_loading(self, tmp_path):
        doc = {"targets": [
            {"id": "J1", "chains": [
                {"molecule_type": "protein",
                 "sequence": "MKWVTFISLLLLFSSAYSRGV"},
            ]},
        ]}
        assert parse_manifest_json(json.dumps(doc))[0].target_id == "J1"
        path = tmp_path / "cohort.json"
        path.write_text(json.dumps(doc))
        assert load_manifest(path)[0].target_id == "J1"
        csv_path = tmp_path / "cohort.csv"
        csv_path.write_text(CSV_OK)
        assert len(load_manifest(csv_path)) == 2

    def test_empty_manifest_is_an_error(self):
        with pytest.raises(ManifestError, match="no targets"):
            parse_manifest_csv("id,chains\n")

    def test_duplicate_ids_are_an_error(self):
        bad = (
            "id,chains\n"
            "T1,protein:MKWVTFISLLLLFSSAYSRGV\n"
            "T1,protein:MKWVTFISLLLLFSSAYSRGV\n"
        )
        with pytest.raises(ManifestError, match="duplicate target id"):
            parse_manifest_csv(bad)

    def test_malformed_sequence_names_the_target(self):
        bad = "id,chains\nT9,protein:MKWV123\n"
        with pytest.raises(ManifestError, match="T9"):
            parse_manifest_csv(bad)

    def test_unknown_molecule_type_is_an_error(self):
        bad = "id,chains\nT1,plutonium:MKWVTFISLL\n"
        with pytest.raises(ManifestError, match="molecule type"):
            parse_manifest_csv(bad)

    def test_bad_copies_are_an_error(self):
        bad = "id,chains\nT1,protein*0:MKWVTFISLLQQ\n"
        with pytest.raises(ManifestError, match="copies"):
            parse_manifest_csv(bad)

    def test_unsafe_target_id_is_an_error(self):
        # Ids become checkpoint file names, so path-ish ids must die
        # in the parser, not as a half-written file later.
        bad = "id,chains\n../etc,protein:MKWVTFISLLQQ\n"
        with pytest.raises(ManifestError, match="target id"):
            parse_manifest_csv(bad)

    def test_missing_columns_are_an_error(self):
        with pytest.raises(ManifestError, match="column"):
            parse_manifest_csv("name,sequence\nT1,MKWV\n")

    def test_seeded_manifest_is_deterministic(self):
        a = seeded_manifest(8, seed=3)
        b = seeded_manifest(8, seed=3)
        assert a == b
        assert seeded_manifest(8, seed=4) != a
        assert len({t.target_id for t in a}) == 8


class TestDag:
    def test_graph_shape_and_data_deps(self):
        targets = seeded_manifest(3, seed=0)
        graph = build_graph(targets)
        assert len(graph) == 12
        report = graph.tasks[task_id("T0001", "report")]
        # report consumes all three upstream outputs, not just a chain
        assert set(report.deps) == {
            task_id("T0001", s) for s in ("preprocess", "msa", "inference")
        }

    def test_ready_and_blocked_queries(self):
        targets = seeded_manifest(2, seed=0)
        graph = build_graph(targets)
        ready = graph.ready(set(), set())
        assert {t.stage for t in ready} == {"preprocess"}
        # Fail one preprocess: its whole chain is blocked, the other
        # target is unaffected.
        failed = {task_id("T0000", "preprocess")}
        done = {task_id("T0001", "preprocess")}
        blocked = {t.task_id for t in graph.blocked(done, failed)}
        assert blocked == {
            task_id("T0000", s) for s in ("msa", "inference", "report")
        }
        ready = graph.ready(done, failed)
        assert [t.task_id for t in ready] == [task_id("T0001", "msa")]

    def test_cycles_are_rejected(self):
        from repro.campaign.dag import StageTask, TaskGraph

        with pytest.raises(ValueError, match="cycle"):
            TaskGraph([
                StageTask("a", "t", "preprocess", deps=("b",)),
                StageTask("b", "t", "msa", deps=("a",)),
            ])


class TestDeterminism:
    def test_workers_and_backend_cannot_change_outputs(self, tmp_path):
        targets = seeded_manifest(4, seed=2)
        _, state_a, tg_a, cfg_a = _run(
            tmp_path / "a", targets,
            plan=ExecutionPlan(workers=1, backend="serial"),
        )
        _, state_b, tg_b, cfg_b = _run(
            tmp_path / "b", targets,
            plan=ExecutionPlan(workers=4, backend="thread"),
        )
        a = state_a.load_outputs()
        b = state_b.load_outputs()
        assert json.dumps(a) == json.dumps(b)
        assert json.dumps(cohort_summary(a, tg_a, cfg_a)) == json.dumps(
            cohort_summary(b, tg_b, cfg_b)
        )

    def test_store_state_cannot_change_the_report(self, tmp_path):
        # Same cohort, one run with a cold store, one sharing the now-
        # warm store: run reports differ (reuse), cohort reports don't.
        targets = seeded_manifest(4, seed=1)
        store = str(tmp_path / "store")
        config = CampaignConfig(store_dir=store)
        r1, s1, tg, cfg = _run(tmp_path / "cold", targets, config=config)
        r2, s2, _, _ = _run(tmp_path / "warm", targets, config=config)
        assert r1.chains_computed > 0 and r1.chains_reused == 0
        assert r2.chains_computed == 0 and r2.chains_reused > 0
        assert json.dumps(
            cohort_summary(s1.load_outputs(), tg, cfg)
        ) == json.dumps(cohort_summary(s2.load_outputs(), tg, cfg))


class TestCohortReport:
    def test_golden_campaign_summary(self, tmp_path):
        _, state, targets, config_doc = _run(
            tmp_path, seeded_manifest(12, seed=0)
        )
        got = json.loads(json.dumps(
            cohort_summary(state.load_outputs(), targets, config_doc)
        ))
        assert got == json.loads(GOLDEN.read_text())

    def test_figures_are_keyed_to_the_paper(self, tmp_path):
        _, state, targets, config_doc = _run(
            tmp_path, seeded_manifest(5, seed=0)
        )
        summary = cohort_summary(
            state.load_outputs(), targets, config_doc
        )
        figures = summary["figures"]
        shares = figures["fig3_phase_share"]
        assert set(shares) == set(STAGES)
        assert abs(sum(shares.values()) - 1.0) < 1e-4
        assert sum(
            figures["fig8_inference_breakdown_share"].values()
        ) == pytest.approx(1.0, abs=1e-4)
        assert len(figures["table2_targets"]) == 5
        for cls, fraction in (
            figures["fig7_msa_fraction_by_complexity"].items()
        ):
            assert 0.0 <= fraction <= 1.0

    def test_markdown_render_is_deterministic(self, tmp_path):
        _, state, targets, config_doc = _run(
            tmp_path, seeded_manifest(3, seed=0)
        )
        summary = cohort_summary(
            state.load_outputs(), targets, config_doc
        )
        text = render_cohort_markdown(summary)
        assert text == render_cohort_markdown(summary)
        assert "paper Fig 3" in text
        assert "T0000" in text

    def test_schedule_respects_deps_and_pools(self, tmp_path):
        _, state, targets, config_doc = _run(
            tmp_path, seeded_manifest(6, seed=0)
        )
        outputs = state.load_outputs()
        workers = config_doc["stage_workers"]
        schedule = simulated_schedule(outputs, targets, workers)
        assert len(schedule) == len(outputs)
        end = {item.task_id: item.end for item in schedule}
        graph = build_graph(targets)
        for item in schedule:
            for dep in graph.tasks[item.task_id].deps:
                assert item.start >= end[dep] - 1e-9
        # No overlap on any single modeled worker.
        lanes = {}
        for item in schedule:
            lanes.setdefault((item.stage, item.worker), []).append(item)
        for items in lanes.values():
            items.sort(key=lambda s: s.start)
            for first, second in zip(items, items[1:]):
                assert second.start >= first.end - 1e-9

    def test_spans_render_and_trace_export(self, tmp_path):
        from repro.observability import chrome_trace_json

        _, state, targets, config_doc = _run(
            tmp_path, seeded_manifest(3, seed=0)
        )
        recorder = campaign_spans(
            state.load_outputs(), targets, config_doc["stage_workers"]
        )
        # one root per target + one span per task
        assert len(recorder) == 3 + 12
        assert not recorder.open_spans()
        text = chrome_trace_json(recorder)
        assert text == chrome_trace_json(recorder)
        assert "campaign.msa" in text

    def test_prometheus_exposition(self, tmp_path):
        _, state, targets, config_doc = _run(
            tmp_path, seeded_manifest(3, seed=0)
        )
        summary = cohort_summary(
            state.load_outputs(), targets, config_doc
        )
        text = prometheus_metrics(summary, CAMPAIGN_METRICS)
        assert text == prometheus_metrics(summary, CAMPAIGN_METRICS)
        assert 'afsys_campaign_targets_total{platform="Server"} 3' in text
        assert 'stage="msa"' in text
        for line in text.splitlines():
            assert line.startswith(("#", "afsys_campaign_"))


class TestFailuresAndStatus:
    def test_admission_failure_blocks_the_chain(self, tmp_path):
        targets = seeded_manifest(3, seed=0)
        config = CampaignConfig(max_tokens=250)  # fails the bigger ones
        report, state, tg, cfg = _run(tmp_path, targets, config=config)
        assert report.stages_failed > 0
        summary = cohort_summary(state.load_outputs(), tg, cfg)
        assert summary["targets_failed"] == report.stages_failed
        for failure in summary["failures"]:
            assert failure["stage"] == "preprocess"
            assert "max_tokens" in failure["error"]
        status = state.scan_status()
        assert status["msa"]["blocked"] == report.stages_failed
        assert status["preprocess"]["failed"] == report.stages_failed

    def test_status_is_read_only(self, tmp_path):
        _, state, _, _ = _run(tmp_path, seeded_manifest(2, seed=0))
        root = tmp_path / "camp"
        before = {
            p.relative_to(root): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()
        }
        fresh = CampaignState(root)
        fresh.scan_status()
        fresh.failed_records()
        after = {
            p.relative_to(root): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()
        }
        assert before == after

    def test_mismatched_reinit_is_rejected(self, tmp_path):
        _run(tmp_path, seeded_manifest(2, seed=0))
        with pytest.raises(CampaignStateError, match="different"):
            run_campaign(
                tmp_path / "camp",
                targets=seeded_manifest(3, seed=0),
                config=CampaignConfig(),
            )

    def test_merge_skips_incomplete_targets(self, tmp_path):
        config = CampaignConfig(max_tokens=250)
        _, state, _, _ = _run(
            tmp_path, seeded_manifest(3, seed=0), config=config
        )
        merged = merge_task_outputs(state.load_outputs())
        failed = {d["target"] for d in state.failed_records()}
        assert failed
        assert not failed & set(merged)


def test_preprocess_admits_exactly_as_estimate():
    """Campaign admission and ``repro estimate`` share one MSA peak
    model: the same target gets the same MSA verdict from both, on
    every platform preset and thread count (6QNR's 650-nt RNA chain
    is the case that tells them apart on Desktop)."""
    for sample in builtin_samples().values():
        target = TargetSpec(
            target_id=sample.name,
            chains=tuple(
                ChainSpec(c.molecule_type.value, c.sequence, c.copies)
                for c in sample.assembly if c.molecule_type.is_polymer
            ),
        )
        for threads in (1, 8):
            verdicts = estimate(sample.assembly, threads=threads).verdicts
            for platform, verdict in zip(DEFAULT_PLATFORMS, verdicts):
                config = CampaignConfig(
                    platform=platform.name, threads=threads
                )
                try:
                    outcome = stage_output(
                        "preprocess", target, config, {}
                    )["memory_outcome"]
                except StageError:
                    outcome = "oom"
                assert outcome == verdict.msa_outcome.value, (
                    sample.name, platform.name, threads,
                )


configs = st.builds(
    CampaignConfig,
    platform=st.sampled_from([p.name for p in DEFAULT_PLATFORMS]),
    threads=st.integers(min_value=1, max_value=64),
    seed=st.integers(min_value=0, max_value=2 ** 31),
    stage_workers=st.dictionaries(
        st.sampled_from(STAGES), st.integers(min_value=1, max_value=8)
    ),
    max_tokens=st.integers(min_value=0, max_value=10_000),
    store_dir=st.none() | st.text(min_size=1, max_size=12),
    store_budget_mb=st.floats(min_value=1e-3, max_value=1e6),
    attention=st.sampled_from(ATTENTION_SCHEDULES),
    buckets=st.none() | st.lists(
        st.integers(min_value=1, max_value=5120), min_size=1, unique=True
    ).map(lambda edges: tuple(sorted(edges))),
)


class TestSchema:
    """campaign.json v2: one config schema, written whole, read strictly."""

    @given(configs)
    @settings(max_examples=150, deadline=None)
    def test_config_doc_round_trips_through_json(self, config):
        doc = json.loads(json.dumps(config.config_doc()))
        assert CampaignConfig.from_doc(doc) == config
        assert list(doc["stage_workers"]) == list(STAGES)

    def test_config_doc_is_exactly_the_dataclass_fields(self):
        names = [f.name for f in dataclasses.fields(CampaignConfig)]
        assert list(CampaignConfig().config_doc()) == names
        assert CampaignConfig().config_doc()["buckets"] is None

    @pytest.mark.parametrize("field", ["buckets", "attention", "seed"])
    def test_from_doc_rejects_a_missing_field(self, field):
        doc = CampaignConfig().config_doc()
        del doc[field]
        with pytest.raises(CampaignStateError, match=repr(field)):
            CampaignConfig.from_doc(doc)

    def test_from_doc_rejects_an_unknown_field(self):
        doc = dict(CampaignConfig().config_doc(), batch_size=4)
        with pytest.raises(CampaignStateError, match="'batch_size'"):
            CampaignConfig.from_doc(doc)

    def test_inference_outputs_share_one_key_set(self):
        target = seeded_manifest(1, seed=0)[0]
        key_sets = set()
        for attention in ATTENTION_SCHEDULES:
            for buckets in (None, (256, 512, 1024)):
                config = CampaignConfig(attention=attention,
                                        buckets=buckets)
                upstream = {
                    task_id(target.target_id, stage): stage_output(
                        stage, target, config, {}
                    )
                    for stage in ("preprocess", "msa")
                }
                body = stage_output("inference", target, config, upstream)
                assert body["attention"] == attention
                assert (body["bucket"] is None) == (buckets is None)
                assert (body["attention_block"] is None) == (
                    attention != "tiled"
                )
                key_sets.add(tuple(body))
        assert len(key_sets) == 1
