"""Tests for repro.observability: spans, exporters, analysis, CLI.

Covers the contracts docs/observability.md promises:

* a recording probe never changes simulation results;
* seeded runs export byte-identical Chrome traces (golden-pinned);
* span trees are well-formed and their stages tile request latency;
* span-level phase attribution reconciles with ``serving_trace``;
* ``explain`` reconstructs completed, retried, degraded, timed-out
  and shed requests.
"""

import contextlib
import io
import json
import pathlib
from collections import Counter

import pytest

from repro.cli import main
from repro.hardware.platform import SERVER
from repro.observability import (
    NULL_PROBE,
    SERVING_METRICS,
    STAGE_NAMES,
    SpanProbe,
    SpanRecorder,
    build_tree,
    build_trees,
    chrome_trace_json,
    critical_path,
    explain,
    path_gap_seconds,
    phase_attribution,
    prometheus_metrics,
    reconcile_with_trace,
    to_chrome_trace,
)
from repro.serving import (
    GatewayConfig,
    PoissonArrivals,
    ServingGateway,
    build_request_stream,
)
from repro.serving.chaos import ChaosConfig, build_campaign
from repro.serving.queueing import RequestState
from repro.sequences.builtin import builtin_samples

GOLDEN_TRACE = pathlib.Path(__file__).parent / "golden" / "observe_trace.json"


def _stream(n, rate, seed):
    return build_request_stream(
        list(builtin_samples().values()), n=n,
        arrivals=PoissonArrivals(rate, seed=seed), seed=seed,
    )


def smooth_run(probe=None):
    """12 requests, fault-free, everything completes (the golden run)."""
    config = GatewayConfig(num_gpu_workers=2, num_msa_workers=2)
    gateway = ServingGateway(SERVER, config, probe=probe)
    stream = _stream(12, 0.02, 7)
    return gateway.run(stream), stream


def stressed_run(probe=None, degraded_fallback=True):
    """Tiny pools + tight limits: sheds, retries, degradations (or
    terminal timeouts with the fallback off)."""
    config = GatewayConfig(
        num_gpu_workers=1, num_msa_workers=1, queue_limit=4,
        timeout_seconds=600.0, max_retries=1,
        degraded_fallback=degraded_fallback,
    )
    gateway = ServingGateway(SERVER, config, probe=probe)
    stream = _stream(30, 0.1, 11)
    return gateway.run(stream), stream


def chaos_run(probe=None):
    """The chaos harness's default fault mix (crashes, stalls, ...)."""
    gateway, stream, _plan = build_campaign(
        ChaosConfig(seed=13, num_requests=40), probe=probe
    )
    return gateway.run(stream), stream


ALL_RUNS = [smooth_run, stressed_run, chaos_run]


class TestProbeNeutrality:
    """Observing a run must not change what it simulates."""

    @pytest.mark.parametrize("run", ALL_RUNS)
    def test_summary_identical_with_and_without_probe(self, run):
        bare, _ = run()
        observed, _ = run(probe=SpanProbe())
        assert bare.to_json() == observed.to_json()

    def test_null_probe_is_default(self):
        gateway = ServingGateway(SERVER, GatewayConfig())
        assert gateway.probe is NULL_PROBE


class TestGoldenTrace:
    """The CLI's export-trace bytes are pinned for a seeded run."""

    ARGV = [
        "--seed", "7", "observe", "export-trace", "--requests", "12",
        "--gpu-workers", "2", "--msa-workers", "2",
    ]

    def _export(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(list(self.ARGV)) == 0
        return out.getvalue()

    def test_byte_identical_across_reruns(self):
        assert self._export() == self._export()

    def test_matches_golden_file(self):
        assert self._export() == GOLDEN_TRACE.read_text()

    def test_trace_is_valid_and_has_one_track_per_worker(self):
        payload = json.loads(self._export())
        events = payload["traceEvents"]
        thread_names = {
            e["args"]["name"]: e["tid"]
            for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        # one named track per worker, plus the request lane
        assert {"gpu-0", "gpu-1", "msa-0", "msa-1"} <= set(thread_names)
        assert thread_names["requests"] == 0
        assert len({thread_names[t] for t in thread_names}) == len(thread_names)
        for event in events:
            assert event["ph"] in ("M", "X", "i", "b", "e", "n")
            if event["ph"] != "M":
                assert event["ts"] >= 0
            if event["ph"] == "X":
                assert event["dur"] >= 0
        # every request appears as an async track id
        ids = {e["id"] for e in events if e["ph"] in ("b", "e", "n")}
        assert ids == {f"r{i}" for i in range(12)}

    def test_metadata_lands_in_other_data(self):
        payload = json.loads(self._export())
        assert payload["otherData"]["seed"] == 7
        assert payload["otherData"]["chaos"] is False


class TestSpanInvariants:
    @pytest.mark.parametrize("run", ALL_RUNS)
    def test_trees_are_well_formed(self, run):
        probe = SpanProbe()
        report, stream = run(probe=probe)
        trees = build_trees(probe.recorder)
        assert set(trees) == {r.request_id for r in stream}
        for rid, tree in trees.items():
            root = tree.root
            assert root.request_id == rid
            assert root.span_id == f"r{rid}"
            assert root.end is not None and root.end >= root.start
            for child in tree.children:
                assert child.parent_id == root.span_id
                assert child.request_id == rid
                assert root.start - 1e-9 <= child.start
                end = child.start if child.end is None else child.end
                assert end <= root.end + 1e-9
            stages = tree.stages()
            for earlier, later in zip(stages, stages[1:]):
                assert earlier.end is not None
                assert earlier.end <= later.start + 1e-9

    @pytest.mark.parametrize("run", ALL_RUNS)
    def test_no_unfinished_spans(self, run):
        probe = SpanProbe()
        run(probe=probe)
        assert not [s for s in probe.recorder.spans if s.status == "unfinished"]
        assert not probe.recorder.open_spans()

    @pytest.mark.parametrize("run", ALL_RUNS)
    def test_span_ids_unique(self, run):
        probe = SpanProbe()
        run(probe=probe)
        ids = [s.span_id for s in probe.recorder.spans]
        assert len(ids) == len(set(ids))

    @pytest.mark.parametrize("run", ALL_RUNS)
    def test_stage_durations_sum_to_latency(self, run):
        """For completed requests the stage spans tile the request
        exactly; root duration equals the ledger's latency."""
        probe = SpanProbe()
        report, stream = run(probe=probe)
        trees = build_trees(probe.recorder)
        for request in stream:
            tree = trees[request.request_id]
            if request.state is not RequestState.DONE:
                continue
            assert tree.root.duration == pytest.approx(
                request.latency_seconds, abs=1e-6
            )
            covered = sum(s.duration for s in critical_path(tree))
            assert covered == pytest.approx(tree.root.duration, abs=1e-6)
            assert path_gap_seconds(tree) == pytest.approx(0.0, abs=1e-6)

    @pytest.mark.parametrize("run", ALL_RUNS)
    def test_root_status_matches_ledger(self, run):
        expected = {
            RequestState.DONE: ("ok", "degraded"),
            RequestState.SHED: ("shed",),
            RequestState.TIMED_OUT: ("timed_out",),
            RequestState.FAILED_OOM: ("failed_oom",),
        }
        probe = SpanProbe()
        report, stream = run(probe=probe)
        trees = build_trees(probe.recorder)
        for request in stream:
            status = trees[request.request_id].root.status
            assert status in expected[request.state]
            if request.state is RequestState.DONE:
                assert (status == "degraded") == request.degraded

    def test_build_tree_unknown_request_raises(self):
        probe = SpanProbe()
        smooth_run(probe=probe)
        with pytest.raises(KeyError):
            build_tree(probe.recorder, 999)

    def test_build_tree_accepts_plain_span_list(self):
        probe = SpanProbe()
        smooth_run(probe=probe)
        via_recorder = build_tree(probe.recorder, 0)
        via_list = build_tree(list(probe.recorder.spans), 0)
        assert [s.span_id for s in via_list.children] == [
            s.span_id for s in via_recorder.children
        ]


class TestReconciliation:
    def test_fault_free_deltas_are_zero(self):
        probe = SpanProbe()
        report, stream = smooth_run(probe=probe)
        rec = reconcile_with_trace(stream, probe.recorder)
        assert set(rec) >= {
            "serving.queue.msa", "serving.queue.batch", "serving.msa",
            "serving.gpu",
        }
        for phase, row in rec.items():
            assert row["delta"] == pytest.approx(0.0, abs=1e-6), phase

    def test_stressed_wait_phases_reconcile(self):
        probe = SpanProbe()
        report, stream = stressed_run(probe=probe)
        rec = reconcile_with_trace(stream, probe.recorder)
        for phase in ("serving.queue.msa", "serving.queue.batch",
                      "serving.backoff"):
            assert rec[phase]["delta"] == pytest.approx(0.0, abs=1e-6), phase

    def test_chaos_wait_phases_reconcile(self):
        probe = SpanProbe()
        report, stream = chaos_run(probe=probe)
        rec = reconcile_with_trace(stream, probe.recorder)
        for phase in ("serving.queue.msa", "serving.queue.batch",
                      "serving.backoff"):
            if phase in rec:
                assert rec[phase]["delta"] == pytest.approx(
                    0.0, abs=1e-6
                ), phase
        # stall attribution is attr-rounded to 6 dp per event
        if "serving.stall" in rec:
            assert rec["serving.stall"]["delta"] == pytest.approx(
                0.0, abs=1e-3
            )

    def test_phase_attribution_orders_stage_names(self):
        probe = SpanProbe()
        smooth_run(probe=probe)
        phases = phase_attribution(build_trees(probe.recorder))
        assert tuple(phases) == STAGE_NAMES
        assert phases["gpu.infer"] > 0
        assert all(v >= 0 for v in phases.values())


class TestExplain:
    def _statuses(self, probe):
        return {
            rid: tree.root.status
            for rid, tree in build_trees(probe.recorder).items()
        }

    def test_completed_request(self):
        probe = SpanProbe()
        smooth_run(probe=probe)
        text = explain(probe.recorder, 0)
        assert text.startswith("request 0:")
        assert "-> ok" in text
        assert "gpu.infer" in text
        assert "stages cover" in text

    def test_every_terminal_outcome_renders(self):
        probe = SpanProbe()
        report, stream = stressed_run(probe=probe)
        statuses = Counter(self._statuses(probe).values())
        assert statuses["shed"] and statuses["degraded"]
        for rid, status in self._statuses(probe).items():
            text = explain(probe.recorder, rid)
            assert f"request {rid}:" in text
            assert f"-> {status}" in text
        degraded_rid = next(
            r for r, s in self._statuses(probe).items() if s == "degraded"
        )
        text = explain(probe.recorder, degraded_rid)
        assert "degraded.fallback" in text and "backoff" in text

    def test_timed_out_request_renders(self):
        probe = SpanProbe()
        stressed_run(probe=probe, degraded_fallback=False)
        statuses = self._statuses(probe)
        rid = next(r for r, s in statuses.items() if s == "timed_out")
        text = explain(probe.recorder, rid)
        assert "-> timed_out" in text
        assert "retries exhausted" in text

    def test_retried_request_shows_both_attempts(self):
        probe = SpanProbe()
        report, stream = chaos_run(probe=probe)
        multi = next(
            t for t in build_trees(probe.recorder).values()
            if sum(1 for s in t.stages() if s.name == "gpu.infer") > 1
        )
        text = explain(probe.recorder, multi.request_id)
        assert text.count("gpu.infer") >= 2
        assert "[aborted]" in text

    def test_unknown_request_raises(self):
        probe = SpanProbe()
        smooth_run(probe=probe)
        with pytest.raises(KeyError):
            explain(probe.recorder, 10_000)


class TestExporters:
    def test_chrome_trace_rerun_identical_in_process(self):
        probe = SpanProbe()
        chaos_run(probe=probe)
        first = chrome_trace_json(probe.recorder, metadata={"seed": 13})
        second = chrome_trace_json(probe.recorder, metadata={"seed": 13})
        assert first == second

    def test_worker_windows_land_on_worker_tracks(self):
        probe = SpanProbe()
        chaos_run(probe=probe)
        payload = to_chrome_trace(probe.recorder)
        tracks = {
            e["tid"]: e["args"]["name"]
            for e in payload["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        complete = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        names_by_track = {}
        for event in complete:
            names_by_track.setdefault(tracks[event["tid"]], set()).add(
                event["name"]
            )
        assert any(
            "gpu.batch" in names for t, names in names_by_track.items()
            if t.startswith("gpu-")
        )
        all_names = set().union(*names_by_track.values())
        assert "worker.down" in all_names

    def test_indent_changes_bytes_not_content(self):
        probe = SpanProbe()
        smooth_run(probe=probe)
        compact = chrome_trace_json(probe.recorder)
        pretty = chrome_trace_json(probe.recorder, indent=2)
        assert compact != pretty
        assert json.loads(compact) == json.loads(pretty)

    def test_prometheus_exposition_shape(self):
        probe = SpanProbe()
        report, _ = smooth_run(probe=probe)
        summary = report.summary()
        text = prometheus_metrics(summary, SERVING_METRICS)
        assert text == prometheus_metrics(summary, SERVING_METRICS)
        assert (
            f'afsys_serving_submitted_total{{platform="Server"}} '
            f'{summary["submitted"]}' in text
        )
        assert 'quantile="0.99"' in text
        for line in text.strip().splitlines():
            assert line.startswith(("# HELP", "# TYPE", "afsys_serving_"))

    def test_prometheus_includes_fault_section_under_chaos(self):
        probe = SpanProbe()
        report, _ = chaos_run(probe=probe)
        text = prometheus_metrics(report.summary(), SERVING_METRICS)
        assert 'afsys_serving_fault_planned_total' in text
        assert 'kind="worker_crash"' in text
        assert "afsys_serving_fault_restarts" in text


class TestSpanRecorder:
    def test_ids_are_deterministic_counters(self):
        recorder = SpanRecorder()
        root = recorder.begin("request", 0.0, track="requests", request_id=3)
        child_a = recorder.begin(
            "queue.msa", 0.0, track="requests", request_id=3,
            parent_id=root.span_id,
        )
        child_b = recorder.begin(
            "msa.scan", 1.0, track="msa-0", request_id=3,
            parent_id=root.span_id,
        )
        system = recorder.begin("worker.down", 2.0, track="gpu-0")
        assert root.span_id == "r3"
        assert child_a.span_id == "r3.1"
        assert child_b.span_id == "r3.2"
        assert system.span_id == "gpu-0.1"

    def test_finish_rejects_time_travel(self):
        recorder = SpanRecorder()
        span = recorder.begin("request", 5.0, track="requests", request_id=0)
        with pytest.raises(ValueError):
            recorder.finish(span, 4.0)

    def test_reset_clears_everything(self):
        recorder = SpanRecorder()
        recorder.declare_tracks(["gpu-0"])
        recorder.begin("request", 0.0, track="requests", request_id=0)
        recorder.reset()
        assert not recorder.spans
        assert not recorder.declared_tracks
        assert recorder.request_ids() == []


class TestObserveCli:
    def _run(self, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        return code, out.getvalue()

    def test_export_metrics_stdout(self):
        code, text = self._run([
            "--seed", "7", "observe", "export-metrics", "--requests", "6",
        ])
        assert code == 0
        assert text.startswith("# HELP afsys_serving_gpu_workers")

    def test_export_trace_to_file(self, tmp_path):
        out_file = tmp_path / "trace.json"
        code, _ = self._run([
            "--seed", "7", "observe", "export-trace", "--requests", "6",
            "--out", str(out_file),
        ])
        assert code == 0
        payload = json.loads(out_file.read_text())
        assert payload["traceEvents"]

    def test_explain_known_and_unknown_request(self):
        code, text = self._run([
            "--seed", "7", "observe", "explain", "2", "--requests", "6",
        ])
        assert code == 0
        assert text.startswith("request 2:")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code, _ = self._run([
                "--seed", "7", "observe", "explain", "99",
                "--requests", "6",
            ])
        assert code == 2
        assert "no spans recorded" in err.getvalue()

    def test_chaos_flag_produces_fault_events(self):
        code, text = self._run([
            "--seed", "13", "observe", "export-trace", "--requests", "20",
            "--chaos",
        ])
        assert code == 0
        assert '"worker.down"' in text or '"fault.' in text
