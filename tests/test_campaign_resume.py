"""The campaign crash-safety audits: kill, resume, recompute nothing.

The acceptance bar for the campaign subsystem: a campaign killed after
any number of persisted stage outputs and then resumed must (a) never
re-execute an already-persisted stage (``resumed_recomputed_stages ==
0``) and (b) produce a final cohort report byte-identical to an
uninterrupted run — across several seeds and kill points, and
regardless of real worker counts.
"""

from __future__ import annotations

import json
import os
import stat

import pytest

from repro.campaign import (
    CampaignConfig,
    CampaignKilled,
    CampaignState,
    kill_resume_differential,
    run_campaign,
    seeded_manifest,
)
from repro.faults import KillSwitch, SimulatedKill
from repro.parallel import ExecutionPlan


class TestKillSwitch:
    def test_strikes_exactly_on_quota(self):
        switch = KillSwitch(after=3)
        switch.record()
        switch.record()
        with pytest.raises(SimulatedKill):
            switch.record()
        assert switch.count == 3

    def test_disarmed_switch_never_strikes(self):
        switch = KillSwitch()
        assert not switch.armed
        for _ in range(100):
            switch.record()

    def test_rejects_nonpositive_quota(self):
        with pytest.raises(ValueError):
            KillSwitch(after=0)


class TestDurableWrites:
    @pytest.fixture
    def fsyncs(self, monkeypatch):
        """Record the file type of every ``os.fsync`` target."""
        calls = []
        real = os.fsync

        def record(fd):
            mode = os.fstat(fd).st_mode
            calls.append("dir" if stat.S_ISDIR(mode) else "file")
            real(fd)

        monkeypatch.setattr(os, "fsync", record)
        return calls

    def test_campaign_saves_fsync_the_file_and_its_directory(
        self, tmp_path, fsyncs
    ):
        state = CampaignState(tmp_path / "c")
        state.initialize(seeded_manifest(1, seed=0),
                         CampaignConfig().config_doc())
        assert fsyncs == ["file", "dir"]
        state.save_output({"task": "t0.msa"}, already_done=set())
        assert fsyncs == ["file", "dir"] * 2
        assert state.load_outputs() == {"t0.msa": {"task": "t0.msa"}}

    def test_feature_store_puts_never_fsync(self, tmp_path, fsyncs):
        from repro.store import FeatureStore

        store = FeatureStore(tmp_path / "fs")
        store.put("0" * 32, {"rows": 1})
        store.sync()
        assert fsyncs == []


class TestKillResume:
    def test_kill_strikes_and_carries_partial_report(self, tmp_path):
        targets = seeded_manifest(4, seed=0)
        with pytest.raises(CampaignKilled) as info:
            run_campaign(
                tmp_path / "c", targets=targets,
                config=CampaignConfig(), kill_after=3,
            )
        partial = info.value.report
        assert partial.killed and not partial.complete
        assert partial.stages_executed == 3
        # Exactly the persisted outputs are on disk, nothing else.
        assert len(CampaignState(tmp_path / "c").load_outputs()) == 3

    def test_resume_recomputes_zero_finished_stages(self, tmp_path):
        targets = seeded_manifest(4, seed=0)
        with pytest.raises(CampaignKilled):
            run_campaign(
                tmp_path / "c", targets=targets,
                config=CampaignConfig(), kill_after=6,
            )
        report = run_campaign(tmp_path / "c")
        assert report.complete
        assert report.adopted_done == 6
        assert report.resumed_recomputed_stages == 0
        assert report.stages_executed == 16 - 6

    def test_resume_of_a_complete_campaign_runs_nothing(self, tmp_path):
        targets = seeded_manifest(3, seed=0)
        first = run_campaign(
            tmp_path / "c", targets=targets, config=CampaignConfig()
        )
        assert first.complete
        again = run_campaign(tmp_path / "c")
        assert again.complete
        assert again.stages_executed == 0
        assert again.resumed_recomputed_stages == 0
        assert again.adopted_done == 12

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_differential_across_seeds(self, tmp_path, seed):
        result = kill_resume_differential(
            tmp_path,
            seeded_manifest(5, seed=seed),
            config=CampaignConfig(seed=seed),
            kill_after=4,
        )
        assert result.passed, result.render()
        assert result.kills >= 1
        assert result.resumed_recomputed_stages == 0
        assert result.clean_report == result.resumed_report

    def test_differential_with_parallel_execution(self, tmp_path):
        result = kill_resume_differential(
            tmp_path,
            seeded_manifest(5, seed=3),
            config=CampaignConfig(seed=3),
            kill_after=3,
            plan=ExecutionPlan(workers=4, backend="thread"),
        )
        assert result.passed, result.render()

    def test_interrupted_final_report_matches_clean(self, tmp_path):
        # Belt and braces on top of the differential: compare the raw
        # persisted task documents too, not just the cohort summary.
        targets = seeded_manifest(4, seed=1)
        config = CampaignConfig(seed=1)
        run_campaign(
            tmp_path / "clean", targets=targets, config=config
        )
        with pytest.raises(CampaignKilled):
            run_campaign(
                tmp_path / "killed", targets=targets, config=config,
                kill_after=5,
            )
        run_campaign(tmp_path / "killed")
        clean = CampaignState(tmp_path / "clean").load_outputs()
        killed = CampaignState(tmp_path / "killed").load_outputs()
        assert json.dumps(clean) == json.dumps(killed)

    def test_failed_stages_also_survive_resume(self, tmp_path):
        # A failed stage output is a checkpoint like any other: the
        # resume must adopt it, not retry it.
        targets = seeded_manifest(3, seed=0)
        config = CampaignConfig(max_tokens=250)
        first = run_campaign(
            tmp_path / "c", targets=targets, config=config
        )
        assert first.stages_failed > 0
        again = run_campaign(tmp_path / "c")
        assert again.stages_executed == 0
        assert again.resumed_recomputed_stages == 0
