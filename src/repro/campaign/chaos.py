"""The kill/resume differential: the campaign's crash-safety audit.

The resumability claim is cheap to state and easy to get subtly wrong
(a timestamp in a task file, a store counter leaking into the report,
an output that depends on which wave computed it).  So it is audited
the way the chaos suite audits the gateway — differentially:

1. run the campaign **uninterrupted** in one directory;
2. run the *same* campaign in a second directory with a
   :class:`~repro.faults.KillSwitch` armed to strike after ``N``
   durable stage outputs, then resume it (repeatedly, if asked) until
   it completes;
3. demand that the killed-and-resumed campaign (a) recomputed **zero**
   already-persisted stages and (b) produced a **byte-identical**
   cohort report.

Both demands are exact, not statistical — any scheduling, timing, or
store state leaking into persisted outputs fails the audit immediately.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
from typing import Optional, Sequence

from ..parallel import ExecutionPlan
from .manifest import TargetSpec
from .report import cohort_summary
from .runner import CampaignConfig, CampaignKilled, run_campaign
from .state import CampaignState

__all__ = ["DifferentialResult", "kill_resume_differential"]


@dataclasses.dataclass(frozen=True)
class DifferentialResult:
    """Verdict of one kill/resume differential."""

    seed: int
    kill_after: int
    kills: int                      # kills actually delivered
    resumes: int                    # resume invocations to finish
    resumed_recomputed_stages: int  # across all resumes (must be 0)
    wasted_shard_results: int       # computed-but-unpersisted (allowed)
    reports_identical: bool
    clean_report: str               # canonical JSON of the clean run
    resumed_report: str             # canonical JSON after resume(s)

    @property
    def passed(self) -> bool:
        return self.reports_identical and (
            self.resumed_recomputed_stages == 0
        )

    def render(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return (
            f"kill/resume differential seed={self.seed} "
            f"kill_after={self.kill_after}: {verdict} — "
            f"{self.kills} kill(s), {self.resumes} resume(s), "
            f"{self.resumed_recomputed_stages} recomputed stage(s) "
            f"(limit 0), {self.wasted_shard_results} wasted shard "
            f"result(s), reports "
            + ("identical" if self.reports_identical else "DIFFER")
        )


def _canonical_report(campaign_dir) -> str:
    """Canonical JSON of the cohort report in ``campaign_dir``."""
    state = CampaignState(campaign_dir)
    targets, config_doc = state.load()
    summary = cohort_summary(state.load_outputs(), targets, config_doc)
    return json.dumps(summary, sort_keys=False, separators=(",", ":"))


def kill_resume_differential(
    workdir,
    targets: Sequence[TargetSpec],
    config: Optional[CampaignConfig] = None,
    kill_after: int = 5,
    plan: Optional[ExecutionPlan] = None,
    max_resumes: int = 64,
) -> DifferentialResult:
    """Run the differential in ``workdir`` (two fresh subdirectories).

    The killed campaign is re-killed on every resume for as long as the
    switch can strike (it runs out of strikes once fewer than
    ``kill_after`` stage outputs remain), so one differential exercises
    several crash/recover boundaries, not just one.
    """
    if kill_after < 1:
        raise ValueError("kill_after must be >= 1")
    workdir = pathlib.Path(workdir)
    config = config or CampaignConfig()
    clean_dir = workdir / "clean"
    chaos_dir = workdir / "killed"

    clean = run_campaign(clean_dir, targets=targets, config=config,
                         plan=plan)
    assert clean.complete, "clean campaign did not complete"

    kills = 0
    resumes = 0
    recomputed = 0
    wasted = 0
    first = True
    while True:
        try:
            report = run_campaign(
                chaos_dir,
                targets=targets if first else None,
                config=config if first else None,
                plan=plan,
                kill_after=kill_after,
            )
        except CampaignKilled as exc:
            kills += 1
            report = exc.report
            recomputed += report.resumed_recomputed_stages
            wasted += report.wasted_shard_results
            if not first:
                resumes += 1
            first = False
            if kills > max_resumes:
                raise RuntimeError(
                    f"differential did not converge after {kills} kills"
                )
            continue
        recomputed += report.resumed_recomputed_stages
        wasted += report.wasted_shard_results
        if not first:
            resumes += 1
        break

    clean_report = _canonical_report(clean_dir)
    resumed_report = _canonical_report(chaos_dir)
    return DifferentialResult(
        seed=config.seed,
        kill_after=kill_after,
        kills=kills,
        resumes=resumes,
        resumed_recomputed_stages=recomputed,
        wasted_shard_results=wasted,
        reports_identical=clean_report == resumed_report,
        clean_report=clean_report,
        resumed_report=resumed_report,
    )
