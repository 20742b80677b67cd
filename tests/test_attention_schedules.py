"""The non-default attention schedules, pinned end to end.

``resident`` and ``tiled`` change admission and the reported memory of
a run; the default ``chunked`` path is pinned elsewhere.  The golden
``tests/golden/attention_schedules.json`` holds, byte for byte:

* the stdout of ``repro --seed 0 run --sample 2PV7 --format json``
  under each explicit schedule (and a tiled run against a workspace
  budget);
* the exit code and stderr of the two refused ``run`` invocations;
* every persisted ``*.inference.json`` task document of one campaign
  per schedule over a cohort that mixes short targets with
  >=2,600-residue ones, so each outcome appears: ok, the resident
  OOM and the planner's admission refusal.

Regenerate (only on a deliberate behaviour change) with
``PYTHONPATH=src python -m tests.test_attention_schedules``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import pathlib
import tempfile

import pytest

from repro.core.estimator import DEFAULT_PLATFORMS, estimate
from repro.hardware.gpu import GpuOutOfMemoryError, InferenceSimulator
from repro.hardware.platform import SERVER
from repro.model.memory_planner import (
    AttentionSchedule,
    MemoryBudgetError,
    plan_for_device,
    plan_memory,
    resolve_schedule,
)
from repro.sequences.builtin import builtin_samples, get_sample

GOLDEN = pathlib.Path(__file__).parent / "golden" / "attention_schedules.json"

_RUN = ["--seed", "0", "run", "--sample", "2PV7", "--format", "json"]

#: ``run`` flag sets whose stdout is pinned (all exit 0).
RUNS = {
    "resident": ["--attention", "resident"],
    "tiled": ["--attention", "tiled"],
    "tiled-512mb": ["--attention", "tiled", "--memory-budget-mb", "512"],
}

#: ``run`` flag sets that are refused: exit code and stderr are pinned.
REFUSALS = {
    "tiled-1mb": ["--attention", "tiled", "--memory-budget-mb", "1"],
    "chunked-512mb": ["--attention", "chunked", "--memory-budget-mb", "512"],
}

SCHEDULES = ("chunked", "resident", "tiled")


def _cli(flags):
    from repro.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(_RUN + flags)
    return code, out.getvalue(), err.getvalue()


def _cohort():
    from repro.campaign import seeded_manifest

    long_targets = [
        dataclasses.replace(t, target_id=f"L{t.target_id}")
        for t in seeded_manifest(
            2, seed=1, min_residues=2600, max_residues=3200
        )
    ]
    return seeded_manifest(3, seed=0) + long_targets


def _inference_docs(attention):
    from repro.campaign import CampaignConfig, run_campaign

    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp) / "camp"
        run_campaign(
            root, targets=_cohort(),
            config=CampaignConfig(attention=attention),
        )
        return {
            path.name: path.read_text()
            for path in sorted((root / "tasks").glob("*.inference.json"))
        }


def snapshot():
    """Everything the golden pins, as one JSON-able document."""
    runs = {}
    for name, flags in RUNS.items():
        code, out, _ = _cli(flags)
        assert code == 0, name
        runs[name] = out
    refusals = {}
    for name, flags in REFUSALS.items():
        code, out, err = _cli(flags)
        assert out == "", name
        refusals[name] = {"exit": code, "stderr": err}
    return {
        "run": runs,
        "refused": refusals,
        "campaign": {s: _inference_docs(s) for s in SCHEDULES},
    }


def _render(doc):
    return json.dumps(doc, indent=2) + "\n"


def test_attention_schedules_golden():
    assert _render(snapshot()) == GOLDEN.read_text()


@pytest.mark.parametrize("name", ["chunked", "resident"])
def test_estimate_admits_exactly_as_run(name):
    """The static pre-check's GPU verdict is the device model's: a
    platform fits iff inference under the same schedule, with the same
    unified-memory rule, does not raise."""
    schedule = AttentionSchedule(name)
    for sample in builtin_samples().values():
        verdicts = {
            v.platform_name: v.gpu_fits
            for v in estimate(sample.assembly, schedule=schedule).verdicts
        }
        for platform in DEFAULT_PLATFORMS:
            simulator = InferenceSimulator(
                platform.gpu, platform.host_single_thread_ips,
                chunked_triangle=schedule.chunked_triangle,
            )
            try:
                simulator.run(
                    sample.assembly.num_tokens,
                    allow_unified_memory=schedule.allow_unified_memory,
                )
                runs = True
            except GpuOutOfMemoryError:
                runs = False
            assert verdicts[platform.name] == runs, (
                sample.name, platform.name
            )


class TestAttentionSchedule:
    def test_rule_per_schedule(self):
        chunked, resident = AttentionSchedule(), AttentionSchedule("resident")
        tiled = AttentionSchedule("tiled", 64)
        assert [s.chunked_triangle for s in (chunked, resident, tiled)] == [
            True, False, True
        ]
        assert [s.live_block for s in (chunked, resident, tiled)] == [
            None, None, 64
        ]
        assert [
            s.allow_unified_memory for s in (chunked, resident, tiled)
        ] == [True, False, False]

    @pytest.mark.parametrize("name,block", [
        ("flash", None), ("chunked", 8), ("resident", 8), ("tiled", 0),
    ])
    def test_rejects_bad_values(self, name, block):
        with pytest.raises(ValueError):
            AttentionSchedule(name, block)

    def test_unplanned_tiled_has_no_live_block(self):
        with pytest.raises(ValueError, match="needs a block"):
            AttentionSchedule("tiled").live_block
        with pytest.raises(ValueError, match="needs a block"):
            estimate(get_sample("6QNR").assembly,
                     schedule=AttentionSchedule("tiled"))

    def test_resolver_plans_only_an_unplanned_tiled_schedule(self):
        n, device = 1395, SERVER.gpu.memory_bytes
        for given in (
            AttentionSchedule(), AttentionSchedule("resident"),
            AttentionSchedule("tiled", 7),
        ):
            assert resolve_schedule(given, n, device) == (given, None)
        schedule, plan = resolve_schedule(
            AttentionSchedule("tiled"), n, device
        )
        assert plan.summary() == plan_for_device(
            n, device, allow_resident=False
        ).summary()
        assert schedule == AttentionSchedule("tiled", plan.attention_block)
        budget = 512 * 1024 ** 2
        schedule, plan = resolve_schedule(
            AttentionSchedule("tiled"), 484, device, budget_bytes=budget
        )
        assert plan.summary() == plan_memory(
            484, budget, allow_resident=False
        ).summary()
        with pytest.raises(MemoryBudgetError):
            resolve_schedule(
                AttentionSchedule("tiled"), 484, device, budget_bytes=1.0
            )


if __name__ == "__main__":
    GOLDEN.write_text(_render(snapshot()))
    print(f"wrote {GOLDEN}")
