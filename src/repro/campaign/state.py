"""The durable campaign directory: stage outputs as checkpoints.

A campaign directory is the whole truth about a campaign::

    <dir>/campaign.json              # normalized manifest + config echo
    <dir>/tasks/<target>.<stage>.json  # one finished stage output each

Every task file is written atomically (temp file + ``os.replace``, the
:class:`~repro.store.FeatureStore` discipline) and durably (the temp
file is fsynced before the rename and the directory after it), so a
kill or a power cut can lose at most in-flight work — never corrupt or
drop a finished checkpoint.  Resuming
is therefore nothing but re-scanning the directory: whatever is on
disk is done, everything else is pending.  This is the durable sibling
of :class:`repro.faults.recovery.CheckpointStore` (which checkpoints
*intra-scan* shards in memory); the counter discipline — ``saved`` /
``adopted`` / ``recomputed`` — mirrors its ``saved`` / ``resumed`` /
``invalidated`` ledger so chaos audits read the same way.

Reading never writes: :meth:`CampaignState.scan_status` and
:meth:`load_outputs` are safe to run against a live campaign from
another process (the ``repro campaign status`` contract).
"""

from __future__ import annotations

import json
import pathlib
from collections import OrderedDict
from typing import List, Optional, Set, Union

from ..store.feature_store import atomic_write_text
from .dag import STAGES, TaskGraph
from .manifest import ChainSpec, TargetSpec

__all__ = ["CampaignState", "CampaignStateError", "atomic_write_json"]

_CAMPAIGN_DOC = "campaign.json"
_TASKS_DIR = "tasks"


class CampaignStateError(RuntimeError):
    """A campaign-directory problem with an actionable message."""


def atomic_write_json(path: pathlib.Path, doc) -> None:
    """Write ``doc`` as indented JSON through a durable
    :func:`atomic_write_text` (file and directory fsynced)."""
    atomic_write_text(path, json.dumps(doc, indent=2) + "\n", durable=True)


class CampaignState:
    """One campaign directory: config echo plus task checkpoints."""

    def __init__(self, root: Union[str, pathlib.Path]) -> None:
        self.root = pathlib.Path(root)
        self._tasks = self.root / _TASKS_DIR
        # CheckpointStore-style ledger for the resume audit.
        self.saved = 0        # stage outputs persisted this run
        self.adopted = 0      # finished outputs found on disk at load
        self.recomputed = 0   # saves overwriting an already-done task

    # -- campaign document ----------------------------------------------

    @property
    def campaign_doc_path(self) -> pathlib.Path:
        return self.root / _CAMPAIGN_DOC

    @property
    def exists(self) -> bool:
        return self.campaign_doc_path.exists()

    def initialize(self, targets: List[TargetSpec], config_doc) -> None:
        """Create (or validate) the campaign document.

        Re-running ``campaign run`` on an existing directory is legal
        only when manifest and config match what the directory was
        created with — resuming under a *different* config would mix
        incompatible checkpoints into one report.
        """
        doc = OrderedDict(
            version=1,
            config=config_doc,
            targets=[t.as_dict() for t in targets],
        )
        if self.exists:
            existing = json.loads(self.campaign_doc_path.read_text())
            if existing != json.loads(json.dumps(doc)):
                raise CampaignStateError(
                    f"campaign directory {self.root} was created with a "
                    f"different manifest or config — resume it as-is "
                    f"(repro campaign resume) or use a fresh directory"
                )
            return
        atomic_write_json(self.campaign_doc_path, doc)
        self._tasks.mkdir(parents=True, exist_ok=True)

    def load(self):
        """``(targets, config_doc)`` from the campaign document."""
        if not self.exists:
            raise CampaignStateError(
                f"{self.root} is not a campaign directory "
                f"(no {_CAMPAIGN_DOC}) — start one with "
                f"'repro campaign run --dir {self.root} ...'"
            )
        doc = json.loads(self.campaign_doc_path.read_text())
        targets = [
            TargetSpec(
                target_id=t["id"],
                chains=tuple(
                    ChainSpec(
                        molecule_type=c["molecule_type"],
                        sequence=c["sequence"],
                        copies=int(c.get("copies", 1)),
                    )
                    for c in t["chains"]
                ),
            )
            for t in doc["targets"]
        ]
        return targets, doc["config"]

    # -- task checkpoints ------------------------------------------------

    def task_path(self, tid: str) -> pathlib.Path:
        return self._tasks / f"{tid}.json"

    def save_output(self, doc, already_done: Set[str]) -> None:
        """Persist one finished task output (atomic).

        ``already_done`` is the set of task ids that were complete when
        this run started; overwriting one of those is *recomputation*
        and counted — the kill/resume differential pins that counter
        at zero.
        """
        tid = doc["task"]
        if tid in already_done:
            self.recomputed += 1
        atomic_write_json(self.task_path(tid), doc)
        self.saved += 1

    def load_outputs(self) -> "OrderedDict[str, dict]":
        """Every finished task output on disk, sorted by task id.

        Read-only; a half-written temp file (kill mid-replace) or
        unparseable document is skipped — the task simply counts as
        pending and will be recomputed.
        """
        out: "OrderedDict[str, dict]" = OrderedDict()
        if not self._tasks.exists():
            return out
        for path in sorted(self._tasks.glob("*.json")):
            try:
                doc = json.loads(path.read_text())
            except (OSError, ValueError):
                continue
            if isinstance(doc, dict) and doc.get("task") == path.stem:
                out[path.stem] = doc
        return out

    def adopt(self) -> "OrderedDict[str, dict]":
        """:meth:`load_outputs`, counting what a resume inherits."""
        outputs = self.load_outputs()
        self.adopted = len(outputs)
        return outputs

    # -- read-only status -------------------------------------------------

    def scan_status(
        self, graph: Optional[TaskGraph] = None
    ) -> "OrderedDict[str, OrderedDict]":
        """Per-stage done/failed/pending counts from a directory scan.

        Acquires no locks and mutates nothing — safe against a live
        campaign.  With a ``graph``, pending is split into runnable
        pending and ``blocked`` (downstream of a failed stage).
        """
        outputs = self.load_outputs()
        done = {t for t, d in outputs.items() if d.get("status") == "ok"}
        failed = {
            t for t, d in outputs.items() if d.get("status") == "failed"
        }
        if graph is None:
            targets, _config = self.load()
            from .dag import build_graph

            graph = build_graph(targets)
        blocked = {t.task_id for t in graph.blocked(done, failed)}
        status: "OrderedDict[str, OrderedDict]" = OrderedDict()
        for stage in STAGES:
            tasks = graph.stage_tasks(stage)
            ids = {t.task_id for t in tasks}
            n_done = len(ids & done)
            n_failed = len(ids & failed)
            n_blocked = len(ids & blocked)
            status[stage] = OrderedDict(
                total=len(ids),
                done=n_done,
                failed=n_failed,
                blocked=n_blocked,
                pending=len(ids) - n_done - n_failed - n_blocked,
            )
        return status

    def failed_records(self) -> List[dict]:
        """Failed task documents, sorted by task id (report surface)."""
        return [
            doc
            for _tid, doc in sorted(self.load_outputs().items())
            if doc.get("status") == "failed"
        ]
