"""Priority job queues for the cluster scheduler.

Three strict-priority FIFO classes (high / normal / low), matching the
AWS Batch job-queue idiom: a queue drains its highest class first and
ties break on job id, so a migrated job re-enters *ahead* of jobs that
arrived after it (its id is older) — migration never costs a job its
place in line, and the order is a pure function of queue content.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional

from .jobs import ClusterJob

__all__ = ["PriorityJobQueue"]


class PriorityJobQueue:
    """Strict-priority queue ordered by ``(priority, job_id)``."""

    def __init__(self) -> None:
        self._heap: List = []
        self._members: set = set()
        self.pushes = 0
        self.requeues = 0

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def push(self, job: ClusterJob, requeue: bool = False) -> None:
        if job.job_id in self._members:
            raise ValueError(f"job {job.job_id} is already queued")
        heapq.heappush(self._heap, (job.priority, job.job_id, job))
        self._members.add(job.job_id)
        self.pushes += 1
        if requeue:
            self.requeues += 1

    def pop(self) -> Optional[ClusterJob]:
        if not self._heap:
            return None
        _, _, job = heapq.heappop(self._heap)
        self._members.discard(job.job_id)
        return job

    def depths(self) -> Dict[int, int]:
        """Queued jobs per priority class (missing classes omitted)."""
        depths: Dict[int, int] = {}
        for priority, _, _ in self._heap:
            depths[priority] = depths.get(priority, 0) + 1
        return depths
