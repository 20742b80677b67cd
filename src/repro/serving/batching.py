"""Dynamic batching of same-bucket requests.

XLA executables are cached per padded shape bucket, so requests in the
same bucket can share one batched invocation: kernel-launch overhead is
paid once for the whole batch and only flops scale (see
``InferenceSimulator.compute_seconds``).  The batcher trades latency
for that amortisation under a hard bound: a batch dispatches when it
reaches ``max_batch`` or when its oldest member has waited
``max_wait_seconds``, whichever comes first — added queueing latency
is never more than the max-wait knob.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .queueing import RequestState, ServingRequest


class DynamicBatcher:
    """Per-bucket FIFO coalescing with a max-wait deadline."""

    def __init__(self, max_batch: int = 4, max_wait_seconds: float = 60.0):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_wait_seconds < 0:
            raise ValueError("max_wait_seconds must be >= 0")
        self.max_batch = max_batch
        self.max_wait_seconds = max_wait_seconds
        self._pending: Dict[int, List[Tuple[float, ServingRequest]]] = {}
        # Preformed batches (OOM splits) dispatch as-is, ahead of the
        # per-bucket queues — re-coalescing them would just OOM again.
        self._forced: List[Tuple[int, List[ServingRequest]]] = []

    def add(
        self,
        bucket: int,
        request: ServingRequest,
        now: float,
    ) -> None:
        """Enqueue the request in its bucket's FIFO, stamped ``now``
        (the stamp drives the max-wait deadline)."""
        self._pending.setdefault(bucket, []).append((now, request))

    def add_forced(
        self, bucket: int, requests: List[ServingRequest]
    ) -> None:
        """Queue an exact batch for immediate dispatch (no coalescing)."""
        self._forced.append((bucket, list(requests)))

    def remove(self, request: ServingRequest) -> bool:
        """Physically drop a request (timeout path). O(bucket depth)."""
        for bucket, entries in self._pending.items():
            for i, (_, queued) in enumerate(entries):
                if queued is request:
                    entries.pop(i)
                    if not entries:
                        del self._pending[bucket]
                    return True
        for _, members in self._forced:
            if request in members:
                members.remove(request)
                return True
        return False

    def depth(self) -> int:
        """Requests waiting across all buckets and forced batches."""
        return (
            sum(len(v) for v in self._pending.values())
            + sum(len(m) for _, m in self._forced)
        )

    def _dispatchable(self, bucket: int, now: float) -> bool:
        """Full batch, or the head has exhausted its max wait."""
        entries = self._pending[bucket]
        if len(entries) >= self.max_batch:
            return True
        # Tolerance absorbs float drift between the scheduled deadline
        # event time and the head's enqueue time.
        return now - entries[0][0] >= self.max_wait_seconds - 1e-9

    def pop_ready(
        self, now: float
    ) -> Optional[Tuple[int, List[ServingRequest]]]:
        """Oldest-head dispatchable batch, or None.

        Entries whose request left the QUEUED_BATCH state (timed out
        between events) are discarded here rather than dispatched.
        """
        while self._forced:
            bucket, members = self._forced.pop(0)
            members = [
                m for m in members
                if m.state is RequestState.QUEUED_BATCH
            ]
            if members:
                return bucket, members
        best_bucket, best_head = None, None
        for bucket, entries in self._pending.items():
            # Lazily drop invalidated heads so staleness never blocks
            # or falsely ripens a bucket.
            while entries and entries[0][1].state is not RequestState.QUEUED_BATCH:
                entries.pop(0)
            if not entries:
                continue
            if self._dispatchable(bucket, now):
                head = entries[0][0]
                if best_head is None or head < best_head:
                    best_bucket, best_head = bucket, head
        if best_bucket is None:
            self._pending = {b: e for b, e in self._pending.items() if e}
            return None
        entries = self._pending[best_bucket]
        batch: List[ServingRequest] = []
        while entries and len(batch) < self.max_batch:
            _, request = entries.pop(0)
            if request.state is RequestState.QUEUED_BATCH:
                batch.append(request)
        if not entries:
            del self._pending[best_bucket]
        if not batch:
            return self.pop_ready(now)
        return best_bucket, batch
