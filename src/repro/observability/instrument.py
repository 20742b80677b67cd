"""Gateway lifecycle probes: where spans come from.

The serving gateway narrates its discrete-event loop to a
:class:`GatewayProbe` — one method per lifecycle transition (request
arrived, MSA scan started, batch dispatched, worker crashed, ...).
The base class is a no-op, and the gateway holds one unconditionally,
so the *disabled* path costs a handful of empty method calls and
cannot change simulation results: golden serving and chaos summaries
are byte-identical with or without observability attached.

:class:`SpanProbe` is the real implementation: it turns the narration
into a deterministic span stream (see
:mod:`repro.observability.spans`) — a root ``request`` span per
request with wait/service children hung off it, service and fault
windows placed on per-worker tracks, and instants for the moments
that have no duration (cache hits, shed decisions, fault strikes).

This module deliberately imports nothing from ``repro.serving``: the
probe reads requests duck-typed (``request_id``, ``sample``,
``degraded`` ...), which keeps the import graph acyclic — the gateway
imports the probe, never the other way around.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from .spans import REQUEST_TRACK, Span, SpanRecorder


class GatewayProbe:
    """No-op observability hooks the gateway calls as events fire.

    Subclass and override the transitions you care about.  Every
    method receives the gateway's current simulated time ``now``;
    none may mutate the request or return anything the gateway acts
    on — probes observe, they never steer.
    """

    def attach(self, num_gpu_workers: int, num_msa_workers: int) -> None:
        """A run is starting; reset any per-run state."""

    # -- request lifecycle ----------------------------------------------

    def request_arrived(self, request, now: float) -> None:
        """First admission attempt of a request (its ARRIVE moment)."""

    def retry_started(self, request, now: float) -> None:
        """A retry re-entered admission (its backoff wait is over)."""

    def request_shed(self, request, now: float) -> None:
        """Admission control rejected the request (terminal)."""

    def cache_hit(self, request, now: float) -> None:
        """The MSA cache answered; the request skips the MSA stage."""

    def store_hit(self, request, now: float) -> None:
        """Every chain's features came out of the disk feature store."""

    def store_miss(self, request, now: float) -> None:
        """At least one chain was absent from the disk feature store."""

    def store_wait_shared(self, request, now: float, owner: str) -> None:
        """The request subscribed to another key's in-flight chain
        computation (cluster-wide coalescing via the lease table)."""

    def store_waiter_released(self, request, now: float) -> None:
        """A store-coalesced waiter was woken for re-routing."""

    def msa_queued(self, request, now: float) -> None:
        """The request started waiting for an MSA worker."""

    def msa_wait_shared(self, request, now: float) -> None:
        """The request coalesced onto another request's in-flight MSA."""

    def msa_leader_promoted(self, request, now: float) -> None:
        """A coalesced waiter was promoted to run the MSA itself."""

    def msa_started(
        self, request, worker: int, now: float,
        base_shards: int, planned: float, stall: float,
    ) -> None:
        """An MSA worker began scanning for the request."""

    def msa_finished(
        self, request, worker: int, now: float, corrupted: bool
    ) -> None:
        """The scan ran to completion (possibly over a corrupt stream)."""

    def msa_aborted(
        self, request, worker: int, now: float, checkpoint_shards: int
    ) -> None:
        """The scan died mid-stream (worker crash/preemption)."""

    def msa_waiter_released(self, waiter, now: float) -> None:
        """A coalesced waiter's shared MSA finished."""

    def batch_queued(self, request, now: float) -> None:
        """The request entered the dynamic batcher."""

    def batch_started(
        self, worker: int, batch, now: float,
        bucket: int, latency: float, rewarm: float,
    ) -> None:
        """A GPU worker began executing a batch."""

    def batch_oom(self, worker: int, batch, now: float) -> None:
        """A dispatch attempt exceeded device memory."""

    def batch_finished(self, worker: int, batch, now: float) -> None:
        """The batch completed; its members are done."""

    def batch_aborted(self, worker: int, batch, now: float) -> None:
        """The executing batch died with its worker."""

    def attempt_timed_out(self, request, now: float) -> None:
        """The per-attempt timeout preempted a waiting request."""

    def backoff_started(
        self, request, now: float, seconds: float
    ) -> None:
        """The request entered retry backoff for ``seconds``."""

    def degraded_fallback(self, request, now: float, why: str) -> None:
        """Retries exhausted; serving reduced-depth instead of failing."""

    def request_done(self, request, now: float) -> None:
        """The request completed (full-quality or degraded)."""

    def request_timed_out(self, request, now: float) -> None:
        """Retries exhausted with no fallback (terminal)."""

    def request_failed(self, request, now: float, reason: str) -> None:
        """The request failed terminally (e.g. singleton OOM)."""

    # -- worker / fault lifecycle ---------------------------------------

    def worker_down(
        self, domain: str, worker: int, now: float, kind: str
    ) -> None:
        """A worker left the pool (``kind``: crash or preemption)."""

    def worker_up(
        self, domain: str, worker: int, now: float, mode: str
    ) -> None:
        """A worker returned (``mode``: restart or return)."""

    def breaker_opened(self, domain: str, worker: int, now: float) -> None:
        """A circuit breaker ejected the worker from dispatch."""

    def breaker_probe(self, domain: str, worker: int, now: float) -> None:
        """A breaker cooldown expired; the worker is being probed."""

    def fault_window(
        self, domain: str, worker: int, name: str,
        now: float, seconds: float, **attrs,
    ) -> None:
        """A windowed fault (OOM spike, slow node) covers [now, now+s)."""

    def fault_instant(
        self, domain: str, worker: int, name: str, now: float,
        request_id: Optional[int] = None, **attrs,
    ) -> None:
        """A momentary fault strike (DB stall applied, corruption)."""

    def run_finished(self, now: float) -> None:
        """The event heap drained; the run is over."""


#: The shared disabled probe (the gateway's default).
NULL_PROBE = GatewayProbe()


class SpanProbe(GatewayProbe):
    """Builds the deterministic span stream for one gateway run.

    Per request it maintains a root ``request`` span plus at most one
    open child per stage name, so retries reuse names (two
    ``queue.msa`` spans, one per attempt) without ambiguity.  Service
    spans (``msa.scan``, ``gpu.batch``) land on per-worker tracks —
    that is what makes utilization gaps and crash windows visible when
    the export is opened in Perfetto.
    """

    def __init__(self, recorder: Optional[SpanRecorder] = None) -> None:
        self.recorder = recorder or SpanRecorder()
        self._reset_state(0, 0)

    def _reset_state(self, gpus: int, msas: int) -> None:
        self._root: Dict[int, Span] = {}
        self._open: Dict[Tuple[int, str], Span] = {}
        self._batch_open: Dict[int, Span] = {}
        self._down_open: Dict[Tuple[str, int], Span] = {}
        self._batch_seq = 0
        self._tracks = (
            [f"gpu-{i}" for i in range(gpus)]
            + [f"msa-{i}" for i in range(msas)]
        )

    # -- bookkeeping helpers --------------------------------------------

    def _begin_child(
        self, request, name: str, now: float, *,
        track: str = REQUEST_TRACK, **attrs,
    ) -> Span:
        rid = request.request_id
        root = self._root[rid]
        span = self.recorder.begin(
            name, now, track=track, request_id=rid,
            parent_id=root.span_id, **attrs,
        )
        self._open[(rid, name)] = span
        return span

    def _end_child(
        self, request, name: str, now: float,
        status: str = "ok", **attrs,
    ) -> Optional[Span]:
        span = self._open.pop((request.request_id, name), None)
        if span is not None:
            self.recorder.finish(span, now, status, **attrs)
        return span

    def _end_all_children(
        self, request, now: float, status: str
    ) -> None:
        rid = request.request_id
        for key in [k for k in self._open if k[0] == rid]:
            self.recorder.finish(self._open.pop(key), now, status)

    def _finish_root(self, request, now: float, status: str) -> None:
        root = self._root.get(request.request_id)
        if root is None or not root.open:
            return
        attrs = {"attempts": request.attempts}
        if request.failure_reason:
            attrs["reason"] = request.failure_reason
        self.recorder.finish(root, now, status, **attrs)

    # -- GatewayProbe implementation ------------------------------------

    def attach(self, num_gpu_workers: int, num_msa_workers: int) -> None:
        self.recorder.reset()
        self._reset_state(num_gpu_workers, num_msa_workers)
        self.recorder.declare_tracks(self._tracks)

    def request_arrived(self, request, now: float) -> None:
        self._root[request.request_id] = self.recorder.begin(
            "request", now, track=REQUEST_TRACK,
            request_id=request.request_id,
            sample=request.sample.name,
            tokens=request.num_tokens,
        )

    def retry_started(self, request, now: float) -> None:
        self._end_child(request, "backoff", now)

    def request_shed(self, request, now: float) -> None:
        rid = request.request_id
        self.recorder.instant(
            "shed", now, track=REQUEST_TRACK, request_id=rid,
            parent_id=self._root[rid].span_id, status="shed",
        )
        self._finish_root(request, now, "shed")

    def cache_hit(self, request, now: float) -> None:
        rid = request.request_id
        self.recorder.instant(
            "msa.cache_hit", now, track=REQUEST_TRACK, request_id=rid,
            parent_id=self._root[rid].span_id,
            depth=request.msa_depth,
        )

    def store_hit(self, request, now: float) -> None:
        rid = request.request_id
        self.recorder.instant(
            "store.hit", now, track=REQUEST_TRACK, request_id=rid,
            parent_id=self._root[rid].span_id,
            chains=len(request.chain_keys()),
        )

    def store_miss(self, request, now: float) -> None:
        rid = request.request_id
        self.recorder.instant(
            "store.miss", now, track=REQUEST_TRACK, request_id=rid,
            parent_id=self._root[rid].span_id,
            chains=len(request.chain_keys()),
        )

    def store_wait_shared(self, request, now: float, owner: str) -> None:
        self._begin_child(
            request, "store.wait_shared", now, owner=owner
        )

    def store_waiter_released(self, request, now: float) -> None:
        self._end_child(request, "store.wait_shared", now)

    def msa_queued(self, request, now: float) -> None:
        self._begin_child(request, "queue.msa", now)

    def msa_wait_shared(self, request, now: float) -> None:
        self._begin_child(request, "msa.wait_shared", now)

    def msa_leader_promoted(self, request, now: float) -> None:
        # "promoted", not "ok": the shared wait did not complete into a
        # finished scan — it rolled over into a queue.msa stage whose
        # own outcome decides whether the ledger ever charges the wait
        # (reconcile_with_trace keys on exactly that distinction).
        self._end_child(
            request, "msa.wait_shared", now, "promoted",
            promoted_leader=True,
        )
        self._begin_child(request, "queue.msa", now)

    def msa_started(
        self, request, worker: int, now: float,
        base_shards: int, planned: float, stall: float,
    ) -> None:
        self._end_child(request, "queue.msa", now)
        attrs = {"worker": worker, "planned_seconds": round(planned, 6)}
        if base_shards:
            attrs["resumed_shards"] = base_shards
        if stall:
            attrs["stall_seconds"] = round(stall, 6)
        self._begin_child(
            request, "msa.scan", now, track=f"msa-{worker}", **attrs
        )

    def msa_finished(
        self, request, worker: int, now: float, corrupted: bool
    ) -> None:
        self._end_child(
            request, "msa.scan", now, "corrupt" if corrupted else "ok"
        )

    def msa_aborted(
        self, request, worker: int, now: float, checkpoint_shards: int
    ) -> None:
        self._end_child(
            request, "msa.scan", now, "aborted",
            checkpoint_shards=checkpoint_shards,
        )

    def msa_waiter_released(self, waiter, now: float) -> None:
        self._end_child(waiter, "msa.wait_shared", now)

    def batch_queued(self, request, now: float) -> None:
        self._begin_child(request, "queue.batch", now)

    def batch_started(
        self, worker: int, batch, now: float,
        bucket: int, latency: float, rewarm: float,
    ) -> None:
        self._batch_seq += 1
        batch_id = f"b{self._batch_seq}"
        attrs = {
            "batch_id": batch_id,
            "batch_size": len(batch),
            "bucket": bucket,
            "requests": [m.request_id for m in batch],
        }
        if rewarm:
            attrs["rewarm_seconds"] = round(rewarm, 6)
        self._batch_open[worker] = self.recorder.begin(
            "gpu.batch", now, track=f"gpu-{worker}", **attrs
        )
        for member in batch:
            self._end_child(member, "queue.batch", now)
            member_attrs = {
                "worker": worker, "batch_id": batch_id,
                "batch_size": len(batch),
            }
            if rewarm:
                member_attrs["rewarm_seconds"] = round(rewarm, 6)
            self._begin_child(member, "gpu.infer", now, **member_attrs)

    def batch_oom(self, worker: int, batch, now: float) -> None:
        self.recorder.instant(
            "gpu.oom", now, track=f"gpu-{worker}", status="oom",
            requests=[m.request_id for m in batch],
        )
        for member in batch:
            self._end_child(member, "queue.batch", now, "oom")

    def batch_finished(self, worker: int, batch, now: float) -> None:
        span = self._batch_open.pop(worker, None)
        if span is not None:
            self.recorder.finish(span, now)
        for member in batch:
            self._end_child(member, "gpu.infer", now)

    def batch_aborted(self, worker: int, batch, now: float) -> None:
        span = self._batch_open.pop(worker, None)
        if span is not None:
            self.recorder.finish(span, now, "aborted")
        for member in batch:
            self._end_child(member, "gpu.infer", now, "aborted")

    def attempt_timed_out(self, request, now: float) -> None:
        self._end_all_children(request, now, "timed_out")

    def backoff_started(
        self, request, now: float, seconds: float
    ) -> None:
        self._begin_child(
            request, "backoff", now, backoff_seconds=round(seconds, 6)
        )

    def degraded_fallback(self, request, now: float, why: str) -> None:
        rid = request.request_id
        self.recorder.instant(
            "degraded.fallback", now, track=REQUEST_TRACK,
            request_id=rid, parent_id=self._root[rid].span_id,
            status="degraded", reason=why,
        )

    def request_done(self, request, now: float) -> None:
        self._finish_root(
            request, now, "degraded" if request.degraded else "ok"
        )

    def request_timed_out(self, request, now: float) -> None:
        self._finish_root(request, now, "timed_out")

    def request_failed(self, request, now: float, reason: str) -> None:
        self._end_all_children(request, now, "failed")
        self._finish_root(request, now, "failed_oom")

    def worker_down(
        self, domain: str, worker: int, now: float, kind: str
    ) -> None:
        self._down_open[(domain, worker)] = self.recorder.begin(
            "worker.down", now, track=f"{domain}-{worker}", kind=kind
        )

    def worker_up(
        self, domain: str, worker: int, now: float, mode: str
    ) -> None:
        span = self._down_open.pop((domain, worker), None)
        if span is not None:
            self.recorder.finish(span, now, mode=mode)

    def breaker_opened(self, domain: str, worker: int, now: float) -> None:
        self.recorder.instant(
            "breaker.open", now, track=f"{domain}-{worker}",
            status="open",
        )

    def breaker_probe(self, domain: str, worker: int, now: float) -> None:
        self.recorder.instant(
            "breaker.probe", now, track=f"{domain}-{worker}"
        )

    def fault_window(
        self, domain: str, worker: int, name: str,
        now: float, seconds: float, **attrs,
    ) -> None:
        span = self.recorder.begin(
            f"fault.{name}", now, track=f"{domain}-{worker}", **attrs
        )
        self.recorder.finish(span, now + seconds, "fault")

    def fault_instant(
        self, domain: str, worker: int, name: str, now: float,
        request_id: Optional[int] = None, **attrs,
    ) -> None:
        self.recorder.instant(
            f"fault.{name}", now, track=f"{domain}-{worker}",
            request_id=request_id, status="fault", **attrs,
        )

    def run_finished(self, now: float) -> None:
        # Defensive: nothing should still be open when the heap drains
        # (every request reaches a terminal state, every downed worker
        # gets a restart event), but an unfinished span must never
        # leak a None end time into exporters.
        for span in self.recorder.open_spans():
            self.recorder.finish(span, now, "unfinished")

