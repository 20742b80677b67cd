"""The execution plan: one knob object for every real hot path.

The simulators in :mod:`repro.hardware` model how the *paper's*
platforms scale; this package makes the repo's own numpy hot paths
actually use more than one core so the two can be compared.  A single
frozen :class:`ExecutionPlan` travels from the CLI (``--workers``)
through :class:`repro.core.pipeline.Af3Pipeline` into the MSA scan and
the Pairformer layers:

* ``workers`` — how many OS workers (processes for the database scan,
  threads for the model ops) may run concurrently;
* ``chunk`` — how many leading-axis rows/heads one model-op chunk
  covers (``None`` = split evenly across workers);
* ``backend`` — ``"process"``/``"thread"``/``"serial"``, or ``"auto"``
  to let each hot path pick its natural backend.

Determinism contract: a plan never changes *what* is computed, only
*how it is scheduled*.  The sharded MSA scan is byte-identical to the
serial scan for any worker count (shard boundaries depend only on
``scan_shards``, never on ``workers``), the chunked model ops only
split batched numpy operations along leading batch axes, which is
bit-exact (see docs/parallelism.md for the audit).  The MSA scan
always runs the batched kernels, which reproduce the scalar reference
kernels bit for bit (scores, cells, band widths, hit sets — see
docs/kernels.md for why).
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Tuple

#: Valid values of :attr:`ExecutionPlan.backend`.
BACKENDS = ("auto", "serial", "thread", "process")

#: Valid values of :attr:`ExecutionPlan.attention`: ``"resident"``
#: materialises the full (..., H, Lq, Lk) logits tensor; ``"tiled"``
#: streams fixed-size tiles of the leading batch axis through a bounded
#: workspace (flash-style scheduling; see docs/memory_planner.md).
ATTENTION_MODES = ("resident", "tiled")

#: Scopes :attr:`ExecutionPlan.recompute_scopes` may name.  Listing a
#: scope trades FLOPs for bytes: the layer drops a retained activation
#: and recomputes it (bit-identically — the recomputed op is a
#: deterministic elementwise function of an input that is still live).
RECOMPUTE_SCOPES = ("triangle_mult",)

#: Tile rows used by ``attention="tiled"`` when no explicit
#: ``attention_block`` was planned.
DEFAULT_ATTENTION_BLOCK = 16


@dataclasses.dataclass(frozen=True)
class ExecutionPlan:
    """How the real hot paths may spread work across cores."""

    workers: int = 1
    chunk: Optional[int] = None
    backend: str = "auto"
    attention: str = "resident"
    attention_block: Optional[int] = None
    recompute_scopes: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.chunk is not None and self.chunk < 1:
            raise ValueError("chunk must be >= 1 (or None)")
        if self.backend not in BACKENDS:
            raise ValueError(
                f"backend must be one of {BACKENDS}, got {self.backend!r}"
            )
        if self.attention not in ATTENTION_MODES:
            raise ValueError(
                f"attention must be one of {ATTENTION_MODES}, "
                f"got {self.attention!r}"
            )
        if self.attention_block is not None and self.attention_block < 1:
            raise ValueError("attention_block must be >= 1 (or None)")
        for scope in self.recompute_scopes:
            if scope not in RECOMPUTE_SCOPES:
                raise ValueError(
                    f"recompute scope must be one of {RECOMPUTE_SCOPES}, "
                    f"got {scope!r}"
                )

    @classmethod
    def serial(cls) -> "ExecutionPlan":
        """The do-nothing plan: one worker, no chunking."""
        return cls(workers=1, backend="serial")

    def with_workers(self, workers: int) -> "ExecutionPlan":
        """This plan at a different worker count (per-stage plans in a
        campaign derive from one CLI ``--workers`` value this way)."""
        return dataclasses.replace(self, workers=workers)

    @property
    def is_serial(self) -> bool:
        return self.workers == 1 and self.chunk is None

    def resolve_backend(self, default: str) -> str:
        """Concrete backend for one hot path (``default`` is the path's
        natural choice: ``"process"`` for the scan, ``"thread"`` for
        the in-process model ops)."""
        if self.workers == 1:
            return "serial"
        return default if self.backend == "auto" else self.backend

    def chunk_size(self, n: int) -> int:
        """Rows per chunk when splitting a length-``n`` leading axis."""
        if self.chunk is not None:
            return min(self.chunk, max(1, n))
        if self.workers == 1:
            return max(1, n)
        return max(1, -(-n // self.workers))  # ceil(n / workers)

    def chunk_bounds(self, n: int) -> List[Tuple[int, int]]:
        """Contiguous ``[start, end)`` chunks covering ``range(n)``."""
        size = self.chunk_size(n)
        return [(start, min(start + size, n)) for start in range(0, n, size)]

    @property
    def is_tiled(self) -> bool:
        """Whether the attention/triangle cores stream fixed-size tiles
        through a bounded workspace instead of materialising resident
        O(L²·heads) intermediates."""
        return self.attention == "tiled"

    def tile_rows(self, n: int) -> int:
        """Rows per tile when streaming a length-``n`` leading axis
        through the tiled attention/triangle workspace."""
        block = self.attention_block or DEFAULT_ATTENTION_BLOCK
        return min(block, max(1, n))

    def tile_bounds(self, n: int) -> List[Tuple[int, int]]:
        """Fixed-size ``[start, end)`` tiles covering ``range(n)``.

        Unlike :meth:`chunk_bounds` (which splits *evenly across
        workers* so one worker gets one chunk), tile bounds are a
        memory-planner knob: the tile size caps the live workspace and
        is independent of the worker count.
        """
        size = self.tile_rows(n)
        return [(start, min(start + size, n)) for start in range(0, n, size)]

    def block_schedule(
        self, n: int
    ) -> Tuple[List[Tuple[int, int]], int, int]:
        """How the attention and triangle cores run a length-``n``
        leading axis: ``(bounds, workers, workspace_rows)``.

        * resident/serial: one block ``[(0, n)]`` on one thread;
        * chunked: even :meth:`chunk_bounds` on ``workers`` threads,
          every chunk live at once, so the workspace is all ``n`` rows;
        * tiled: fixed :meth:`tile_bounds` run one after another, so
          only :meth:`tile_rows` rows of workspace are ever live.
        """
        if self.is_tiled:
            return self.tile_bounds(n), 1, self.tile_rows(n)
        if self.is_serial:
            return [(0, n)], 1, n
        return self.chunk_bounds(n), self.workers, n
