"""Attention primitives used across Pairformer and Diffusion modules.

The attention core (logits -> softmax -> context) runs in blocks along
the leading axis of the head-split ``(..., H, L, D)`` tensors — batch
rows for triangle attention, heads for single attention.  One blocked
core serves every :class:`~repro.parallel.plan.ExecutionPlan`; the
modes differ only in the ``(bounds, workers, workspace_rows)`` that
:meth:`~repro.parallel.plan.ExecutionPlan.block_schedule` returns:

* resident/serial (no plan, or ``workers == 1``): one block covering
  the whole axis, returned without a copy;
* chunked (``plan.workers > 1`` or a ``chunk``): the axis split evenly
  across a thread pool — a *throughput* knob; every chunk's logits are
  live at once, so peak workspace is unchanged;
* tiled (``plan.attention == "tiled"``): *fixed-size* tiles streamed
  one after another into a preallocated output — a *memory* knob
  (flash-style scheduling): peak attention workspace drops from
  O(L²·heads) resident to O(L·block), because only one tile's
  (block, H, L, L) logits are ever live.

Blocking only ever splits *batched* numpy operations along a leading
batch axis, which is bit-exact: batched matmul, broadcast add, and
last-axis softmax all compute each batch element independently, so the
assembled blocks equal the one-block result to the last bit (the
differential tests pin this with ``==``).  The 2-D q/k/v/gate/out
projections are never blocked — BLAS gemm kernels are *not* bit-stable
across M-dim splits — which is exactly the design rule
docs/parallelism.md audits.

Why tiling the leading batch axis, and not streaming the softmax along
the key axis: a true running-max/rescale streaming softmax changes the
order in which ``np.sum``'s pairwise reduction combines terms, so it
cannot reproduce the resident reduction bit for bit.  Leading-axis
tiles compute each batch element's full softmax row exactly as the
resident path does.  The workspace bound is the same O(L·block)
either way.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..parallel.plan import ExecutionPlan
from .ops import OpCounter, init_linear, linear, sigmoid, softmax

#: The schedule used when no plan is given: one resident block.
RESIDENT = ExecutionPlan()


def split_heads(x: np.ndarray, num_heads: int) -> np.ndarray:
    """``(..., L, H*D) -> (..., H, L, D)``."""
    *batch, length, channels = x.shape
    if channels % num_heads:
        raise ValueError("channels must divide evenly into heads")
    head_dim = channels // num_heads
    x = x.reshape(*batch, length, num_heads, head_dim)
    return np.moveaxis(x, -2, -3)


def merge_heads(x: np.ndarray) -> np.ndarray:
    """``(..., H, L, D) -> (..., L, H*D)``."""
    x = np.moveaxis(x, -3, -2)
    *batch, length, num_heads, head_dim = x.shape
    return x.reshape(*batch, length, num_heads * head_dim)


def run_blocks(
    one_block: Callable[[Tuple[int, int]], np.ndarray],
    bounds: List[Tuple[int, int]],
    workers: int,
) -> np.ndarray:
    """``one_block((lo, hi))`` over leading-axis ``bounds``, assembled
    along axis 0.

    A single block is returned as is, without a copy.  With
    ``workers > 1`` the blocks run on a thread pool; otherwise they
    run one after another and each lands in a preallocated output as
    soon as it is computed, so one block's workspace is live at a time.
    """
    if len(bounds) == 1:
        return one_block(bounds[0])
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            blocks = list(pool.map(one_block, bounds))
    else:
        blocks = map(one_block, bounds)
    out = None
    for (lo, hi), block in zip(bounds, blocks):
        if out is None:
            out = np.empty((bounds[-1][1],) + block.shape[1:], block.dtype)
        out[lo:hi] = block
    return out


class MultiHeadAttention:
    """Gated multi-head attention with optional additive logit bias.

    This is the shared engine behind triangle attention (bias = the
    third pair edge), single attention with pair bias, and the
    diffusion transformer's global attention.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        channels: int,
        num_heads: int,
        out_channels: Optional[int] = None,
    ) -> None:
        if channels % num_heads:
            raise ValueError("channels must be divisible by num_heads")
        self.channels = channels
        self.num_heads = num_heads
        self.head_dim = channels // num_heads
        out_channels = out_channels or channels
        self.params: Dict[str, Dict[str, np.ndarray]] = {
            "q": init_linear(rng, channels, channels),
            "k": init_linear(rng, channels, channels),
            "v": init_linear(rng, channels, channels),
            "gate": init_linear(rng, channels, channels),
            "out": init_linear(rng, channels, out_channels),
        }

    def __call__(
        self,
        x_q: np.ndarray,
        x_kv: Optional[np.ndarray] = None,
        bias: Optional[np.ndarray] = None,
        counter: Optional[OpCounter] = None,
        plan: Optional[ExecutionPlan] = None,
    ) -> np.ndarray:
        """Attention over the second-to-last axis.

        ``x_q``: (..., Lq, C); ``x_kv``: (..., Lk, C) (defaults to
        ``x_q``); ``bias``: broadcastable to (..., H, Lq, Lk).
        ``plan`` picks the attention core's block schedule (resident,
        chunked or tiled); outputs are bit-equal for every plan.
        """
        x_kv = x_q if x_kv is None else x_kv
        q = split_heads(linear(x_q, self.params["q"], counter), self.num_heads)
        k = split_heads(linear(x_kv, self.params["k"], counter), self.num_heads)
        v = split_heads(linear(x_kv, self.params["v"], counter), self.num_heads)
        bounds, workers, workspace_rows = (
            (plan or RESIDENT).block_schedule(q.shape[0])
        )
        context = run_blocks(self._block_fn(q, k, v, bias), bounds, workers)
        if counter is not None:
            self._record_core(counter, q, k, v, context, workspace_rows)
        merged = merge_heads(context)
        gate = sigmoid(linear(x_q, self.params["gate"], counter), counter)
        return linear(merged * gate, self.params["out"], counter)

    def _block_fn(
        self,
        q: np.ndarray,
        k: np.ndarray,
        v: np.ndarray,
        bias: Optional[np.ndarray],
    ):
        """Closure computing logits -> softmax -> context for one
        ``[lo, hi)`` slice of ``q``'s leading axis (batch rows, or
        heads when there is no batch axis)."""
        denom = np.sqrt(self.head_dim)
        # Which bias axis lines up with q's axis 0 (right-aligned
        # broadcasting); size-1 axes broadcast and are never sliced.
        bias_axis = None
        if bias is not None:
            axis = bias.ndim - q.ndim
            if axis >= 0 and bias.shape[axis] != 1:
                bias_axis = axis

        def one_block(lo_hi):
            lo, hi = lo_hi
            logits = np.matmul(
                q[lo:hi], np.swapaxes(k[lo:hi], -1, -2)
            ) / denom
            if bias is not None:
                if bias_axis is not None:
                    sl = [slice(None)] * bias.ndim
                    sl[bias_axis] = slice(lo, hi)
                    logits = logits + bias[tuple(sl)]
                else:
                    logits = logits + bias
            weights = softmax(logits, axis=-1)
            return np.matmul(weights, v[lo:hi])

        return one_block

    def _record_core(
        self,
        counter: OpCounter,
        q: np.ndarray,
        k: np.ndarray,
        v: np.ndarray,
        context: np.ndarray,
        workspace_rows: int,
    ) -> None:
        """Record the serial path's matmul/softmax/matmul totals (all
        three are linear in the batch axis, so the totals are identical
        for any blocking).  ``workspace_rows`` bounds the *live* logits
        rows — the full leading axis for worker chunking (every chunk
        is live at once on the pool), one tile for tiled streaming —
        and only affects the ``activations_bytes`` peak, never totals.
        """
        lk = k.shape[-2]
        logits_size = (q.size // self.head_dim) * lk
        # The raw q @ k^T product keeps the input dtype; the 1/sqrt(d)
        # scale is an np.float64 scalar and promotes the scaled logits
        # (and everything downstream) to float64 — mirror both so the
        # blocked totals equal the serial matmul/softmax/matmul records
        # bit for bit.
        raw_nbytes = float(
            logits_size * np.result_type(q.dtype, k.dtype).itemsize
        )
        post_nbytes = float(logits_size * context.dtype.itemsize)
        rows = max(1, q.shape[0])
        frac = min(workspace_rows, rows) / rows
        counter.record(
            flops=2.0 * logits_size * self.head_dim,
            bytes_read=float(q.nbytes + k.nbytes),
            bytes_written=raw_nbytes,
            activations_bytes=raw_nbytes * frac,
        )
        counter.record(
            flops=5.0 * logits_size,
            bytes_read=post_nbytes,
            bytes_written=post_nbytes,
            activations_bytes=post_nbytes * frac,
        )
        counter.record(
            flops=2.0 * context.size * lk,
            bytes_read=post_nbytes + float(v.nbytes),
            bytes_written=float(context.nbytes),
            activations_bytes=float(context.nbytes),
        )
