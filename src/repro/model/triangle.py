"""Triangle layers: the Pairformer's characteristic (and costliest) ops.

Two families operate on the pair representation ``z`` of shape
``(N, N, c_pair)``:

* **Triangle multiplicative update** — refines each edge (i, j) by
  combining edges through every intermediate k, ``z_ij = sum_k a_ik *
  b_jk`` (outgoing) or ``sum_k a_ki * b_kj`` (incoming).  An N x N x N
  contraction: O(N^3 * c) FLOPs.
* **Triangle self-attention** — attention over the pair matrix rows
  (starting node) or columns (ending node), with logits biased by the
  third triangle edge.  Also O(N^3) in logit computation, with worse
  memory behaviour because the (H, N, N, N) logit tensor must
  materialise (in chunks) — this is why the paper finds triangle
  attention dominating Pairformer time.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..parallel.plan import ExecutionPlan
from .attention import RESIDENT, MultiHeadAttention, run_blocks
from .ops import OpCounter, init_linear, layer_norm, linear, sigmoid


def _ln_params(rng: np.random.Generator, dim: int) -> Dict[str, np.ndarray]:
    return {
        "gamma": np.ones(dim, dtype=np.float32),
        "beta": np.zeros(dim, dtype=np.float32),
    }


class TriangleMultiplication:
    """Triangle multiplicative update, outgoing or incoming variant."""

    def __init__(
        self,
        rng: np.random.Generator,
        c_pair: int,
        c_hidden: int,
        outgoing: bool = True,
    ) -> None:
        self.outgoing = outgoing
        self.c_pair = c_pair
        self.c_hidden = c_hidden
        self.norm_in = _ln_params(rng, c_pair)
        self.norm_out = _ln_params(rng, c_hidden)
        self.proj_a = init_linear(rng, c_pair, c_hidden)
        self.proj_b = init_linear(rng, c_pair, c_hidden)
        self.gate_a = init_linear(rng, c_pair, c_hidden)
        self.gate_b = init_linear(rng, c_pair, c_hidden)
        self.gate_out = init_linear(rng, c_pair, c_pair)
        self.proj_out = init_linear(rng, c_hidden, c_pair)

    def __call__(
        self,
        z: np.ndarray,
        counter: Optional[OpCounter] = None,
        plan: Optional[ExecutionPlan] = None,
    ) -> np.ndarray:
        """Update ``z`` (N, N, c_pair); returns the residual delta.

        The N x N x N contraction runs in output-row blocks of the
        plan's :meth:`~repro.parallel.plan.ExecutionPlan.block_schedule`:
        one block when resident, even chunks on a thread pool when
        chunked, fixed-size tiles in sequence when tiled (the einsum
        scratch is then bounded by one tile).  Each output row block is
        an independent einsum over the full ``k`` axis, so every
        schedule is bit-equal to the one-shot contraction.

        When the plan lists ``"triangle_mult"`` in
        ``recompute_scopes``, the normalised input ``zn`` — an
        (N, N, c_pair) retained activation — is freed before the cubic
        contraction and recomputed for the output gate afterwards.
        ``layer_norm`` is a deterministic elementwise function of ``z``
        (still live), so the recomputed tensor is bit-identical; the
        trade records the extra layer-norm FLOPs against the counter.
        """
        if z.ndim != 3 or z.shape[0] != z.shape[1]:
            raise ValueError("pair representation must be (N, N, c)")
        recompute = plan is not None and "triangle_mult" in plan.recompute_scopes
        zn: Optional[np.ndarray] = layer_norm(
            z, self.norm_in["gamma"], self.norm_in["beta"], counter
        )
        a = linear(zn, self.proj_a, counter) * sigmoid(
            linear(zn, self.gate_a, counter), counter
        )
        b = linear(zn, self.proj_b, counter) * sigmoid(
            linear(zn, self.gate_b, counter), counter
        )
        if recompute:
            zn = None  # planner chose flops-for-bytes: drop the
            #            retained (N, N, c_pair) activation here and
            #            recompute it for the gate after the peak
        contracted = self._blocked_contract(a, b, plan or RESIDENT)
        n = z.shape[0]
        if counter is not None:
            counter.record(
                flops=2.0 * n * n * n * self.c_hidden,
                bytes_read=float(a.nbytes + b.nbytes),
                bytes_written=float(contracted.nbytes),
                activations_bytes=float(contracted.nbytes),
            )
        normed = layer_norm(
            contracted, self.norm_out["gamma"], self.norm_out["beta"], counter
        )
        if zn is None:
            zn = layer_norm(
                z, self.norm_in["gamma"], self.norm_in["beta"], counter
            )
        gate = sigmoid(linear(zn, self.gate_out, counter), counter)
        return linear(normed, self.proj_out, counter) * gate

    def _blocked_contract(
        self, a: np.ndarray, b: np.ndarray, plan: ExecutionPlan
    ) -> np.ndarray:
        """The triangle contraction in the plan's output-row blocks.

        Outgoing: ``out[i, j] = sum_k a[i, k, :] * b[j, k, :]``;
        incoming: ``out[i, j] = sum_k a[k, i, :] * b[k, j, :]``.
        """
        bounds, workers, _ = plan.block_schedule(a.shape[0])

        def one_block(lo_hi):
            lo, hi = lo_hi
            if self.outgoing:
                return np.einsum("ikc,jkc->ijc", a[lo:hi], b)
            return np.einsum("kic,kjc->ijc", a[:, lo:hi], b)

        return run_blocks(one_block, bounds, workers)


class TriangleAttention:
    """Triangle self-attention, starting-node or ending-node variant."""

    def __init__(
        self,
        rng: np.random.Generator,
        c_pair: int,
        num_heads: int,
        starting: bool = True,
    ) -> None:
        self.starting = starting
        self.c_pair = c_pair
        self.num_heads = num_heads
        self.norm = _ln_params(rng, c_pair)
        self.attention = MultiHeadAttention(rng, c_pair, num_heads)
        self.bias_proj = init_linear(rng, c_pair, num_heads)

    def __call__(
        self,
        z: np.ndarray,
        counter: Optional[OpCounter] = None,
        plan: Optional[ExecutionPlan] = None,
    ) -> np.ndarray:
        """Attend along rows (starting) or columns (ending) of ``z``."""
        if z.ndim != 3 or z.shape[0] != z.shape[1]:
            raise ValueError("pair representation must be (N, N, c)")
        zn = layer_norm(z, self.norm["gamma"], self.norm["beta"], counter)
        work = zn if self.starting else np.swapaxes(zn, 0, 1)
        # Bias from the third triangle edge: for batch row i the (j, k)
        # logit is biased by a head projection of z[j, k] (starting
        # variant; the ending variant sees the transposed frame).
        bias = linear(work, self.bias_proj, counter)  # (N, N, H)
        bias = np.moveaxis(bias, -1, 0)[None, ...]    # (1, H, N, N)
        out = self.attention(work, bias=bias, counter=counter, plan=plan)
        if not self.starting:
            out = np.swapaxes(out, 0, 1)
        return out
