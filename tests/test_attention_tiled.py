"""Differential tests for flash-style tiled attention and triangle ops.

The tiled schedules' contract is **bit-identity** with the resident
(serial) path: every output element, every OpCounter FLOP total and
every byte total must be exactly equal — ``==`` on floats, never
``approx`` — for any shape, head count, tile block size, worker-chunked
plan, or recompute policy.  Tiling only ever splits *batched* numpy
operations along a leading batch axis (batched matmul, broadcast add,
last-axis softmax, per-output-row einsum), each of which computes batch
elements independently, so the assembled tiles equal the resident
result to the last bit (the same design rule docs/parallelism.md
audits; docs/memory_planner.md explains why a true key-axis streaming
softmax could *not* satisfy this contract).  Hypothesis drives the
shape/block space; fixed cases pin the plan geometry and the
recompute flops trade.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.attention import MultiHeadAttention
from repro.model.config import ModelConfig
from repro.model.ops import OpCounter
from repro.model.pairformer import PairformerBlock
from repro.model.triangle import TriangleAttention, TriangleMultiplication
from repro.parallel import ExecutionPlan
from repro.parallel.plan import DEFAULT_ATTENTION_BLOCK


def tiled_plan(block=None, recompute=False):
    return ExecutionPlan(
        attention="tiled",
        attention_block=block,
        recompute_scopes=("triangle_mult",) if recompute else (),
    )


#: Untiled plans — the explicit serial plan (one resident block) and
#: worker-chunked plans (the throughput path).  All are bit-equal to
#: the no-plan path and keep its activation peaks; the tiled path must
#: additionally match them.
UNTILED_PLANS = [
    ExecutionPlan.serial(),
    ExecutionPlan(workers=2, backend="thread"),
    ExecutionPlan(workers=3, backend="thread"),
    ExecutionPlan(workers=2, chunk=3, backend="thread"),
]


def assert_identical(reference, candidate):
    """Bit-identity on values: ``==``, never ``allclose``."""
    assert reference.dtype == candidate.dtype
    assert reference.shape == candidate.shape
    assert (reference == candidate).all()


def assert_same_totals(
    c_ref: OpCounter, c_new: OpCounter, same_peaks: bool = False
):
    """Scheduling must not change what is computed, only how.  With
    ``same_peaks`` (untiled plans: every block is live at once, as in
    the resident path) each scope's ``activations_bytes`` peak must
    match too; a tiled plan lowers it on purpose."""
    assert c_ref.total_flops() == c_new.total_flops()
    assert c_ref.total_bytes() == c_new.total_bytes()
    if same_peaks:
        assert c_ref.costs.keys() == c_new.costs.keys()
        for scope, cost in c_ref.costs.items():
            assert c_new.costs[scope].activations_bytes == (
                cost.activations_bytes
            ), scope


# ---------------------------------------------------------------------------
# MultiHeadAttention: tiled == chunked == resident, bit for bit
# ---------------------------------------------------------------------------


def make_attention(channels, heads, seed):
    return MultiHeadAttention(
        np.random.default_rng(seed), channels, num_heads=heads
    )


def random_inputs(batch, length, channels, heads, bias_kind, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((batch, length, channels)).astype(np.float32)
    bias = None
    if bias_kind == "batched":
        bias = rng.standard_normal(
            (batch, heads, length, length)
        ).astype(np.float32)
    elif bias_kind == "broadcast":
        bias = rng.standard_normal(
            (1, heads, length, length)
        ).astype(np.float32)
    elif bias_kind == "headwise":
        bias = rng.standard_normal(
            (heads, length, length)
        ).astype(np.float32)
    return x, bias


class TestAttentionBitIdentity:
    @given(
        batch=st.integers(min_value=1, max_value=7),
        length=st.integers(min_value=1, max_value=9),
        heads=st.sampled_from([1, 2, 4]),
        head_dim=st.sampled_from([2, 4]),
        block=st.sampled_from([1, 2, 3, 4, 8, 64, None]),
        bias_kind=st.sampled_from(
            ["none", "batched", "broadcast", "headwise"]
        ),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_tiled_equals_resident_for_any_shape_and_block(
        self, batch, length, heads, head_dim, block, bias_kind, seed
    ):
        channels = heads * head_dim
        attn = make_attention(channels, heads, seed)
        x, bias = random_inputs(
            batch, length, channels, heads, bias_kind, seed + 1
        )
        c_ref = OpCounter()
        reference = attn(x, bias=bias, counter=c_ref)
        c_tiled = OpCounter()
        out = attn(
            x, bias=bias, counter=c_tiled, plan=tiled_plan(block)
        )
        assert_identical(reference, out)
        assert_same_totals(c_ref, c_tiled)

    def test_tiled_equals_every_chunked_plan(self):
        attn = make_attention(8, 2, seed=3)
        x, bias = random_inputs(5, 7, 8, 2, "batched", seed=4)
        c_ref = OpCounter()
        reference = attn(x, bias=bias, counter=c_ref)
        for plan in UNTILED_PLANS + [tiled_plan(2), tiled_plan(5)]:
            c_new = OpCounter()
            out = attn(x, bias=bias, counter=c_new, plan=plan)
            assert_identical(reference, out)
            assert_same_totals(c_ref, c_new, same_peaks=not plan.is_tiled)

    def test_cross_attention_tiled(self):
        # Lq != Lk exercises the (..., Lq, Lk) logits workspace shape.
        attn = make_attention(8, 4, seed=5)
        rng = np.random.default_rng(6)
        x_q = rng.standard_normal((4, 5, 8)).astype(np.float32)
        x_kv = rng.standard_normal((4, 9, 8)).astype(np.float32)
        reference = attn(x_q, x_kv=x_kv)
        for block in (1, 3, 4, 16):
            assert_identical(
                reference, attn(x_q, x_kv=x_kv, plan=tiled_plan(block))
            )

    def test_headwise_tiling_without_batch_axis(self):
        # (H, L, D) inputs — the single-attention frame: tiles split
        # the head axis.
        attn = make_attention(12, 4, seed=7)
        rng = np.random.default_rng(8)
        x = rng.standard_normal((4, 6, 12)).astype(np.float32)
        bias = rng.standard_normal((4, 6, 6)).astype(np.float32)
        reference = attn(x, bias=bias)
        for block in (1, 2, 3, 8):
            assert_identical(
                reference, attn(x, bias=bias, plan=tiled_plan(block))
            )

    def test_block_larger_than_rows_is_one_tile(self):
        attn = make_attention(8, 2, seed=9)
        x, bias = random_inputs(3, 4, 8, 2, "broadcast", seed=10)
        reference = attn(x, bias=bias)
        assert_identical(
            reference, attn(x, bias=bias, plan=tiled_plan(1024))
        )

    def test_default_block_applies_when_unset(self):
        plan = tiled_plan(None)
        assert plan.tile_rows(100) == DEFAULT_ATTENTION_BLOCK
        assert plan.tile_rows(3) == 3

    def test_tiled_peak_activation_is_bounded_by_block(self):
        # The whole point of the schedule: with B rows resident the
        # logits workspace is B/block times larger than one tile's.
        attn = make_attention(8, 2, seed=11)
        x, _ = random_inputs(16, 6, 8, 2, "none", seed=12)
        c_res, c_tile = OpCounter(), OpCounter()
        with c_res.scope("attn"):
            reference = attn(x, counter=c_res)
        with c_tile.scope("attn"):
            out = attn(x, counter=c_tile, plan=tiled_plan(2))
        assert_identical(reference, out)
        res_peak = c_res.costs["attn"].activations_bytes
        tile_peak = c_tile.costs["attn"].activations_bytes
        assert tile_peak < res_peak
        assert_same_totals(c_res, c_tile)


# ---------------------------------------------------------------------------
# Triangle layers: tiled contraction + attention, and the recompute trade
# ---------------------------------------------------------------------------


def random_pair(n, c_pair, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, n, c_pair)).astype(np.float32)


class TestTriangleBitIdentity:
    @given(
        n=st.integers(min_value=1, max_value=12),
        block=st.sampled_from([1, 2, 3, 5, 16, None]),
        outgoing=st.booleans(),
        recompute=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_triangle_mult_tiled_equals_serial(
        self, n, block, outgoing, recompute, seed
    ):
        layer = TriangleMultiplication(
            np.random.default_rng(seed), c_pair=8, c_hidden=6,
            outgoing=outgoing,
        )
        z = random_pair(n, 8, seed + 1)
        c_ref = OpCounter()
        reference = layer(z, counter=c_ref)
        c_new = OpCounter()
        out = layer(
            z, counter=c_new, plan=tiled_plan(block, recompute=recompute)
        )
        assert_identical(reference, out)
        if recompute:
            # Bit-identical values, strictly more FLOPs: the dropped
            # zn activation is recomputed (one extra layer norm).
            assert c_new.total_flops() > c_ref.total_flops()
        else:
            assert_same_totals(c_ref, c_new)

    @given(
        n=st.integers(min_value=1, max_value=10),
        block=st.sampled_from([1, 2, 4, 32, None]),
        starting=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_triangle_attention_tiled_equals_serial(
        self, n, block, starting, seed
    ):
        layer = TriangleAttention(
            np.random.default_rng(seed), c_pair=8, num_heads=2,
            starting=starting,
        )
        z = random_pair(n, 8, seed + 1)
        c_ref = OpCounter()
        reference = layer(z, counter=c_ref)
        c_new = OpCounter()
        out = layer(z, counter=c_new, plan=tiled_plan(block))
        assert_identical(reference, out)
        assert_same_totals(c_ref, c_new)

    def test_triangle_mult_chunked_plans_still_match(self):
        for outgoing in (True, False):
            layer = TriangleMultiplication(
                np.random.default_rng(13), c_pair=8, c_hidden=6,
                outgoing=outgoing,
            )
            z = random_pair(9, 8, 14)
            c_ref = OpCounter()
            reference = layer(z, counter=c_ref)
            for plan in UNTILED_PLANS:
                c_new = OpCounter()
                assert_identical(reference, layer(z, c_new, plan=plan))
                assert_same_totals(c_ref, c_new, same_peaks=True)

    def test_recompute_without_tiling_also_bit_identical(self):
        layer = TriangleMultiplication(
            np.random.default_rng(15), c_pair=8, c_hidden=6
        )
        z = random_pair(7, 8, 16)
        plan = ExecutionPlan(recompute_scopes=("triangle_mult",))
        assert_identical(layer(z), layer(z, plan=plan))


# ---------------------------------------------------------------------------
# PairformerBlock end to end: every core tiled at once
# ---------------------------------------------------------------------------


class TestPairformerBlockTiled:
    def _run(self, plan, counter):
        config = ModelConfig.tiny()
        block = PairformerBlock(np.random.default_rng(17), config)
        rng = np.random.default_rng(18)
        n = 11
        single = rng.standard_normal(
            (n, config.c_single)
        ).astype(np.float32)
        pair = random_pair(n, config.c_pair, 19)
        return block(single, pair, counter=counter, plan=plan)

    @pytest.mark.parametrize("block_size", [1, 3, 4, 16, None])
    def test_block_outputs_and_totals_match_serial(self, block_size):
        c_ref = OpCounter()
        s_ref, p_ref = self._run(None, c_ref)
        c_new = OpCounter()
        s_new, p_new = self._run(tiled_plan(block_size), c_new)
        assert_identical(s_ref, s_new)
        assert_identical(p_ref, p_new)
        assert_same_totals(c_ref, c_new)

    def test_block_with_recompute_matches_values(self):
        c_ref = OpCounter()
        s_ref, p_ref = self._run(None, c_ref)
        c_new = OpCounter()
        s_new, p_new = self._run(tiled_plan(4, recompute=True), c_new)
        assert_identical(s_ref, s_new)
        assert_identical(p_ref, p_new)
        assert c_new.total_flops() > c_ref.total_flops()

    def test_per_scope_flops_match_serial(self):
        c_ref = OpCounter()
        self._run(None, c_ref)
        c_new = OpCounter()
        self._run(tiled_plan(2), c_new)
        for scope, cost in c_ref.costs.items():
            assert c_new.costs[scope].flops == cost.flops, scope


# ---------------------------------------------------------------------------
# Plan geometry
# ---------------------------------------------------------------------------


class TestTiledPlanGeometry:
    def test_tile_bounds_cover_range_once(self):
        plan = tiled_plan(4)
        for n in (0, 1, 3, 4, 5, 8, 9, 17):
            bounds = plan.tile_bounds(n)
            covered = [i for lo, hi in bounds for i in range(lo, hi)]
            assert covered == list(range(n))
            assert all(hi - lo <= 4 for lo, hi in bounds)

    def test_tile_bounds_are_fixed_size_not_even_split(self):
        # chunk_bounds(10) with 3 workers gives 4/4/2; tile_bounds with
        # block 4 also gives 4/4/2 — but tile size never grows with n.
        plan = tiled_plan(4)
        assert plan.tile_bounds(100)[0] == (0, 4)
        even = ExecutionPlan(workers=3).chunk_bounds(100)
        assert even[0] == (0, 34)

    def test_rejects_bad_attention_mode(self):
        with pytest.raises(ValueError):
            ExecutionPlan(attention="flash")

    def test_rejects_nonpositive_block(self):
        with pytest.raises(ValueError):
            ExecutionPlan(attention="tiled", attention_block=0)

    def test_rejects_unknown_recompute_scope(self):
        with pytest.raises(ValueError):
            ExecutionPlan(recompute_scopes=("attention",))

    def test_default_plan_is_resident(self):
        assert ExecutionPlan().attention == "resident"
        assert not ExecutionPlan().is_tiled
        assert ExecutionPlan.serial().recompute_scopes == ()
