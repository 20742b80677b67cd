"""GPU inference-model tests: Fig 8 / Table VI / unified memory."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware import gpu as gpu_module
from repro.hardware.gpu import (
    GpuOutOfMemoryError,
    H100,
    InferenceSimulator,
    RTX_4080,
    _scope_seconds,
    activation_memory_bytes,
)
from repro.model.flops import inference_costs
from repro.profiling.jax_profiler import profile_layers

GIB = 1024 ** 3

SERVER_IPS = 14.7e9
DESKTOP_IPS = 17.2e9


@pytest.fixture(scope="module")
def server_sim():
    return InferenceSimulator(H100, SERVER_IPS, host_thread_penalty=0.02)


@pytest.fixture(scope="module")
def desktop_sim():
    return InferenceSimulator(RTX_4080, DESKTOP_IPS, host_thread_penalty=0.003)


class TestMemoryDemand:
    def test_6qnr_exceeds_rtx4080(self, desktop_sim):
        demand = desktop_sim.memory_demand_bytes(1395)
        assert demand > RTX_4080.memory_bytes

    def test_promo_fits_rtx4080(self, desktop_sim):
        assert desktop_sim.memory_demand_bytes(857) < RTX_4080.memory_bytes

    def test_everything_fits_h100(self, server_sim):
        assert server_sim.memory_demand_bytes(1395) < H100.memory_bytes

    def test_quadratic_growth(self):
        assert activation_memory_bytes(1000) > 3.5 * activation_memory_bytes(500)


class TestUnifiedMemory:
    def test_6qnr_requires_unified_memory_on_desktop(self, desktop_sim):
        breakdown = desktop_sim.run(1395)
        assert breakdown.used_unified_memory

    def test_oom_when_unified_disabled(self, desktop_sim):
        with pytest.raises(GpuOutOfMemoryError):
            desktop_sim.run(1395, allow_unified_memory=False)

    def test_unified_memory_slows_compute(self, desktop_sim):
        # Compare against a hypothetical spill-free run via the server
        # ratio: spilled compute per flop must exceed unspilled.
        spill = desktop_sim.run(1395).gpu_compute
        clean = desktop_sim.run(857).gpu_compute
        assert spill > clean  # larger input AND the spill penalty


class TestFig8Shape:
    def test_server_overheads_dominate_small_inputs(self, server_sim):
        b = server_sim.run(484)
        overhead = b.initialization + b.xla_compile
        assert overhead / b.total > 0.70

    def test_desktop_compute_dominates(self, desktop_sim):
        b = desktop_sim.run(484)
        assert b.compute_fraction > 0.5

    def test_desktop_2pv7_anchors(self, desktop_sim):
        # Paper: compute 71 s, XLA ~10 s, init+finalize ~19 s.
        b = desktop_sim.run(484)
        assert b.gpu_compute == pytest.approx(71.0, rel=0.25)
        assert b.xla_compile == pytest.approx(10.0, rel=0.4)
        assert b.initialization + b.finalization == pytest.approx(19.0, rel=0.35)

    def test_server_compute_faster_than_desktop(self, server_sim, desktop_sim):
        assert server_sim.run(857).gpu_compute < desktop_sim.run(857).gpu_compute

    def test_thread_insensitivity(self, server_sim, desktop_sim):
        # Fig 6: flat-to-slightly-degrading with threads.
        s1 = server_sim.run(484, threads=1).total
        s6 = server_sim.run(484, threads=6).total
        assert s1 <= s6 <= s1 * 1.2
        d1 = desktop_sim.run(484, threads=1).total
        d6 = desktop_sim.run(484, threads=6).total
        assert abs(d6 - d1) / d1 < 0.05

    def test_persistent_model_state_removes_overheads(self, server_sim):
        cold = server_sim.run(484)
        warm = server_sim.run(484, persistent_model_state=True)
        assert warm.initialization < 1.0
        assert warm.xla_compile < 1.0
        assert warm.gpu_compute == pytest.approx(cold.gpu_compute)

    def test_invalid_threads(self, server_sim):
        with pytest.raises(ValueError):
            server_sim.run(484, threads=0)


class TestInputValidation:
    @pytest.mark.parametrize("tokens, depth, field", [
        (0, 1, "num_tokens"),
        (-5, 1, "num_tokens"),
        (256, 0, "msa_depth"),
        (256, -3, "msa_depth"),
    ])
    def test_compute_seconds_rejects(self, server_sim, tokens, depth, field):
        with pytest.raises(ValueError, match=field):
            server_sim.compute_seconds(tokens, msa_depth=depth)

    def test_run_rejects_zero_tokens(self, server_sim):
        with pytest.raises(ValueError, match="num_tokens"):
            server_sim.run(0)


ATTENTION_MODES = st.one_of(
    st.just((True, None)),                                 # chunked
    st.just((False, None)),                                # resident
    st.tuples(st.just(True), st.integers(1, 64)),          # tiled
)


class TestScopeSecondsCache:
    """The process-wide cost-model cache equals the uncached function
    it wraps, bit for bit (``==``, never ``allclose``)."""

    @settings(max_examples=60, deadline=None)
    @given(
        gpu=st.sampled_from([H100, RTX_4080]),
        attention=ATTENTION_MODES,
        tokens=st.integers(1, 1500),
        msa_depth=st.integers(1, 600),
        batch_size=st.integers(1, 8),
        pressure_gib=st.one_of(st.just(0.0), st.floats(0.0, 90.0)),
        slowdown=st.floats(0.25, 4.0),
        allow_unified_memory=st.booleans(),
    )
    def test_cached_equals_uncached(
        self, gpu, attention, tokens, msa_depth, batch_size,
        pressure_gib, slowdown, allow_unified_memory,
    ):
        chunked, block = attention
        sim = InferenceSimulator(
            gpu, SERVER_IPS, chunked_triangle=chunked, attention_block=block
        )
        pressure = pressure_gib * GIB
        kwargs = dict(
            msa_depth=msa_depth, allow_unified_memory=allow_unified_memory,
            batch_size=batch_size, memory_pressure_bytes=pressure,
            slowdown=slowdown,
        )
        demand = sim.memory_demand_bytes(tokens, batch_size)
        spill = demand + pressure > gpu.memory_bytes
        if spill:
            # Warm the cache with the spilled entry the OOM must not use.
            sim.compute_seconds(
                tokens, **dict(kwargs, allow_unified_memory=True)
            )
        if spill and not allow_unified_memory:
            for _ in range(3):
                with pytest.raises(GpuOutOfMemoryError):
                    sim.compute_seconds(tokens, **kwargs)
            _scope_seconds.cache_clear()
            with pytest.raises(GpuOutOfMemoryError):
                sim.compute_seconds(tokens, **kwargs)
            return
        first = sim.compute_seconds(tokens, **kwargs)
        hits = _scope_seconds.cache_info().hits
        cached = sim.compute_seconds(tokens, **kwargs)
        assert _scope_seconds.cache_info().hits == hits + 1
        _scope_seconds.cache_clear()
        fresh = sim.compute_seconds(tokens, **kwargs)
        oracle = {
            scope: seconds * slowdown
            for scope, seconds in _scope_seconds.__wrapped__(
                inference_costs, gpu, sim.config, chunked, tokens, msa_depth, batch_size,
                spill,
            )
        }
        assert first == cached == fresh == oracle
        assert list(first) == list(oracle)
        first["pairformer.triangle_attention_starting"] = -1.0
        cached["extra"] = 0.0
        assert sim.compute_seconds(tokens, **kwargs) == oracle
        info = _scope_seconds.cache_info()
        assert info.currsize <= info.maxsize

    def test_replaced_cost_table_gets_its_own_entries(self, monkeypatch):
        sim = InferenceSimulator(H100, SERVER_IPS)
        before = sim.compute_seconds(300, msa_depth=7)
        calls = []

        def doubled(num_tokens, cfg, **kwargs):
            calls.append(num_tokens)
            return {
                scope: cost * 2.0
                for scope, cost in inference_costs(
                    num_tokens, cfg, **kwargs
                ).items()
            }

        monkeypatch.setattr(gpu_module, "inference_costs", doubled)
        replaced = sim.compute_seconds(300, msa_depth=7)
        assert sim.compute_seconds(300, msa_depth=7) == replaced
        assert calls == [300]
        assert replaced != before
        monkeypatch.undo()
        assert sim.compute_seconds(300, msa_depth=7) == before

    def test_bound_holds_past_maxsize(self):
        sim = InferenceSimulator(H100, SERVER_IPS)
        maxsize = _scope_seconds.cache_info().maxsize
        _scope_seconds.cache_clear()
        for i in range(maxsize + 16):
            sim.compute_seconds(1 + i % 64, msa_depth=1 + i // 64)
        info = _scope_seconds.cache_info()
        assert info.misses == maxsize + 16
        assert info.currsize == maxsize


class TestTable6Calibration:
    def test_2pv7_per_block_times(self):
        t = profile_layers(484)
        assert t.row("triangle mult. update") == pytest.approx(4.03, rel=0.1)
        assert t.row("triangle attention") == pytest.approx(8.14, rel=0.1)
        assert t.row("global attention") == pytest.approx(53.08, rel=0.1)
        assert t.pairformer_ms == pytest.approx(15.87, rel=0.15)
        assert t.diffusion_ms == pytest.approx(80.37, rel=0.1)

    def test_promo_per_block_times(self):
        t = profile_layers(857)
        assert t.row("triangle mult. update") == pytest.approx(12.03, rel=0.1)
        assert t.row("triangle attention") == pytest.approx(31.09, rel=0.1)
        assert t.row("global attention") == pytest.approx(102.64, rel=0.1)
        assert t.diffusion_ms == pytest.approx(147.53, rel=0.1)

    def test_superlinear_pairformer_growth(self):
        # 1.77x tokens -> >3x Pairformer time (Section V-C1a).
        t2, tp = profile_layers(484), profile_layers(857)
        assert tp.pairformer_ms / t2.pairformer_ms > 3.0

    def test_global_attention_dominates_diffusion(self):
        for tokens in (484, 857, 1395):
            t = profile_layers(tokens)
            others = t.diffusion_ms - t.row("global attention")
            if tokens >= 857:
                # promo: global attention outweighs all other layers
                # combined (Section V-C2b).
                assert t.row("global attention") > others

    def test_triangle_attention_dominates_pairformer(self):
        for tokens in (484, 857):
            t = profile_layers(tokens)
            assert t.row("triangle attention") > t.row("triangle mult. update")


class TestTriangleChunking:
    def test_chunked_is_default_calibration(self, server_sim):
        # Table VI anchors correspond to the chunked production path.
        assert server_sim.chunked_triangle

    def test_unchunked_memory_explodes_cubically(self):
        from repro.hardware.gpu import activation_memory_bytes

        chunked = activation_memory_bytes(857)
        unchunked = activation_memory_bytes(857, chunked_triangle=False)
        assert unchunked > 5 * chunked

    def test_unchunked_6qnr_exceeds_h100(self):
        from repro.hardware.gpu import (
            GpuOutOfMemoryError, H100, InferenceSimulator,
        )

        sim = InferenceSimulator(H100, 14.7e9, chunked_triangle=False)
        with pytest.raises(GpuOutOfMemoryError):
            sim.run(1395, allow_unified_memory=False)

    def test_unchunked_slightly_faster_when_fits(self, server_sim):
        from repro.hardware.gpu import InferenceSimulator, H100

        unchunked = InferenceSimulator(H100, 14.7e9, chunked_triangle=False)
        assert unchunked.run(484).gpu_compute < server_sim.run(484).gpu_compute
