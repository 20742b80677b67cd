"""CPU performance model: cycles, caches, TLB, branches, threads.

The simulator replays a :class:`~repro.trace.WorkloadTrace` against a
CPU specification and produces wall time plus perf-style counter
readings.  The model is deliberately analytic (no cycle-accurate
simulation) but mechanistic: every reported metric derives from the
trace's working sets, access patterns and byte/instruction volumes
interacting with the spec's cache sizes, TLB behaviour and bandwidth.

Key mechanisms (each maps to a finding in the paper's Table III):

* **LLC capacity knee** — a record's streaming reuse window, grown per
  extra thread for non-sequential patterns, is compared to LLC size;
  the miss rate rises steeply past ~2/3 occupancy.  This yields
  Intel's flat-high 56 % (30 MiB LLC always over capacity) vs AMD's
  1 % -> 41 % growth (64 MiB LLC saturating at 6 threads).
* **Prefetch discount** — sequential-pattern records get an LLC-miss
  discount that *improves* with threads (more memory-level
  parallelism), reproducing promo-on-Intel's falling miss rate.
* **TLB regimes** — the Intel spec models effective transparent huge
  pages (negligible dTLB misses); the AMD spec pays per-pattern dTLB
  costs that grow with thread count.
* **Bandwidth contention** — aggregate demanded bandwidth inflates
  memory penalties, bending the thread-scaling curves past 4 threads.
"""

from __future__ import annotations

import dataclasses
from typing import Dict

from ..trace import AccessPattern, OpRecord, Resource, WorkloadTrace

GIB = 1024 ** 3
MIB = 1024 ** 2

#: Superlinear thread-coordination overhead (worker-queue locking, NUMA
#: traffic, OS scheduling) as a fraction of a record's single-thread
#: time at 8 worker threads.  This is the term that makes execution
#: time *rise* again at 6-8 threads (paper Fig. 5 and the Section IV-C
#: observation that AF3's default of 8 threads can be counterproductive).
SYNC_OVERHEAD_AT_8T = 0.09
SYNC_OVERHEAD_EXPONENT = 2.5


@dataclasses.dataclass(frozen=True)
class MicroarchCoefficients:
    """Vendor-calibrated coefficients of the analytic core model.

    Calibrated once against the paper's Table III (2PV7 / promo on
    Xeon 5416S and Ryzen 7900X); see tests/test_table3_calibration.py
    for the pinned targets.
    """

    base_cpi: float                  # no-stall cycles per instruction
    l1_miss_base: float              # L1D miss probability, strided
    l1_pattern_mult: Dict[AccessPattern, float]
    l1_thread_growth: float          # L1 miss growth per extra thread
    l2_miss_coeff: Dict[AccessPattern, float]   # drives 'Cache Miss' MPKI
    cache_miss_thread_growth: Dict[AccessPattern, float]
    cache_miss_thread_decay: float   # AMD's falling cache-miss counter
    llc_low: float                   # LLC miss rate when window fits
    llc_high: Dict[AccessPattern, float]  # saturated LLC miss rate
    llc_knee_start: float            # occupancy where misses take off
    llc_knee_span: float
    llc_knee_exponent: float
    seq_prefetch_discount: float     # per-extra-thread divisor term
    ws_thread_growth: float          # reuse-window growth per thread
    dtlb_rate: Dict[AccessPattern, float]  # reported miss fraction
    dtlb_thread_growth: float
    dtlb_thread_cap: float
    dtlb_penalty: float              # effective cycles per reported miss
    stream_cold_llc: float           # LLC miss rate of cold storage streams
    stream_warm_llc: float           # LLC miss rate of re-parsed fresh streams
    cache_miss_penalty: float        # cycles per 'cache-misses' event
    branch_miss_rate: float
    branch_penalty: float
    l1_penalty: float
    mem_penalty: float               # cycles per LLC miss (prefetch-hidden)
    bw_penalty_scale: float          # memory-latency inflation vs BW util
    #: Multi-thread conflict factor: extra LLC traffic (accesses and
    #: misses alike) generated per extra thread by non-sequential
    #: records sharing the LLC.  Leaves the miss *rate* flat (Table
    #: III's Intel finding) while absolute misses grow (Table IV's
    #: calc_band_9 share doubling from 1T to 4T).
    llc_conflict_growth: float = 0.0
    loads_per_instruction: float = 0.35


INTEL_COEFFS = MicroarchCoefficients(
    base_cpi=0.235,
    l1_miss_base=0.0014,
    l1_pattern_mult={
        AccessPattern.SEQUENTIAL: 2.2,
        AccessPattern.STRIDED: 1.0,
        AccessPattern.RANDOM: 3.5,
    },
    l1_thread_growth=0.01,
    l2_miss_coeff={
        AccessPattern.SEQUENTIAL: 1.30,
        AccessPattern.STRIDED: 0.67,
        AccessPattern.RANDOM: 1.6,
    },
    cache_miss_thread_growth={
        AccessPattern.SEQUENTIAL: 0.01,
        AccessPattern.STRIDED: 0.27,
        AccessPattern.RANDOM: 0.27,
    },
    cache_miss_thread_decay=0.0,
    llc_low=0.011,
    llc_high={
        AccessPattern.SEQUENTIAL: 0.60,
        AccessPattern.STRIDED: 0.565,
        AccessPattern.RANDOM: 0.80,
    },
    llc_knee_start=0.65,
    llc_knee_span=0.45,
    llc_knee_exponent=3.5,
    seq_prefetch_discount=0.11,
    ws_thread_growth=0.17,
    dtlb_rate={
        AccessPattern.SEQUENTIAL: 0.00008,
        AccessPattern.STRIDED: 0.0001,
        AccessPattern.RANDOM: 0.0002,
    },
    dtlb_thread_growth=0.0,
    dtlb_thread_cap=1.0,
    dtlb_penalty=0.7,
    stream_cold_llc=0.62,
    stream_warm_llc=0.47,
    cache_miss_penalty=0.45,
    branch_miss_rate=0.0022,
    branch_penalty=15.0,
    l1_penalty=12.0,
    mem_penalty=15.0,
    bw_penalty_scale=1.6,
    llc_conflict_growth=0.7,
)

AMD_COEFFS = MicroarchCoefficients(
    base_cpi=0.245,
    l1_miss_base=0.0075,
    l1_pattern_mult={
        AccessPattern.SEQUENTIAL: 0.5,
        AccessPattern.STRIDED: 1.3,
        AccessPattern.RANDOM: 3.5,
    },
    l1_thread_growth=0.06,
    l2_miss_coeff={
        AccessPattern.SEQUENTIAL: 0.16,
        AccessPattern.STRIDED: 0.59,
        AccessPattern.RANDOM: 1.2,
    },
    cache_miss_thread_growth={
        AccessPattern.SEQUENTIAL: 0.0,
        AccessPattern.STRIDED: 0.0,
        AccessPattern.RANDOM: 0.0,
    },
    cache_miss_thread_decay=0.05,
    llc_low=0.011,
    llc_high={
        AccessPattern.SEQUENTIAL: 0.60,
        AccessPattern.STRIDED: 0.565,
        AccessPattern.RANDOM: 0.80,
    },
    llc_knee_start=0.65,
    llc_knee_span=0.45,
    llc_knee_exponent=3.5,
    seq_prefetch_discount=0.11,
    ws_thread_growth=0.17,
    dtlb_rate={
        AccessPattern.SEQUENTIAL: 0.065,
        AccessPattern.STRIDED: 0.33,
        AccessPattern.RANDOM: 0.45,
    },
    dtlb_thread_growth=0.26,
    dtlb_thread_cap=1.72,
    dtlb_penalty=0.35,
    stream_cold_llc=0.02,
    stream_warm_llc=0.02,
    cache_miss_penalty=0.10,
    branch_miss_rate=0.0090,
    branch_penalty=18.0,
    l1_penalty=12.0,
    mem_penalty=8.0,
    bw_penalty_scale=0.8,
    llc_conflict_growth=0.7,
)


@dataclasses.dataclass(frozen=True)
class CpuSpec:
    """One CPU's architectural parameters (paper Table I)."""

    name: str
    vendor: str
    cores: int
    threads: int
    base_clock_ghz: float
    max_clock_ghz: float
    allcore_clock_ghz: float
    l1d_bytes: int
    l2_bytes: int
    llc_bytes: int
    mem_bandwidth_gbps: float
    coeffs: MicroarchCoefficients

    def clock_hz(self, active_threads: int) -> float:
        """Boost clock degrades toward the all-core clock as threads rise."""
        if active_threads < 1:
            raise ValueError("active_threads must be >= 1")
        span = max(1, self.cores // 2)
        frac = min(1.0, (active_threads - 1) / span)
        ghz = self.max_clock_ghz - frac * (self.max_clock_ghz - self.allcore_clock_ghz)
        return ghz * 1e9


XEON_5416S = CpuSpec(
    name="Intel Xeon Gold 5416S",
    vendor="intel",
    cores=16,
    threads=32,
    base_clock_ghz=2.0,
    max_clock_ghz=4.0,
    allcore_clock_ghz=2.9,
    l1d_bytes=48 * 1024,
    l2_bytes=2 * MIB,
    llc_bytes=30 * MIB,
    mem_bandwidth_gbps=280.0,   # 8ch DDR5-4400
    coeffs=INTEL_COEFFS,
)

RYZEN_7900X = CpuSpec(
    name="AMD Ryzen 9 7900X",
    vendor="amd",
    cores=12,
    threads=24,
    base_clock_ghz=4.7,
    max_clock_ghz=5.6,
    allcore_clock_ghz=5.15,
    l1d_bytes=32 * 1024,
    l2_bytes=1 * MIB,
    llc_bytes=64 * MIB,
    mem_bandwidth_gbps=83.0,    # 2ch DDR5-6000
    coeffs=AMD_COEFFS,
)


@dataclasses.dataclass
class FunctionMetrics:
    """Per-function simulated counters (the unit of Table IV rows)."""

    function: str
    instructions: float = 0.0
    cycles: float = 0.0
    l1_misses: float = 0.0
    llc_accesses: float = 0.0
    llc_misses: float = 0.0
    cache_misses: float = 0.0   # perf 'cache-misses' style counter
    dtlb_misses: float = 0.0
    branch_misses: float = 0.0
    branches: float = 0.0
    loads: float = 0.0
    page_faults: float = 0.0
    seconds: float = 0.0
    dram_bytes: float = 0.0


@dataclasses.dataclass
class CpuPhaseReport:
    """Aggregate result of simulating one trace on one CPU."""

    spec_name: str
    threads: int
    seconds: float
    instructions: float
    cycles: float
    functions: Dict[str, FunctionMetrics]
    bandwidth_utilization: float

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    def _sum(self, attr: str) -> float:
        return sum(getattr(f, attr) for f in self.functions.values())

    @property
    def l1_miss_pct(self) -> float:
        loads = self._sum("loads")
        return 100.0 * self._sum("l1_misses") / loads if loads else 0.0

    @property
    def llc_miss_pct(self) -> float:
        accesses = self._sum("llc_accesses")
        return 100.0 * self._sum("llc_misses") / accesses if accesses else 0.0

    @property
    def cache_miss_mpki(self) -> float:
        instr = self._sum("instructions")
        return 1000.0 * self._sum("cache_misses") / instr if instr else 0.0

    @property
    def dtlb_miss_pct(self) -> float:
        loads = self._sum("loads")
        return 100.0 * self._sum("dtlb_misses") / loads if loads else 0.0

    @property
    def branch_miss_pct(self) -> float:
        branches = self._sum("branches")
        return 100.0 * self._sum("branch_misses") / branches if branches else 0.0

    def cycle_share(self, function: str) -> float:
        total = self._sum("cycles")
        f = self.functions.get(function)
        return f.cycles / total if f and total else 0.0


class CpuSimulator:
    """Replays traces against a :class:`CpuSpec`."""

    def __init__(self, spec: CpuSpec) -> None:
        self.spec = spec

    # ----- per-record rate models -------------------------------------

    def _llc_miss_rate(self, record: OpRecord, threads: int) -> float:
        co = self.spec.coeffs
        ws = max(record.working_set_bytes, 1.0)
        if record.pattern is AccessPattern.SEQUENTIAL:
            # Threads share a common stream; the reuse window does not
            # multiply, and prefetchers gain MLP with thread count.
            discount = 1.0 + co.seq_prefetch_discount * (threads - 1)
            if record.disk_bytes > 0:
                # Cold storage stream: every demand line is new.  The
                # vendor coefficient captures how much of the stream
                # the prefetchers convert to hits (AMD hides nearly all
                # of it; Intel's smaller LLC exposes it -- this is what
                # puts copy_to_iter at the top of Table IV/V's LLC
                # columns on the Server).
                return co.stream_cold_llc / discount
            if record.bytes_read > 16.0 * ws and ws < 8 * MIB:
                # Parser-side pass over a freshly copied stream: partly
                # L2-warm, but the giant stream still defeats the LLC.
                return co.stream_warm_llc / discount
            footprint = ws
        else:
            footprint = ws * (1.0 + co.ws_thread_growth * (threads - 1))
            discount = 1.0
        occupancy = footprint / self.spec.llc_bytes
        if occupancy <= co.llc_knee_start:
            knee = 0.0
        else:
            knee = min(
                1.0,
                ((occupancy - co.llc_knee_start) / co.llc_knee_span)
                ** co.llc_knee_exponent,
            )
        high = co.llc_high[record.pattern]
        rate = co.llc_low + (high - co.llc_low) * knee
        return rate / discount

    def _l1_miss_rate(self, record: OpRecord, threads: int) -> float:
        co = self.spec.coeffs
        rate = co.l1_miss_base * co.l1_pattern_mult[record.pattern]
        return min(0.2, rate * (1.0 + co.l1_thread_growth * (threads - 1)))

    def _dtlb_rate(self, record: OpRecord, threads: int) -> float:
        co = self.spec.coeffs
        growth = min(co.dtlb_thread_cap, 1.0 + co.dtlb_thread_growth * (threads - 1))
        span_factor = min(1.0, record.page_span_bytes / (64 * MIB)) if (
            record.page_span_bytes
        ) else 0.5
        return co.dtlb_rate[record.pattern] * growth * (0.5 + 0.5 * span_factor)

    def _cache_miss_rate(self, record: OpRecord, threads: int) -> float:
        """Lines missed per line touched — the 'cache-misses' counter."""
        co = self.spec.coeffs
        growth = 1.0 + co.cache_miss_thread_growth[record.pattern] * (threads - 1)
        decay = 1.0 / (1.0 + co.cache_miss_thread_decay * (threads - 1))
        return co.l2_miss_coeff[record.pattern] * growth * decay

    # ----- simulation --------------------------------------------------

    def simulate(
        self, trace: WorkloadTrace, threads: int, slowdown: float = 1.0
    ) -> CpuPhaseReport:
        """Simulate a CPU trace at the given worker-thread count.

        ``slowdown`` is the ``repro.faults`` slow-node hook: a degraded
        host (thermal throttling, a noisy neighbour) stretches wall
        time uniformly — cycles and seconds scale, architectural counts
        (instructions, misses) do not.
        """
        if threads < 1:
            raise ValueError("threads must be >= 1")
        if threads > self.spec.threads:
            raise ValueError(
                f"{threads} threads exceed {self.spec.name}'s {self.spec.threads}"
            )
        if slowdown <= 0:
            raise ValueError("slowdown must be > 0")
        co = self.spec.coeffs
        records = [r for r in trace if r.resource is Resource.CPU]

        # Two-pass fixed point: bandwidth utilisation inflates memory
        # penalties, which lengthen the run, which lowers utilisation.
        bw_util = 0.0
        for _ in range(3):
            functions: Dict[str, FunctionMetrics] = {}
            total_seconds = 0.0
            total_cycles = 0.0
            total_instr = 0.0
            total_bytes = 0.0
            for record in records:
                m = self._simulate_record(record, threads, bw_util)
                slot = functions.setdefault(
                    record.function, FunctionMetrics(function=record.function)
                )
                for field in (
                    "instructions", "cycles", "l1_misses", "llc_accesses",
                    "llc_misses", "cache_misses", "dtlb_misses",
                    "branch_misses", "branches", "loads", "seconds",
                    "dram_bytes",
                ):
                    setattr(slot, field, getattr(slot, field) + getattr(m, field))
                total_seconds += m.seconds
                total_cycles += m.cycles
                total_instr += m.instructions
                total_bytes += m.dram_bytes
            demanded = total_bytes / max(total_seconds, 1e-9)
            new_util = min(
                0.98, demanded / (self.spec.mem_bandwidth_gbps * 1e9)
            )
            if abs(new_util - bw_util) < 0.01:
                bw_util = new_util
                break
            bw_util = new_util

        if slowdown != 1.0:
            total_seconds *= slowdown
            total_cycles *= slowdown
            for slot in functions.values():
                slot.seconds *= slowdown
                slot.cycles *= slowdown
        return CpuPhaseReport(
            spec_name=self.spec.name,
            threads=threads,
            seconds=total_seconds,
            instructions=total_instr,
            cycles=total_cycles,
            functions=functions,
            bandwidth_utilization=bw_util,
        )

    def _simulate_record(
        self, record: OpRecord, threads: int, bw_util: float
    ) -> FunctionMetrics:
        co = self.spec.coeffs
        active = threads if record.parallel else 1
        instr = record.instructions
        loads = instr * co.loads_per_instruction
        l1_rate = self._l1_miss_rate(record, active)
        llc_rate = self._llc_miss_rate(record, active)
        dtlb_rate = self._dtlb_rate(record, active)
        lines_touched = record.total_bytes / 64.0
        cache_misses = lines_touched * self._cache_miss_rate(record, active)

        l1_misses = loads * l1_rate
        llc_accesses = loads * l1_rate  # refs that left the core caches
        if record.parallel and record.disk_bytes == 0:
            # Threads sharing the LLC generate conflict traffic; the
            # disk-backed copy path is excluded (its fills are paced by
            # the stream, not by thread count).
            conflict = 1.0 + co.llc_conflict_growth * (active - 1)
            llc_accesses *= conflict
        llc_misses = llc_accesses * llc_rate
        if record.disk_bytes > 0:
            # Cold storage fills reach DRAM line by line (read + write
            # allocate), independent of thread count -- this is what
            # perf samples against copy_to_iter in Table IV/V.  Scaled
            # by the vendor's cold-stream exposure: AMD's prefetchers
            # convert most fills into hits before demand touches them.
            exposure = co.stream_cold_llc / 0.62
            llc_misses += record.disk_bytes / 32.0 * exposure
            llc_accesses += record.disk_bytes / 32.0 * exposure
        branches = instr * record.branch_rate
        branch_misses = branches * co.branch_miss_rate

        mem_penalty = co.mem_penalty * (1.0 + co.bw_penalty_scale * bw_util)
        if record.pattern is AccessPattern.SEQUENTIAL:
            # Prefetchers overlap sequential-stream misses almost
            # entirely -- this is why promo's IPC stays flat on Intel
            # even as its miss counts grow with threads (Table III).
            mem_penalty *= 0.3
        stall_cycles = (
            l1_misses * co.l1_penalty
            + llc_misses * mem_penalty
            + cache_misses * co.cache_miss_penalty
            * (1.0 + co.bw_penalty_scale * bw_util)
            + dtlb_rate * loads * co.dtlb_penalty
            + branch_misses * co.branch_penalty
        )
        cycles = instr * co.base_cpi + stall_cycles
        clock = self.spec.clock_hz(active)
        seconds = cycles / (clock * active)
        if active > 1:
            sync_frac = SYNC_OVERHEAD_AT_8T * ((active - 1) / 7.0) ** (
                SYNC_OVERHEAD_EXPONENT
            )
            seconds += (cycles / clock) * sync_frac

        # Bandwidth floor: only traffic that actually reaches DRAM
        # (miss lines plus cold storage streams) competes for memory
        # bandwidth; cache-resident DP traffic does not.
        dram_bytes = max(
            record.disk_bytes, (llc_misses + cache_misses) * 64.0
        )
        bw_floor = dram_bytes / (self.spec.mem_bandwidth_gbps * 1e9)
        seconds = max(seconds, bw_floor)

        return FunctionMetrics(
            function=record.function,
            instructions=instr,
            cycles=cycles,
            l1_misses=l1_misses,
            llc_accesses=llc_accesses,
            llc_misses=llc_misses,
            cache_misses=cache_misses,
            dtlb_misses=dtlb_rate * loads,
            branches=branches,
            branch_misses=branch_misses,
            loads=loads,
            seconds=seconds,
            dram_bytes=dram_bytes,
        )
