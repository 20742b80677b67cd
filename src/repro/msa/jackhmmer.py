"""Iterative profile search over protein databases (jackhmmer analogue).

Implements HMMER's acceleration cascade on top of the DP kernels:

1. **MSV filter** — cheap ungapped score over every target; only
   targets whose MSV E-value clears a permissive threshold continue.
2. **Banded Viterbi** (``calc_band_9``) — gapped bit score; survivors
   continue.
3. **Banded Forward** (``calc_band_10``) — summed score used for the
   reported E-value.
4. Hits are assembled into an alignment; jackhmmer then rebuilds the
   profile from the alignment and iterates.

The search genuinely runs on the synthetic database; pass rates, cell
counts and hit sets are *measured*, then extrapolated to the
paper-scale database via ``SequenceDatabase.scale_factor`` when the
workload trace is emitted.  Low-complexity queries (promo's poly-Q)
organically match the database's low-complexity junk at the MSV stage,
inflating the number of candidates that must be scored and filtered —
the exact mechanism behind the paper's Observation 2.

A chain is searched against all of its databases at once:
:func:`search_databases` builds the query's profile and calibration
once, and :func:`scan_databases` runs one sharded cascade per
iteration over every database that shares them.
:meth:`JackhmmerSearch.search` and
:meth:`repro.msa.nhmmer.NhmmerSearch.search` are the one-database case.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence, Tuple

from ..parallel.executor import ExecutionOutcome, TaskTiming, run_sharded
from ..parallel.plan import ExecutionPlan
from ..parallel.shard import merge_sharded, shard_bounds
from ..sequences.alphabets import MoleculeType
from ..sequences.complexity import ComplexityProfile, profile_sequence
from ..trace import AccessPattern, OpRecord, WorkloadTrace
from .database import BufferedDatabaseReader, SCAN_SHARDS, SequenceDatabase
from .dp import calc_band_9, calc_band_10, msv_filter
from .evalue import GumbelParams, calibrate
from .kernels import (
    Hit,
    ScanGates,
    ShardScanResult,
    pad_waste,
    scan_shard_group,
    scan_waste_summary,
)
from .profile_hmm import ProfileHMM

# Instruction costs per DP cell.  MSV is a 16-lane striped SIMD scan
# (~0.2 instr per cell); Viterbi moves three states with bookkeeping
# (~10); Forward is arithmetically heavier per cell but runs on the
# envelope-narrowed band HMMER computes after Viterbi, netting slightly
# below Viterbi per traced cell (~9.2).
# Together with the per-byte I/O costs in database.py these are
# calibrated so 2PV7's function-level cycle shares match Table IV.
MSV_INSTR_PER_CELL = 0.2
VITERBI_INSTR_PER_CELL = 10.0
FORWARD_INSTR_PER_CELL = 9.2

#: Bytes touched per DP cell (profile row + three state vectors).
BYTES_PER_CELL = 20.0

#: Baseline per-process streaming reuse window for the alignment stage
#: (readahead pages + target batches + candidate buffers).  Hit
#: inflation grows it; this is the quantity the LLC capacity model
#: compares against cache size (see DESIGN.md, Table III discussion).
ALIGN_BASE_WORKING_SET = 37 * 1024 * 1024
ALIGN_WORKING_SET_PER_INFLATION = 19 * 1024 * 1024

#: Extra effective database-stream traffic per unit of hit inflation:
#: low-complexity queries grow the candidate/temporary files the reader
#: stack must shuttle alongside the primary DB scan.
IO_PASS_PER_INFLATION = 0.5

#: Hits kept per iteration, best E-value first.
MAX_HITS = 10_000


@dataclasses.dataclass(frozen=True)
class SearchConfig:
    """Thresholds and shape of the jackhmmer cascade."""

    band: int = 64
    msv_evalue: float = 200.0
    viterbi_evalue: float = 1.0
    final_evalue: float = 1e-3
    iterations: int = 2

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if not (self.final_evalue <= self.viterbi_evalue <= self.msv_evalue):
            raise ValueError("thresholds must tighten along the cascade")

    @property
    def gates(self) -> ScanGates:
        """The scan's gates: every target is scanned whole."""
        return ScanGates(self.band, self.msv_evalue, self.viterbi_evalue,
                         self.final_evalue)


@dataclasses.dataclass
class StageStats:
    """Synthetic-run counts for one cascade stage."""

    candidates: int = 0
    survivors: int = 0
    cells: int = 0


@dataclasses.dataclass
class SearchStats:
    """Measured statistics of one search, with paper-scale projections."""

    scale_factor: float = 1.0
    inflation_factor: float = 1.0
    msv: StageStats = dataclasses.field(default_factory=StageStats)
    viterbi: StageStats = dataclasses.field(default_factory=StageStats)
    forward: StageStats = dataclasses.field(default_factory=StageStats)
    iterations: int = 0

    def add_scan(
        self, shard_results: List[ShardScanResult], hits: List[Hit]
    ) -> Tuple[int, int, int, int]:
        """Merge one database scan's shard counters into these stats.

        ``hits`` are the scan's accepted hits.  Returns the scan's own
        ``(msv_cells, vit_cells, fwd_cells, msv_pass)`` for its trace.
        """
        msv_cells = sum(r.msv_cells for r in shard_results)
        vit_cells = sum(r.vit_cells for r in shard_results)
        fwd_cells = sum(r.fwd_cells for r in shard_results)
        msv_pass = sum(r.msv_pass for r in shard_results)
        vit_pass = sum(r.vit_pass for r in shard_results)
        self.msv.candidates += sum(r.candidates for r in shard_results)
        self.msv.survivors += msv_pass
        self.msv.cells += msv_cells
        self.viterbi.candidates += msv_pass
        self.viterbi.survivors += vit_pass
        self.viterbi.cells += vit_cells
        self.forward.candidates += vit_pass
        self.forward.survivors += len(hits)
        self.forward.cells += fwd_cells
        self.iterations += 1
        return msv_cells, vit_cells, fwd_cells, msv_pass


@dataclasses.dataclass
class SearchResult:
    """Outcome of a jackhmmer or nhmmer search against one database."""

    query_name: str
    database_name: str
    hits: List[Hit]
    stats: SearchStats
    trace: WorkloadTrace
    gumbel: GumbelParams
    #: Measured shard schedule of each iteration's database scan, this
    #: database's share of it when scanned with others (only timings
    #: vary run to run; the functional fields above are byte-identical
    #: for every backend and worker count).
    scan_outcomes: List[ExecutionOutcome] = dataclasses.field(
        default_factory=list
    )

    @property
    def scan_waste(self) -> dict:
        """Per-bucket padded-token waste (padded vs real tokens under
        the batched kernels' power-of-two buckets) of every scanned
        target or RNA window, merged across shards and iterations by
        :func:`repro.msa.kernels.scan_waste_summary` — kernel bucketing
        overhead as measured by this search, not assumed."""
        return scan_waste_summary(
            triple
            for outcome in self.scan_outcomes
            for shard in outcome.results
            for triple in shard.pad_waste
        )


def shard_payloads(
    database: SequenceDatabase,
    profile: ProfileHMM,
    gumbel: GumbelParams,
    gates: ScanGates,
    scan_shards: int,
) -> list:
    """One database scan's picklable :func:`scan_shard` payloads.

    Shard boundaries depend only on (record count, scan_shards) — the
    same geometry the checkpoint/resume accounting uses — never on the
    worker count, so every plan scans identical shards and the merged
    result is byte-identical to serial.
    """
    targets = database.encoded_records
    return [
        (i, profile, gumbel, targets[lo:hi], gates,
         database.spec.num_sequences)
        for i, (lo, hi) in enumerate(shard_bounds(len(targets), scan_shards))
    ]


def scan_databases(
    scans: Sequence[Tuple[object, ProfileHMM, GumbelParams]],
) -> List[Tuple[List[Hit], ExecutionOutcome]]:
    """One sharded cascade over every database scan that can share one.

    ``scans`` holds ``(search, profile, gumbel)`` triples, ``search`` a
    :class:`JackhmmerSearch` or :class:`repro.msa.nhmmer.NhmmerSearch`.
    Scans whose profile and Gumbel fit are the same objects, and whose
    gates and plans are equal, form one group: the checkpoint shard
    payloads of its databases are concatenated in scan order, cut into
    one contiguous group of payloads per worker (one under a serial
    plan) and scanned by one :func:`run_sharded` call of
    ``scan_shard_group``, which runs one cascade per worker group.

    Returns, per scan and in scan order, its hits merged in shard order
    and its own :class:`ExecutionOutcome`: the results of its shards in
    shard order, and one timing per worker group that scanned any of
    them, whose ``shards`` is the range of this database's shards the
    group covered.  A group that spans several databases had its wall
    window split between them in proportion to their shard counts, so
    every shard of a database lies in exactly one timing range and no
    part of a window is attributed twice.  ``wall_seconds`` is split
    the same way.  Results and hits are exactly those of scanning each
    database on its own.
    """
    groups: dict = {}
    for position, (search, profile, gumbel) in enumerate(scans):
        key = (id(profile), id(gumbel), search.gates, search.plan)
        groups.setdefault(key, []).append(position)
    scanned: List[Tuple[List[Hit], ExecutionOutcome]] = [None] * len(scans)
    for members in groups.values():
        searches = [scans[position][0] for position in members]
        _, profile, gumbel = scans[members[0]]
        gates, plan = searches[0].gates, searches[0].plan
        own_payloads = [
            shard_payloads(search.database, profile, gumbel, gates,
                           search.scan_shards)
            for search in searches
        ]
        payloads = [payload for own in own_payloads for payload in own]
        workers = (1 if plan.resolve_backend("process") == "serial"
                   else plan.workers)
        bounds = shard_bounds(len(payloads), min(workers, len(payloads)))
        outcome = run_sharded(
            scan_shard_group, [payloads[lo:hi] for lo, hi in bounds], plan
        )
        results = [result for group in outcome.results for result in group]
        first = 0
        for position, own in zip(members, own_payloads):
            last = first + len(own)
            own_results = results[first:last]
            scanned[position] = (
                merge_sharded((r.shard_index, r.hits) for r in own_results),
                dataclasses.replace(
                    outcome,
                    results=own_results,
                    timings=[
                        timing
                        for task in outcome.timings
                        for timing in _split_timing(
                            task, bounds[task.index], first, last
                        )
                    ],
                    wall_seconds=outcome.wall_seconds * (
                        len(own) / len(payloads)
                    ),
                ),
            )
            first = last
    return scanned


def _split_timing(
    task: TaskTiming, group: Tuple[int, int], first: int, last: int
) -> List[TaskTiming]:
    """The part of worker group ``task`` (over payloads ``group``) that
    scanned payloads ``[first, last)``, one database's shards: the
    group's window divided evenly between its shards, with ``shards``
    counted from ``first``.  Empty when the ranges do not meet."""
    lo, hi = max(group[0], first), min(group[1], last)
    if lo >= hi:
        return []
    width = (task.end - task.start) / (group[1] - group[0])

    def at(payload: int) -> float:
        if payload == group[0]:
            return task.start
        if payload == group[1]:
            return task.end
        return task.start + (payload - group[0]) * width

    return [dataclasses.replace(task, start=at(lo), end=at(hi),
                                shards=(lo - first, hi - first))]


def reference_scan_protein_shard(payload) -> ShardScanResult:
    """The scalar per-target loop over one protein shard: the ``==``
    oracle for :func:`scan_shard` (same payload, same result).

    Runs the :mod:`repro.msa.dp` kernels one target at a time; tests
    and the batched-over-scalar speedup measurement call it directly.
    """
    shard_index, profile, gumbel, targets, gates, db_size = payload
    hits: List[Hit] = []
    msv_cells = vit_cells = fwd_cells = 0
    msv_pass = vit_pass = 0
    for name, seq, encoded in targets:
        # One emission matrix feeds all three kernels for this target.
        emissions = profile.emission_row(encoded)
        msv = msv_filter(profile, encoded, emissions=emissions)
        msv_cells += msv.cells
        if gumbel.evalue(msv.score, db_size) > gates.msv_evalue:
            continue
        msv_pass += 1
        vit = calc_band_9(profile, encoded, band=gates.band,
                          emissions=emissions)
        vit_cells += vit.cells
        if gumbel.evalue(vit.score, db_size) > gates.viterbi_evalue:
            continue
        vit_pass += 1
        fwd = calc_band_10(profile, encoded, band=gates.band,
                           emissions=emissions)
        fwd_cells += fwd.cells
        evalue = gumbel.evalue(fwd.score, db_size)
        if evalue > gates.final_evalue:
            continue
        hits.append(Hit(name, seq, vit.score, fwd.score, evalue))
    return ShardScanResult(
        shard_index=shard_index,
        hits=tuple(hits),
        candidates=len(targets),
        msv_pass=msv_pass,
        vit_pass=vit_pass,
        msv_cells=msv_cells,
        vit_cells=vit_cells,
        fwd_cells=fwd_cells,
        pad_waste=pad_waste(
            [len(encoded) for _, _, encoded in targets]
        ),
    )


def _align_hit_to_profile(query_len: int, hit_seq: str) -> str:
    """Project a hit onto profile columns for the next-iteration alignment.

    A full traceback is unnecessary for profile re-estimation: we crop
    or pad the hit to the profile length, which preserves per-column
    composition closely enough for the smoothed profiles used here.
    """
    if len(hit_seq) >= query_len:
        return hit_seq[:query_len]
    return hit_seq + "-" * (query_len - len(hit_seq))


def search_databases(
    searches: Sequence, query_name: str, query_sequence: str
) -> List[SearchResult]:
    """Search one query against several databases in lockstep.

    ``searches`` are :class:`JackhmmerSearch` or
    :class:`repro.msa.nhmmer.NhmmerSearch` objects, one per database;
    each supplies its ``gates`` and ``iterations``, the query's hit
    inflation (``_inflation``) and each iteration's paper-scale trace
    (``_iteration_trace``).  The query's complexity profile is computed once, its profile HMM
    once per molecule type and its Gumbel fit once per (molecule type,
    seed); every search starts from those same objects, so
    :func:`scan_databases` scans all the databases that share them in
    one cascade.  Iteration ``i`` scans every search with more than
    ``i`` iterations.  A search that re-estimates its profile from its
    own hits (jackhmmer with ``iterations >= 2``) scans in a group of
    its own from then on.

    Returns one :class:`SearchResult` per search, in order, each
    exactly the result of searching its database alone.
    """
    complexity = profile_sequence(query_sequence)
    profiles: dict = {}
    fits: dict = {}
    scans = []
    results: List[SearchResult] = []
    for search in searches:
        mtype = search.database.spec.molecule_type
        if mtype not in profiles:
            profiles[mtype] = ProfileHMM.from_query(
                query_sequence, mtype, name=query_name
            )
        if (mtype, search.seed) not in fits:
            fits[mtype, search.seed] = calibrate(profiles[mtype],
                                                 seed=search.seed)
        scans.append((search, profiles[mtype], fits[mtype, search.seed]))
        results.append(SearchResult(
            query_name=query_name,
            database_name=search.database.spec.name,
            hits=[],
            stats=SearchStats(
                scale_factor=search.database.scale_factor,
                inflation_factor=search._inflation(complexity),
            ),
            trace=WorkloadTrace(),
            gumbel=fits[mtype, search.seed],
        ))

    rounds = max((search.iterations for search in searches), default=0)
    for iteration in range(rounds):
        active = [i for i, search in enumerate(searches)
                  if iteration < search.iterations]
        scanned = scan_databases([scans[i] for i in active])
        for i, (hits, outcome) in zip(active, scanned):
            search, profile, _ = scans[i]
            result = results[i]
            result.scan_outcomes.append(outcome)
            counts = result.stats.add_scan(outcome.results, hits)
            result.trace.extend(search._iteration_trace(
                profile, counts, result.stats.inflation_factor,
                len(query_sequence),
            ))
            hits.sort(key=lambda h: h.evalue)
            result.hits = hits[:MAX_HITS]

            # Re-estimate the profile from the alignment for the next
            # round (jackhmmer's defining behaviour).
            if iteration + 1 < search.iterations and result.hits:
                rows = [query_sequence] + [
                    _align_hit_to_profile(len(query_sequence),
                                          h.target_sequence)
                    for h in result.hits
                ]
                profile = ProfileHMM.from_alignment(
                    rows, search.database.spec.molecule_type,
                    name=f"{query_name}_iter{iteration + 2}",
                )
                result.gumbel = calibrate(
                    profile, seed=search.seed + iteration + 1
                )
                scans[i] = (search, profile, result.gumbel)
    return results


class JackhmmerSearch:
    """Runs the iterative cascade for one query against one database."""

    def __init__(
        self,
        database: SequenceDatabase,
        config: Optional[SearchConfig] = None,
        seed: int = 0,
        plan: Optional[ExecutionPlan] = None,
        scan_shards: int = SCAN_SHARDS,
    ) -> None:
        if database.spec.molecule_type != MoleculeType.PROTEIN:
            raise ValueError("jackhmmer searches protein databases")
        if scan_shards < 1:
            raise ValueError("scan_shards must be >= 1")
        self.database = database
        self.config = config or SearchConfig()
        self.seed = seed
        self.plan = plan or ExecutionPlan.serial()
        self.scan_shards = scan_shards

    @property
    def gates(self) -> ScanGates:
        return self.config.gates

    @property
    def iterations(self) -> int:
        return self.config.iterations

    def search(self, query_name: str, query_sequence: str) -> SearchResult:
        """Run the full iterative search and return hits + trace:
        the one-database case of :func:`search_databases`."""
        return search_databases([self], query_name, query_sequence)[0]

    @staticmethod
    def _inflation(complexity: ComplexityProfile) -> float:
        """Hit inflation of the query: low-complexity queries drag
        extra candidates through the gapped stages."""
        return complexity.hit_inflation_factor

    def _iteration_trace(
        self,
        profile: ProfileHMM,
        counts: Tuple[int, int, int, int],
        inflation: float,
        query_length: int,
    ) -> WorkloadTrace:
        """Paper-scale work records of one search iteration, from its
        scan's ``(msv_cells, vit_cells, fwd_cells, msv_pass)``."""
        msv_cells, vit_cells, fwd_cells, msv_pass = counts
        scale = self.database.scale_factor
        trace = WorkloadTrace()
        reader = BufferedDatabaseReader(self.database, phase="msa.io")
        io_factor = 1.0 + (inflation - 1.0) * IO_PASS_PER_INFLATION
        trace.extend(reader.trace_full_scan(passes=1).scaled(io_factor))

        align_ws = ALIGN_BASE_WORKING_SET + int(
            ALIGN_WORKING_SET_PER_INFLATION * (inflation - 1.0)
        )
        # Repetitive (inflated) queries touch long runs of identical
        # band rows; the hardware prefetchers see near-sequential
        # streams (the paper's promo-on-Intel finding: LLC misses FALL
        # with threads thanks to regular access patterns).
        align_pattern = (
            AccessPattern.SEQUENTIAL if inflation > 1.5 else AccessPattern.STRIDED
        )
        msv_cells_paper = msv_cells * scale
        # Gapped-stage work scales with inflation: low-complexity
        # queries drag extra ambiguous candidates into the banded
        # kernels (paper, Observation 2).
        vit_cells_paper = vit_cells * scale * inflation
        fwd_cells_paper = fwd_cells * scale * inflation

        trace.add(OpRecord(
            function="msv_filter",
            phase="msa.filter",
            instructions=msv_cells_paper * MSV_INSTR_PER_CELL,
            bytes_read=msv_cells_paper * 0.12,
            bytes_written=msv_cells_paper * 0.01,
            working_set_bytes=profile.nbytes + 256 * 1024,
            pattern=AccessPattern.STRIDED,
            parallel=True,
            branch_rate=0.05,
        ))
        trace.add(OpRecord(
            function="calc_band_9",
            phase="msa.align",
            instructions=vit_cells_paper * VITERBI_INSTR_PER_CELL,
            bytes_read=vit_cells_paper * BYTES_PER_CELL,
            bytes_written=vit_cells_paper * BYTES_PER_CELL * 0.4,
            working_set_bytes=align_ws,
            pattern=align_pattern,
            parallel=True,
            branch_rate=0.10,
            page_span_bytes=align_ws * 4,
        ))
        trace.add(OpRecord(
            function="calc_band_10",
            phase="msa.align",
            instructions=fwd_cells_paper * FORWARD_INSTR_PER_CELL,
            bytes_read=fwd_cells_paper * BYTES_PER_CELL,
            bytes_written=fwd_cells_paper * BYTES_PER_CELL * 0.4,
            working_set_bytes=align_ws,
            pattern=align_pattern,
            parallel=True,
            branch_rate=0.10,
            page_span_bytes=align_ws * 4,
        ))
        # Serial tail: hit collation, alignment assembly, profile
        # re-estimation and output writing.  This is the Amdahl term
        # that caps MSA thread scaling.
        hit_work = (msv_pass * scale * inflation) * 5_000.0 + 2e8
        trace.add(OpRecord(
            function="hit_postprocess",
            phase="msa.assemble",
            instructions=hit_work,
            bytes_read=hit_work * 2.0,
            bytes_written=hit_work * 1.0,
            working_set_bytes=64 * 1024 * 1024,
            pattern=AccessPattern.RANDOM,
            parallel=False,
            branch_rate=0.2,
            page_span_bytes=512 * 1024 * 1024,
        ))
        return trace
