"""Nucleotide homology search (nhmmer analogue) and its memory model.

AF3 searches RNA chains against nucleotide databases with nhmmer
(Wheeler & Eddy).  Two properties matter for the characterization:

* the *search* reuses the same profile-DP cascade as the protein path
  (nhmmer literally shares HMMER's MSV/Viterbi/Forward engine), scanning
  long targets in windows and on both strands;
* its *peak memory* grows non-linearly with query RNA length — the
  paper's Figure 2 shows 79.3 GiB at 621 nt, 506 GiB at 935 nt,
  644 GiB at 1,135 nt (needing CXL expansion) and OOM above that.

The memory model here is a monotone log-log interpolation through the
paper's measured anchor points; between anchors memory follows a local
power law, and beyond the last anchor the final slope is extrapolated.
That is a *calibrated* substitution: we cannot re-measure nhmmer's
allocator against a 700 GiB ribosomal hit list, so we pin the curve to
the published measurements (documented in DESIGN.md).
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

from ..parallel.plan import ExecutionPlan
from ..sequences.alphabets import MoleculeType
from ..sequences.complexity import ComplexityProfile
from ..trace import AccessPattern, OpRecord, WorkloadTrace
from .database import BufferedDatabaseReader, SCAN_SHARDS, SequenceDatabase
from .dp import calc_band_9, calc_band_10, msv_filter
from .kernels import (
    Hit,
    ScanGates,
    ShardScanResult,
    pad_waste,
    window_bounds,
)
from .jackhmmer import (
    FORWARD_INSTR_PER_CELL,
    MSV_INSTR_PER_CELL,
    SearchResult,
    VITERBI_INSTR_PER_CELL,
    search_databases,
)
from .profile_hmm import ProfileHMM, encode_sequence

GIB = 1024 ** 3

#: (RNA query length nt, peak RSS GiB) anchors.  The 621/935/1135 points
#: are measured values from the paper's Figure 2; the flanking points
#: extend the curve smoothly to short queries and to the OOM regime.
RNA_MEMORY_ANCHORS: Tuple[Tuple[float, float], ...] = (
    (100.0, 1.6),
    (300.0, 9.0),
    (621.0, 79.3),
    (935.0, 506.0),
    (1135.0, 644.0),
    (1500.0, 1150.0),
)

#: Protein-side jackhmmer memory model (paper Section III-C): a fixed
#: base plus a per-thread term proportional to query length.  Anchors:
#: a 1,000-residue query needs 0.23 GiB at 1 thread and ~0.9 GiB at 8.
PROTEIN_MEMORY_BASE_GIB = 0.134
PROTEIN_MEMORY_PER_THREAD_GIB_PER_KRES = 0.096


def rna_peak_memory_bytes(rna_length: int) -> float:
    """Peak nhmmer memory for an RNA query, in bytes.

    Piecewise power-law (linear in log-log space) through the paper's
    Figure 2 anchors.  Thread count does not matter: the paper found
    peak consumption for long RNA to be thread-independent.
    """
    if rna_length <= 0:
        return 0.0
    anchors = RNA_MEMORY_ANCHORS
    x = float(rna_length)
    if x <= anchors[0][0]:
        # Below the first anchor, scale down along the first segment's slope.
        (x0, y0), (x1, y1) = anchors[0], anchors[1]
    elif x >= anchors[-1][0]:
        (x0, y0), (x1, y1) = anchors[-2], anchors[-1]
    else:
        for (x0, y0), (x1, y1) in zip(anchors, anchors[1:]):
            if x0 <= x <= x1:
                break
    slope = math.log(y1 / y0) / math.log(x1 / x0)
    gib = y0 * (x / x0) ** slope
    return gib * GIB


def protein_peak_memory_bytes(protein_length: int, threads: int) -> float:
    """Peak jackhmmer memory for a protein query, in bytes.

    Linear in both query length and thread count; accompanying chains
    have negligible impact (paper Section III-C), so callers pass one
    chain at a time and take the max.
    """
    if protein_length <= 0:
        return 0.0
    if threads < 1:
        raise ValueError("threads must be >= 1")
    gib = (
        PROTEIN_MEMORY_BASE_GIB
        + PROTEIN_MEMORY_PER_THREAD_GIB_PER_KRES * threads * (protein_length / 1000.0)
    )
    return gib * GIB


def chain_peak_memory_bytes(
    molecule_type: MoleculeType, length: int, threads: int
) -> float:
    """Peak MSA memory of searching one chain, in bytes.

    nhmmer's model for RNA, jackhmmer's for protein, and nothing for
    chains no search runs on.  The MSA phase's peak is the max of this
    over its searched chains.
    """
    if molecule_type == MoleculeType.RNA:
        return rna_peak_memory_bytes(length)
    if molecule_type == MoleculeType.PROTEIN:
        return protein_peak_memory_bytes(length, threads)
    return 0.0


#: Window length nhmmer uses when scanning long nucleotide targets.
SCAN_WINDOW = 256

#: nhmmer's E-value gates: a permissive MSV prefilter, then the
#: reporting threshold on the Forward score.  nhmmer has no Viterbi
#: gate: its scan passes ``viterbi_evalue=math.inf``.
MSV_EVALUE = 500.0
FINAL_EVALUE = 1e-2


def reference_scan_rna_shard(payload) -> ShardScanResult:
    """The scalar per-window loop over one RNA shard: the ``==``
    oracle for :func:`repro.msa.kernels.scan_shard` (same payload,
    same result).

    Windows are cut from the raw ``seq`` strings and encoded one at a
    time in the profile's molecule type; the encoded triple member of
    each target is not read.
    """
    shard_index, profile, gumbel, targets, gates, db_size = payload
    mtype = profile.molecule_type
    hits: List[Hit] = []
    msv_cells = vit_cells = fwd_cells = 0
    msv_pass = 0
    window_lengths: List[int] = []
    for name, seq, _ in targets:
        best_window_score = None
        best_window = None
        for lo, hi in window_bounds(len(seq), gates.window):
            window = seq[lo:hi]
            window_lengths.append(len(window))
            encoded = encode_sequence(window, mtype)
            msv = msv_filter(profile, encoded)
            msv_cells += msv.cells
            if best_window_score is None or msv.score > best_window_score:
                best_window_score, best_window = msv.score, window
        if best_window is None:
            continue
        if gumbel.evalue(best_window_score, db_size) > gates.msv_evalue:
            continue
        msv_pass += 1
        encoded = encode_sequence(best_window, mtype)
        emissions = profile.emission_row(encoded)
        vit = calc_band_9(profile, encoded, band=gates.band,
                          emissions=emissions)
        vit_cells += vit.cells
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
        vit_pass=msv_pass,
        msv_cells=msv_cells,
        vit_cells=vit_cells,
        fwd_cells=fwd_cells,
        pad_waste=pad_waste(window_lengths),
    )


class NhmmerSearch:
    """Windowed nucleotide profile search over a synthetic RNA database."""

    #: nhmmer scans each database once.
    iterations = 1

    def __init__(
        self,
        database: SequenceDatabase,
        band: int = 48,
        seed: int = 0,
        plan: Optional[ExecutionPlan] = None,
        scan_shards: int = SCAN_SHARDS,
    ) -> None:
        if database.spec.molecule_type == MoleculeType.PROTEIN:
            raise ValueError("nhmmer searches nucleotide databases")
        if scan_shards < 1:
            raise ValueError("scan_shards must be >= 1")
        self.database = database
        self.band = band
        self.seed = seed
        self.plan = plan or ExecutionPlan.serial()
        self.scan_shards = scan_shards

    @property
    def gates(self) -> ScanGates:
        return ScanGates(self.band, MSV_EVALUE, math.inf, FINAL_EVALUE,
                         SCAN_WINDOW)

    def search(self, query_name: str, query_sequence: str) -> SearchResult:
        """Run the windowed cascade for one RNA query: the one-database
        case of :func:`repro.msa.jackhmmer.search_databases`."""
        return search_databases([self], query_name, query_sequence)[0]

    @staticmethod
    def _inflation(complexity: ComplexityProfile) -> float:
        """nhmmer's trace models no hit inflation."""
        return 1.0

    def _iteration_trace(
        self,
        profile: ProfileHMM,
        counts: Tuple[int, int, int, int],
        inflation: float,
        query_length: int,
    ) -> WorkloadTrace:
        """Paper-scale work records of the scan, from its
        ``(msv_cells, vit_cells, fwd_cells, msv_pass)``."""
        msv_cells, vit_cells, fwd_cells, _ = counts
        scale = self.database.scale_factor
        # Long RNA queries blow up the candidate hit list superlinearly
        # — the same mechanism behind Fig 2's memory curve — and every
        # candidate must be re-scored, re-read and re-filtered.
        work_amplification = max(1.0, (query_length / 250.0) ** 1.6)
        trace = WorkloadTrace()
        reader = BufferedDatabaseReader(self.database, phase="msa.io")
        trace.extend(reader.trace_full_scan(passes=1))

        # Long-RNA searches accumulate giant candidate hit lists; the
        # alignment working set tracks the (non-linear) memory model so
        # the cache simulator sees the same pressure the paper measured.
        hit_list_bytes = rna_peak_memory_bytes(query_length)
        align_ws = min(96 * 1024 * 1024, 24 * 1024 * 1024 + hit_list_bytes * 1e-4)

        msv_paper = msv_cells * scale
        vit_paper = vit_cells * scale
        fwd_paper = fwd_cells * scale
        trace.add(OpRecord(
            function="msv_filter", phase="msa.filter",
            instructions=msv_paper * MSV_INSTR_PER_CELL,
            bytes_read=msv_paper * 0.12, bytes_written=msv_paper * 0.01,
            working_set_bytes=512 * 1024, pattern=AccessPattern.STRIDED,
            parallel=True, branch_rate=0.05,
        ))
        trace.add(OpRecord(
            function="calc_band_9", phase="msa.align",
            instructions=vit_paper * VITERBI_INSTR_PER_CELL,
            bytes_read=vit_paper * 20.0, bytes_written=vit_paper * 8.0,
            working_set_bytes=align_ws, pattern=AccessPattern.STRIDED,
            parallel=True, branch_rate=0.10, page_span_bytes=align_ws * 4,
        ))
        trace.add(OpRecord(
            function="calc_band_10", phase="msa.align",
            instructions=fwd_paper * FORWARD_INSTR_PER_CELL,
            bytes_read=fwd_paper * 20.0, bytes_written=fwd_paper * 8.0,
            working_set_bytes=align_ws, pattern=AccessPattern.STRIDED,
            parallel=True, branch_rate=0.10, page_span_bytes=align_ws * 4,
        ))
        hit_work = stats_hit_work(msv_cells, scale, query_length)
        trace.add(OpRecord(
            function="hit_postprocess", phase="msa.assemble",
            instructions=hit_work, bytes_read=hit_work * 2.0,
            bytes_written=hit_work, working_set_bytes=64 * 1024 * 1024,
            pattern=AccessPattern.RANDOM, parallel=False, branch_rate=0.2,
            page_span_bytes=512 * 1024 * 1024,
        ))
        return trace.scaled(work_amplification)


def stats_hit_work(msv_cells: int, scale: float, query_length: int) -> float:
    """Serial hit-assembly instruction count for a nucleotide search.

    Grows superlinearly with query length for long RNA, mirroring the
    hit-list explosion that also drives the memory curve.
    """
    base = 2e8 + msv_cells * scale * 1e-3
    blowup = (max(1.0, query_length / 400.0)) ** 2.0
    return base * blowup
