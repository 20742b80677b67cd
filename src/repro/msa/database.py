"""Sequence databases: synthetic stand-ins for the real MSA databases.

The real AF3 MSA phase streams hundreds of GiB of reference databases
(UniRef90, MGnify, BFD for proteins; Rfam/RNACentral/NT for RNA) through
jackhmmer/nhmmer.  Those are not shippable, so this module provides:

* :class:`DatabaseSpec` — metadata of a *paper-scale* database (name,
  on-disk bytes, sequence count, average length).  These drive the
  storage/memory models and the work-extrapolation factor.
* :class:`SequenceDatabase` — an in-memory synthetic database whose
  records are actually searched by the DP kernels.  Statistics measured
  on the synthetic records (filter pass rates, cells per survivor) are
  extrapolated to the paper-scale record count.
* :class:`BufferedDatabaseReader` — a block-buffered reader whose
  functions are named after the symbols the paper's perf profiles
  attribute I/O time to: ``copy_to_iter`` (kernel-to-user copy),
  ``addbuf`` (buffer fill) and ``seebuf`` (lookahead parsing).
"""

from __future__ import annotations

import dataclasses
import functools
import random
from typing import Iterator, List, Sequence, Tuple

import numpy as np

from ..sequences.alphabets import MoleculeType
from ..sequences.generator import insert_poly_run, mutate_sequence, random_sequence
from ..trace import AccessPattern, OpRecord, Resource, WorkloadTrace
from .profile_hmm import encode_sequence

#: Residues that dominate real low-complexity protein regions.
REPEAT_RESIDUES = "QNSAEG"


@dataclasses.dataclass(frozen=True)
class DatabaseSpec:
    """Paper-scale database metadata (what the synthetic DB stands in for)."""

    name: str
    molecule_type: MoleculeType
    on_disk_bytes: int
    num_sequences: int
    mean_length: int

    def __post_init__(self) -> None:
        if self.on_disk_bytes <= 0 or self.num_sequences <= 0 or self.mean_length <= 0:
            raise ValueError("database spec fields must be positive")


# Paper-scale database inventory.  Sizes follow the public AF3 database
# footprints; the 89 GiB RNA collection is quoted directly in the paper
# (Section V-B2c).
UNIREF90 = DatabaseSpec("uniref90", MoleculeType.PROTEIN, 62_000_000_000, 150_000_000, 260)
MGNIFY = DatabaseSpec("mgnify", MoleculeType.PROTEIN, 120_000_000_000, 300_000_000, 230)
SMALL_BFD = DatabaseSpec("small_bfd", MoleculeType.PROTEIN, 17_000_000_000, 65_000_000, 180)
RFAM = DatabaseSpec("rfam", MoleculeType.RNA, 400_000_000, 2_800_000, 140)
RNACENTRAL = DatabaseSpec("rnacentral", MoleculeType.RNA, 14_000_000_000, 30_000_000, 420)
NT_RNA = DatabaseSpec("nt_rna", MoleculeType.RNA, 89_000_000_000, 55_000_000, 900)

PROTEIN_SEARCH_DBS: Tuple[DatabaseSpec, ...] = (UNIREF90, MGNIFY, SMALL_BFD)
RNA_SEARCH_DBS: Tuple[DatabaseSpec, ...] = (RFAM, RNACENTRAL, NT_RNA)


def total_on_disk_bytes(specs: Sequence[DatabaseSpec]) -> int:
    return sum(s.on_disk_bytes for s in specs)


@dataclasses.dataclass
class SequenceDatabase:
    """Synthetic searchable database paired with a paper-scale spec."""

    spec: DatabaseSpec
    records: List[Tuple[str, str]]

    def __post_init__(self) -> None:
        if not self.records:
            raise ValueError("database must contain at least one record")

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[Tuple[str, str]]:
        return iter(self.records)

    @property
    def scale_factor(self) -> float:
        """How many paper-scale records each synthetic record stands for."""
        return self.spec.num_sequences / len(self.records)

    @functools.cached_property
    def encoded_records(self) -> List[Tuple[str, str, np.ndarray]]:
        """``(name, seq, encoded)`` for every record, encoded on first
        use.  Encoding is query-independent, so every search against
        this database, protein or RNA, shares one encode pass."""
        mtype = self.spec.molecule_type
        return [
            (name, seq, encode_sequence(seq, mtype))
            for name, seq in self.records
        ]


def build_database(
    spec: DatabaseSpec,
    query_sequences: Sequence[str],
    num_background: int = 240,
    homologs_per_query: int = 24,
    low_complexity_fraction: float = 0.06,
    seed: int = 0,
) -> SequenceDatabase:
    """Build the synthetic database used for functional searches.

    Contents:

    * ``num_background`` background-random sequences around the spec's
      mean length;
    * ``homologs_per_query`` planted homologs per query (identities
      0.45-0.85), standing in for the query's natural sequence family;
    * a ``low_complexity_fraction`` of the background records get
      poly-X runs, because real databases are full of low-complexity
      junk — this is what makes repetitive queries (promo's poly-Q)
      inflate candidate hit counts organically.
    """
    if not 0.0 <= low_complexity_fraction <= 1.0:
        raise ValueError("low_complexity_fraction must be in [0, 1]")
    rng = random.Random(seed)
    mtype = spec.molecule_type
    records: List[Tuple[str, str]] = []
    lo = max(30, int(spec.mean_length * 0.5))
    hi = int(spec.mean_length * 1.5)
    n_lc = int(round(num_background * low_complexity_fraction))
    for i in range(num_background):
        length = rng.randint(lo, hi)
        seq = random_sequence(length, mtype, seed=seed + 7919 * (i + 1))
        if i < n_lc and mtype == MoleculeType.PROTEIN:
            residue = rng.choice(REPEAT_RESIDUES)
            run = min(length // 2, rng.randint(15, 60))
            seq = insert_poly_run(seq, residue, run, seed=seed + i)
        records.append((f"{spec.name}_bg{i:05d}", seq))
    for qidx, query in enumerate(query_sequences):
        for h in range(homologs_per_query):
            identity = 0.45 + 0.4 * (h / max(1, homologs_per_query - 1))
            member = mutate_sequence(
                query, mtype, identity, seed=seed + 104729 * (qidx + 1) + h
            )
            records.append((f"{spec.name}_q{qidx}h{h:03d}", member))
    rng.shuffle(records)
    return SequenceDatabase(spec=spec, records=records)


#: Reader buffer block size (matches a typical 256 KiB readahead unit).
BLOCK_BYTES = 256 * 1024

#: Default number of checkpointable slices one full database scan is
#: divided into.  A scan interrupted mid-stream resumes from its last
#: completed shard instead of re-reading the whole database — 16 keeps
#: the worst-case lost work at 1/16 of a scan while the checkpoint
#: metadata stays tiny.
SCAN_SHARDS = 16

#: Average FASTA overhead per record (header + newlines), used to map
#: sequence bytes to on-disk stream bytes.
RECORD_OVERHEAD = 24

# Cost coefficients for the I/O-side functions, in instructions per
# streamed byte.  copy_to_iter folds the kernel copy loop plus page-
# cache lookup, readahead bookkeeping and fault-path length; addbuf and
# seebuf are HMMER-style byte-at-a-time FASTA parsing/validation and
# lookahead with buffer compaction.  The values are calibrated so the
# function-level cycle shares for the 2PV7 search match the paper's
# Table IV (addbuf ~16%, seebuf ~6%) given the DP kernels' cell costs.
COPY_TO_ITER_INSTR_PER_BYTE = 24.0
ADDBUF_INSTR_PER_BYTE = 60.0
SEEBUF_INSTR_PER_BYTE = 22.0


class BufferedDatabaseReader:
    """Streams a database through a block buffer, tracing the I/O work.

    The traced functions correspond one-to-one with the paper's Table IV
    rows: the kernel copy path ``copy_to_iter`` (sequential, cache-
    hostile because data arrives cold), ``addbuf`` (fills the parse
    buffer) and ``seebuf`` (lookahead over buffered bytes).
    """

    def __init__(self, database: SequenceDatabase, phase: str = "msa.io") -> None:
        self.database = database
        self.phase = phase

    def stream_bytes(self) -> int:
        """On-disk bytes one full pass over the paper-scale DB reads."""
        return self.database.spec.on_disk_bytes

    def trace_full_scan(self, passes: int = 1) -> WorkloadTrace:
        """Trace of streaming the paper-scale database ``passes`` times."""
        if passes < 1:
            raise ValueError("passes must be >= 1")
        return self._trace_stream(float(self.stream_bytes() * passes))

    def trace_partial_scan(
        self, first_shard: int, total_shards: int = SCAN_SHARDS
    ) -> WorkloadTrace:
        """Trace of resuming a scan at ``first_shard`` of ``total_shards``.

        A checkpointed search restarts here instead of at byte zero:
        only the ``total_shards - first_shard`` remaining slices of the
        paper-scale stream are read, so resumed I/O work is strictly
        less than a cold re-scan whenever at least one shard completed.
        """
        if total_shards < 1:
            raise ValueError("total_shards must be >= 1")
        if not 0 <= first_shard <= total_shards:
            raise ValueError("first_shard out of range")
        fraction = (total_shards - first_shard) / total_shards
        return self._trace_stream(float(self.stream_bytes()) * fraction)

    def trace_stall(self, seconds: float) -> WorkloadTrace:
        """Trace of an injected read stall (cold cache, degraded NVMe).

        A pure ``Resource.WAIT`` interval on the stream: no
        instructions retire and no bytes move, the scan just finishes
        late — matching how an I/O stall shows up in host profiles
        (iowait, not cycles).
        """
        if seconds < 0:
            raise ValueError("stall seconds must be >= 0")
        trace = WorkloadTrace()
        trace.add(OpRecord.wait(
            "copy_to_iter", f"{self.phase}.stall", seconds
        ))
        return trace

    def _trace_stream(self, total: float) -> WorkloadTrace:
        trace = WorkloadTrace()
        trace.add(OpRecord(
            function="copy_to_iter",
            phase=self.phase,
            instructions=total * COPY_TO_ITER_INSTR_PER_BYTE,
            bytes_read=total,
            bytes_written=total,
            working_set_bytes=BLOCK_BYTES,
            pattern=AccessPattern.SEQUENTIAL,
            parallel=True,
            resource=Resource.CPU,
            branch_rate=0.02,
            disk_bytes=total,
        ))
        trace.add(OpRecord(
            function="addbuf",
            phase=self.phase,
            instructions=total * ADDBUF_INSTR_PER_BYTE,
            bytes_read=total,
            bytes_written=total * 0.2,
            working_set_bytes=4 * BLOCK_BYTES,
            pattern=AccessPattern.SEQUENTIAL,
            parallel=True,
            branch_rate=0.18,
        ))
        trace.add(OpRecord(
            function="seebuf",
            phase=self.phase,
            instructions=total * SEEBUF_INSTR_PER_BYTE,
            bytes_read=total * 0.4,
            bytes_written=0.0,
            working_set_bytes=BLOCK_BYTES,
            pattern=AccessPattern.SEQUENTIAL,
            parallel=True,
            branch_rate=0.22,
        ))
        return trace


def record_stream_bytes(record: Tuple[str, str]) -> int:
    """On-stream size of one record (sequence + FASTA overhead)."""
    return len(record[1]) + RECORD_OVERHEAD
