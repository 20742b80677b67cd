"""Cross-chain MSA pairing for multimeric assemblies.

For complexes, AF3 (like AF2-Multimer) pairs MSA rows *across chains*
by source organism: row i of chain A and row j of chain B are placed in
the same paired row only if they come from the same species, so the
paired block carries inter-chain co-evolutionary signal.  Rows without
a cross-chain partner go into per-chain unpaired blocks.

Synthetic database records carry no organism metadata, so taxa are
assigned deterministically from the record name (a stable hash into a
configurable number of synthetic species).  The pairing *logic* — the
part that matters for the feature pipeline — is exactly the production
algorithm: group per chain by taxon, take the best-scoring row per
(chain, taxon), emit rows for taxa covered by every chain.
"""

from __future__ import annotations

import dataclasses
import zlib
from typing import Dict, List, Optional, Tuple

from ..sequences.alphabets import GAP, MoleculeType
from .aligner import Msa

#: Number of synthetic species the deterministic assignment uses.
DEFAULT_NUM_TAXA = 32


def taxon_of(row_name: str, num_taxa: int = DEFAULT_NUM_TAXA) -> int:
    """Stable synthetic taxon id for a database record name."""
    if num_taxa < 1:
        raise ValueError("num_taxa must be >= 1")
    return zlib.crc32(row_name.encode()) % num_taxa


@dataclasses.dataclass(frozen=True)
class PairedMsa:
    """The outcome of pairing MSAs across chains.

    ``paired_rows[chain_id]`` are row stacks of equal depth whose k-th
    rows share a taxon; ``unpaired_rows[chain_id]`` hold the remainder.
    The query rows (row 0 of every chain) always form the first paired
    row, mirroring AF3's convention.
    """

    chain_ids: Tuple[str, ...]
    paired_rows: Dict[str, Tuple[str, ...]]
    unpaired_rows: Dict[str, Tuple[str, ...]]
    paired_taxa: Tuple[int, ...]

    @property
    def paired_depth(self) -> int:
        return len(self.paired_taxa) + 1  # + query row

    def assembly_width(self) -> int:
        return sum(len(self.paired_rows[c][0]) for c in self.chain_ids)

    def paired_block_matrix(self) -> List[str]:
        """Concatenated cross-chain rows (the block AF3 feeds as the
        paired MSA): row k = chain rows of taxon k joined in chain
        order."""
        depth = self.paired_depth
        out: List[str] = []
        for k in range(depth):
            out.append("".join(
                self.paired_rows[c][k] for c in self.chain_ids
            ))
        return out


def pair_msas(
    chain_msas: Dict[str, Msa],
    num_taxa: int = DEFAULT_NUM_TAXA,
    max_paired_rows: Optional[int] = None,
) -> PairedMsa:
    """Pair per-chain MSAs by (synthetic) taxon.

    Raises on empty input; single-chain input degenerates to an empty
    paired block plus that chain's rows unpaired (no partner exists).
    """
    if not chain_msas:
        raise ValueError("need at least one chain MSA")
    chain_ids = tuple(chain_msas)

    # Best row per (chain, taxon); row 0 is the query and stays out of
    # the taxon pool.
    per_chain_taxa: Dict[str, Dict[int, str]] = {}
    claimed: Dict[str, List[int]] = {}
    for chain_id, msa in chain_msas.items():
        pool: Dict[int, str] = {}
        order: List[int] = []
        for name, row in list(zip(msa.row_names, msa.rows))[1:]:
            taxon = taxon_of(name, num_taxa)
            if taxon not in pool:  # rows arrive best-first (E-value sort)
                pool[taxon] = row
                order.append(taxon)
        per_chain_taxa[chain_id] = pool
        claimed[chain_id] = order

    if len(chain_ids) > 1:
        shared = set(per_chain_taxa[chain_ids[0]])
        for chain_id in chain_ids[1:]:
            shared &= set(per_chain_taxa[chain_id])
        # Keep first-chain discovery order for determinism.
        paired_taxa = tuple(
            t for t in claimed[chain_ids[0]] if t in shared
        )
    else:
        paired_taxa = tuple()
    if max_paired_rows is not None:
        paired_taxa = paired_taxa[:max_paired_rows]

    paired_rows: Dict[str, Tuple[str, ...]] = {}
    unpaired_rows: Dict[str, Tuple[str, ...]] = {}
    for chain_id, msa in chain_msas.items():
        query = msa.rows[0]
        paired = [query] + [
            per_chain_taxa[chain_id][t] for t in paired_taxa
        ]
        used = set(paired)
        unpaired = [r for r in msa.rows[1:] if r not in used]
        paired_rows[chain_id] = tuple(paired)
        unpaired_rows[chain_id] = tuple(unpaired)

    return PairedMsa(
        chain_ids=chain_ids,
        paired_rows=paired_rows,
        unpaired_rows=unpaired_rows,
        paired_taxa=paired_taxa,
    )


def paired_assembly_msa(
    paired: PairedMsa,
    molecule_types: Dict[str, MoleculeType],
) -> Msa:
    """Materialise the paired block as one assembly-wide Msa.

    Unpaired rows are padded with gaps over the other chains' columns
    (block-diagonal), exactly how AF3 lays out the final MSA feature.
    """
    widths = {
        c: len(paired.paired_rows[c][0]) for c in paired.chain_ids
    }
    rows: List[str] = list(paired.paired_block_matrix())
    names: List[str] = ["query"] + [
        f"paired_taxon_{t}" for t in paired.paired_taxa
    ]
    for chain_id in paired.chain_ids:
        for i, row in enumerate(paired.unpaired_rows[chain_id]):
            padded = "".join(
                row if c == chain_id else GAP * widths[c]
                for c in paired.chain_ids
            )
            rows.append(padded)
            names.append(f"unpaired_{chain_id}_{i}")
    mtype = next(iter(molecule_types.values()), MoleculeType.PROTEIN)
    return Msa(
        query_name="assembly",
        molecule_type=mtype,
        rows=tuple(rows),
        row_names=tuple(names),
    )
