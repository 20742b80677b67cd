"""nhmmer tests: windowed search, the Fig 2 memory model."""

import pytest

from repro.msa.database import NT_RNA, RFAM, UNIREF90, build_database
from repro.msa.nhmmer import (
    NhmmerSearch,
    PROTEIN_MEMORY_BASE_GIB,
    RNA_MEMORY_ANCHORS,
    chain_peak_memory_bytes,
    protein_peak_memory_bytes,
    rna_peak_memory_bytes,
)
from repro.sequences.generator import mutate_sequence, random_sequence
from repro.sequences.alphabets import MoleculeType

GIB = 1024 ** 3


class TestRnaMemoryModel:
    @pytest.mark.parametrize(
        "length, expected_gib",
        [(621, 79.3), (935, 506.0), (1135, 644.0)],
    )
    def test_paper_anchors_exact(self, length, expected_gib):
        assert rna_peak_memory_bytes(length) / GIB == pytest.approx(
            expected_gib, rel=1e-6
        )

    def test_1335_exceeds_server_total(self):
        # The paper's failed run: 1,335 nt > 768 GiB (512 DRAM + 256 CXL).
        assert rna_peak_memory_bytes(1335) > 768 * GIB

    def test_monotone(self):
        lengths = [50, 200, 621, 800, 935, 1135, 1400, 2000]
        peaks = [rna_peak_memory_bytes(x) for x in lengths]
        assert peaks == sorted(peaks)

    def test_superlinear_growth(self):
        # 621 -> 935 is a 1.5x length increase but >6x memory.
        ratio = rna_peak_memory_bytes(935) / rna_peak_memory_bytes(621)
        assert ratio > 6.0

    def test_zero_and_negative(self):
        assert rna_peak_memory_bytes(0) == 0.0
        assert rna_peak_memory_bytes(-5) == 0.0

    def test_anchor_table_sorted(self):
        xs = [x for x, _ in RNA_MEMORY_ANCHORS]
        assert xs == sorted(xs)


class TestProteinMemoryModel:
    def test_paper_anchor_1000res_1thread(self):
        assert protein_peak_memory_bytes(1000, 1) / GIB == pytest.approx(
            0.23, abs=0.01
        )

    def test_paper_anchor_1000res_8threads(self):
        assert protein_peak_memory_bytes(1000, 8) / GIB == pytest.approx(
            0.9, abs=0.05
        )

    def test_paper_anchor_2000res_8threads(self):
        assert protein_peak_memory_bytes(2000, 8) / GIB == pytest.approx(
            1.7, abs=0.1
        )

    def test_scales_with_threads(self):
        assert protein_peak_memory_bytes(500, 8) > protein_peak_memory_bytes(500, 1)

    def test_invalid_threads(self):
        with pytest.raises(ValueError):
            protein_peak_memory_bytes(100, 0)

    def test_protein_tiny_vs_rna(self):
        # Core paper finding: RNA memory dominates protein memory by
        # orders of magnitude.
        assert rna_peak_memory_bytes(621) > 40 * protein_peak_memory_bytes(2000, 8)


class TestNhmmerSearch:
    @pytest.fixture(scope="class")
    def rna_query(self):
        return random_sequence(300, MoleculeType.RNA, seed=31)

    @pytest.fixture(scope="class")
    def result(self, rna_query):
        db = build_database(RFAM, [rna_query], num_background=20,
                            homologs_per_query=5, seed=32)
        return NhmmerSearch(db, seed=3).search("rna_q", rna_query)

    def test_finds_homologs(self, result):
        assert len(result.hits) >= 3

    def test_chain_demand_uses_the_molecule_model(self):
        assert chain_peak_memory_bytes(MoleculeType.RNA, 300, 8) == (
            rna_peak_memory_bytes(300)
        )
        assert chain_peak_memory_bytes(MoleculeType.PROTEIN, 300, 8) == (
            protein_peak_memory_bytes(300, 8)
        )
        assert chain_peak_memory_bytes(MoleculeType.DNA, 300, 8) == 0.0

    def test_trace_functions(self, result):
        names = set(result.trace.function_shares())
        assert {"msv_filter", "calc_band_9", "calc_band_10"} <= names

    def test_protein_db_rejected(self):
        db = build_database(UNIREF90, [], num_background=5, seed=1)
        with pytest.raises(ValueError, match="nucleotide"):
            NhmmerSearch(db)

    def test_long_query_amplifies_work(self):
        short_q = random_sequence(150, MoleculeType.RNA, seed=41)
        long_q = random_sequence(650, MoleculeType.RNA, seed=42)
        db = build_database(NT_RNA, [short_q, long_q], num_background=12,
                            homologs_per_query=3, seed=43)
        short_r = NhmmerSearch(db).search("s", short_q)
        long_r = NhmmerSearch(db).search("l", long_q)
        per_cell_short = short_r.trace.total_instructions()
        per_cell_long = long_r.trace.total_instructions()
        # Hit-list blowup: the long query costs far more than the cell
        # ratio alone explains.
        assert per_cell_long > 3.0 * per_cell_short
