"""MSA-phase engine tests (uses session-scoped cached runs)."""

import pytest

from repro.msa.database import RNA_SEARCH_DBS
from repro.msa.engine import MsaEngine, MsaEngineConfig
from repro.sequences.builtin import get_sample

GIB = 1024 ** 3


class TestEngineBasics:
    def test_cached_run_is_same_object(self, msa_engine, samples):
        a = msa_engine.run(samples["2PV7"])
        b = msa_engine.run(samples["2PV7"])
        assert a is b

    def test_2pv7_runs_one_chain_three_dbs(self, msa_2pv7):
        # Homodimer dedup: 1 unique chain x 3 protein databases.
        assert len(msa_2pv7.searches) == 3

    def test_6qnr_includes_rna_searches(self, msa_6qnr):
        rna_dbs = {spec.name for spec in RNA_SEARCH_DBS}
        rna = [s for s in msa_6qnr.searches if s.database_name in rna_dbs]
        assert len(rna) == 3  # one RNA chain x 3 RNA databases

    def test_chain_msas_cover_searched_chains(self, msa_promo, samples):
        promo = samples["promo"]
        for chain in promo.assembly:
            if chain.molecule_type.runs_msa:
                assert chain.chain_id in msa_promo.chain_msas
            else:
                # DNA chains skip the MSA phase entirely (Section IV-B).
                assert chain.chain_id not in msa_promo.chain_msas

    def test_msa_rows_match_chain_length(self, msa_2pv7, samples):
        chain = samples["2PV7"].assembly.chains[0]
        msa = msa_2pv7.chain_msas["A"]
        assert msa.width == chain.length
        assert msa.depth > 1  # found homologs

    def test_features_token_count(self, msa_promo, samples):
        assert msa_promo.features.num_tokens == samples["promo"].sequence_length


class TestEngineWorkload:
    def test_instruction_ordering_across_samples(self, msa_engine, samples):
        totals = {
            name: msa_engine.run(samples[name]).trace.total_instructions()
            for name in ("2PV7", "1YY9", "promo", "6QNR")
        }
        assert totals["2PV7"] < totals["1YY9"] < totals["promo"] < totals["6QNR"]

    def test_promo_costs_more_than_comparable_1yy9(self, msa_engine, samples):
        # Observation 2: similar lengths, poly-Q makes promo dearer.
        promo = msa_engine.run(samples["promo"]).trace.total_instructions()
        yy9 = msa_engine.run(samples["1YY9"]).trace.total_instructions()
        assert 1.2 < promo / yy9 < 2.5

    def test_peak_memory_6qnr_is_rna_bound(self, msa_6qnr):
        peak = msa_6qnr.peak_memory_bytes(threads=8)
        assert peak > 64 * GIB  # drives the Desktop OOM

    def test_peak_memory_protein_scales_with_threads(self, msa_2pv7):
        assert msa_2pv7.peak_memory_bytes(8) > msa_2pv7.peak_memory_bytes(1)

    def test_database_footprint(self, msa_engine, samples):
        protein_only = msa_engine.database_footprint_bytes(samples["2PV7"])
        with_rna = msa_engine.database_footprint_bytes(samples["6QNR"])
        assert with_rna > protein_only

    def test_total_hits_positive(self, msa_2pv7):
        assert msa_2pv7.total_hits > 0


class TestEngineConfig:
    @pytest.mark.parametrize("max_rows", [0, -1])
    def test_max_msa_rows_below_one_rejected(self, max_rows):
        with pytest.raises(ValueError, match="max_msa_rows"):
            MsaEngineConfig(max_msa_rows=max_rows)


class TestEngineDeterminism:
    def test_two_engines_agree(self, samples):
        cfg = MsaEngineConfig(num_background=16, homologs_per_query=3, seed=5)
        a = MsaEngine(cfg).run(samples["7RCE"])
        b = MsaEngine(cfg).run(samples["7RCE"])
        assert a.trace.total_instructions() == b.trace.total_instructions()
        assert a.total_hits == b.total_hits


class TestEnginePairing:
    def test_promo_chains_pair(self, msa_promo):
        paired = msa_promo.paired_msa()
        assert set(paired.chain_ids) == {"A", "B", "C"}
        # Queries always pair; planted families share taxa organically.
        assert paired.paired_depth >= 1

    def test_cap_respected(self, msa_promo):
        paired = msa_promo.paired_msa(max_paired_rows=1)
        assert paired.paired_depth <= 2
