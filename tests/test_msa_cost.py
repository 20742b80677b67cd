"""``==`` oracles for the merged MSA-phase formulas.

:mod:`repro.msa.cost` and :func:`repro.faults.finished_scan_shards`
each replace code that used to live, in parallel copies, in the serving
gateway, the cluster and the campaign stages.  The references below
are those earlier expressions copied verbatim; every property pins the
shared code to them bit for bit, never approximately.
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterJob
from repro.cluster.jobs import chain_scan_seconds
from repro.faults import finished_scan_shards
from repro.hardware.platform import DESKTOP, SERVER
from repro.msa.cost import AnalyticMsaCostModel, msa_cost, msa_depth
from repro.msa.database import SCAN_SHARDS
from repro.sequences import Assembly, Chain, MoleculeType
from repro.sequences.generator import random_sequence
from repro.sequences.sample import ComplexityClass, InputSample
from repro.serving.cache import chain_content_key, chain_store_payload


# -- references: the formulas as they stood before the merge -----------

class ReferenceGatewayCostModel:
    """The serving gateway's closed form (instructions summed from the
    streaming overhead, one depth per assembly)."""

    PROTEIN_COEFF = 6.0e9
    PROTEIN_EXP = 1.2
    RNA_COEFF = 8.0e9
    RNA_EXP = 1.35
    OVERHEAD_INSTRUCTIONS = 1.2e11   # database streaming / setup
    THREAD_EXP = 0.75                # sublinear thread scaling

    def __init__(self, platform, threads=8):
        self.platform = platform
        self.threads = threads

    def cost(self, sample):
        instructions = self.OVERHEAD_INSTRUCTIONS
        for chain in sample.msa_queries():
            if chain.molecule_type.value == "rna":
                instructions += self.RNA_COEFF * chain.length ** self.RNA_EXP
            else:
                instructions += (
                    self.PROTEIN_COEFF * chain.length ** self.PROTEIN_EXP
                )
        rate = (
            self.platform.host_single_thread_ips
            * self.threads ** self.THREAD_EXP
        )
        depth = min(254, 32 + sample.assembly.total_residues // 6)
        return instructions / rate, depth


def reference_chain_scan_seconds(platform, chain, threads=8):
    """The cluster's per-chain scan (overhead added after the term)."""
    m = ReferenceGatewayCostModel
    if chain.molecule_type.value == "rna":
        instructions = m.RNA_COEFF * chain.length ** m.RNA_EXP
    else:
        instructions = m.PROTEIN_COEFF * chain.length ** m.PROTEIN_EXP
    instructions += m.OVERHEAD_INSTRUCTIONS
    rate = platform.host_single_thread_ips * threads ** m.THREAD_EXP
    return instructions / rate


def reference_gateway_completed(base_shards, elapsed, planned):
    """The gateway's abort path (clean stream, ``planned > 0``)."""
    progressed = int(
        (SCAN_SHARDS - base_shards) * (elapsed / planned)
    )
    return min(SCAN_SHARDS - 1, base_shards + progressed)


def reference_checkpointable_shards(elapsed, planned, total_shards):
    if planned <= 0 or elapsed <= 0:
        return 0
    done = math.floor(total_shards * min(1.0, elapsed / planned))
    return max(0, min(done, total_shards - 1))


def reference_cluster_done(resumed, elapsed, planned):
    """The cluster's drain path."""
    done = resumed + reference_checkpointable_shards(
        elapsed, planned,
        SCAN_SHARDS - resumed,
    )
    return min(done, SCAN_SHARDS - 1)


# -- strategies ---------------------------------------------------------

_SCANNED = (MoleculeType.PROTEIN, MoleculeType.RNA)

chain_specs = st.tuples(
    st.sampled_from(_SCANNED),
    st.integers(1, 3000),          # residues
    st.integers(1, 3),             # copies
    st.integers(0, 2 ** 16),       # sequence seed
)


def _chain(index, spec):
    mtype, length, copies, seed = spec
    return Chain(
        chr(ord("A") + index), mtype,
        random_sequence(length, mtype, seed=seed), copies=copies,
    )


def _sample(specs):
    assembly = Assembly(
        "mix", [_chain(i, spec) for i, spec in enumerate(specs)]
    )
    return InputSample("mix", assembly, ComplexityClass.MID, "oracle")


platforms = st.sampled_from([SERVER, DESKTOP])


# -- properties ---------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(
    specs=st.lists(chain_specs, min_size=1, max_size=5),
    platform=platforms,
    threads=st.integers(1, 64),
)
def test_assembly_cost_equals_the_gateway_formula(specs, platform, threads):
    sample = _sample(specs)
    seconds, depth = ReferenceGatewayCostModel(platform, threads).cost(
        sample
    )
    cost = msa_cost(sample, platform, threads)
    assert (cost.seconds, cost.depth) == (seconds, depth)
    cached = AnalyticMsaCostModel(platform, threads).cost(
        sample, chain_content_key(sample.assembly)
    )
    assert cached == cost
    # Every depth consumer shares the one law.
    job = ClusterJob(job_id=0, sample=sample, priority=1,
                     arrival_seconds=0.0)
    assert job.msa_depth == depth


@settings(max_examples=150, deadline=None)
@given(spec=chain_specs, platform=platforms, threads=st.integers(1, 64))
def test_chain_scan_seconds_equals_the_cluster_formula(
    spec, platform, threads
):
    chain = _chain(0, spec)
    assert chain_scan_seconds(platform, chain, threads) == \
        reference_chain_scan_seconds(platform, chain, threads)
    assert chain_store_payload(chain)["msa_depth"] == \
        min(254, 32 + len(chain.sequence or "") // 6)


@given(residues=st.integers(0, 10 ** 6))
def test_depth_law(residues):
    assert msa_depth(residues) == min(254, 32 + residues // 6)


@st.composite
def interruptions(draw):
    """``(resumed, elapsed, planned)``: elapsed is zero, strictly
    inside the scan, exactly the plan, or a multiple of it."""
    resumed = draw(st.integers(0, SCAN_SHARDS - 1))
    planned = draw(st.floats(
        min_value=1e-6, max_value=1e7, allow_nan=False,
        allow_infinity=False,
    ))
    elapsed = draw(st.one_of(
        st.just(0.0),
        st.floats(min_value=0.0, max_value=1.0, exclude_min=True,
                  exclude_max=True).map(lambda f: f * planned),
        st.just(planned),
        st.integers(2, 50).map(lambda k: k * planned),
    ))
    return resumed, elapsed, planned


@settings(max_examples=500, deadline=None)
@given(case=interruptions())
def test_finished_scan_shards_equals_both_abort_paths(case):
    resumed, elapsed, planned = case
    got = finished_scan_shards(resumed, elapsed, planned)
    assert got == reference_gateway_completed(resumed, elapsed, planned)
    assert got == reference_cluster_done(resumed, elapsed, planned)


def test_finished_scan_shards_boundary_grid():
    """Exhaustive over resumed and a fixed grid of elapsed/planned
    ratios, including the shard boundaries a rounding slip would
    cross."""
    for resumed in range(SCAN_SHARDS):
        for planned in (1.0, 3.0, 600.0, 1234.5):
            for step in range(0, 4 * SCAN_SHARDS * 8 + 1):
                elapsed = planned * step / (SCAN_SHARDS * 8)
                got = finished_scan_shards(resumed, elapsed, planned)
                assert got == reference_gateway_completed(
                    resumed, elapsed, planned
                )
                assert got == reference_cluster_done(
                    resumed, elapsed, planned
                )
