"""AFSysBench core: pipeline, runner, results, rendering, facade."""

from .pipeline import (
    AF3_DEFAULT_THREADS,
    Af3Pipeline,
    PipelineResult,
    optimal_thread_count,
)
from .report import (
    render_bar_chart,
    render_pie,
    render_series,
    render_stacked_bars,
    render_table,
)
from .results import ResultSet, RunRecord, coefficient_of_variation
from .runner import BenchmarkRunner, DEFAULT_THREAD_SWEEP
from .suite import AfSysBench

__all__ = [
    "AF3_DEFAULT_THREADS",
    "Af3Pipeline",
    "AfSysBench",
    "BenchmarkRunner",
    "DEFAULT_THREAD_SWEEP",
    "PipelineResult",
    "ResultSet",
    "RunRecord",
    "coefficient_of_variation",
    "optimal_thread_count",
    "render_bar_chart",
    "render_pie",
    "render_series",
    "render_stacked_bars",
    "render_table",
]

from .estimator import (  # noqa: E402
    MemoryEstimate,
    PlatformVerdict,
    estimate,
    estimate_msa_peak_bytes,
)
from .server import (  # noqa: E402
    DEFAULT_BUCKETS,
    InferenceServer,
    RequestResult,
    bucket_for,
)

__all__ += [
    "DEFAULT_BUCKETS",
    "InferenceServer",
    "MemoryEstimate",
    "PlatformVerdict",
    "RequestResult",
    "bucket_for",
    "estimate",
    "estimate_msa_peak_bytes",
]

from .campaign import (  # noqa: E402
    ARTIFACT_ORDER,
    CampaignResult,
    combined_report,
    run_campaign,
)

__all__ += [
    "ARTIFACT_ORDER",
    "CampaignResult",
    "combined_report",
    "run_campaign",
]
