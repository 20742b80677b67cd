"""Concurrent AF3 serving: queueing, dynamic batching, caching, retries.

This package turns the single-stream :class:`~repro.core.server.
InferenceServer` into a simulated production gateway — N warm GPU
workers behind a dynamic batcher, a decoupled MSA worker pool with a
content-keyed result cache, and admission/timeout/retry policies —
and reports the serving metrics (latency percentiles, utilisation,
batch fill, cache hit rate) that the paper's Section VI proposals are
ultimately judged by.

Quickstart::

    from repro import SERVER, builtin_samples
    from repro.serving import (
        PoissonArrivals, ServingGateway, build_request_stream,
    )

    stream = build_request_stream(
        list(builtin_samples().values()), n=200,
        arrivals=PoissonArrivals(rate_rps=0.02, seed=42),
    )
    report = ServingGateway(SERVER).run(stream)
    print(report.render())
"""

from .batching import DynamicBatcher
from .cache import (
    CachedMsa,
    MsaResultCache,
    chain_content_key,
    chain_feature_key,
    chain_store_payload,
)
from .gateway import (
    GatewayConfig,
    ServingGateway,
    sequential_warm_baseline,
    serving_trace,
)
from .metrics import LatencyStats, ServingReport, build_report, percentile
from .scenarios import (
    ppi_chain_library,
    ppi_pair_samples,
    ppi_screen_stream,
)
from .queueing import (
    ArrivalProcess,
    BoundedFifo,
    PoissonArrivals,
    RequestState,
    ServingRequest,
    TraceArrivals,
    build_request_stream,
)

__all__ = [
    "ArrivalProcess",
    "BoundedFifo",
    "CachedMsa",
    "DynamicBatcher",
    "GatewayConfig",
    "LatencyStats",
    "MsaResultCache",
    "PoissonArrivals",
    "RequestState",
    "ServingGateway",
    "ServingReport",
    "ServingRequest",
    "TraceArrivals",
    "build_report",
    "build_request_stream",
    "chain_content_key",
    "chain_feature_key",
    "chain_store_payload",
    "percentile",
    "ppi_chain_library",
    "ppi_pair_samples",
    "ppi_screen_stream",
    "sequential_warm_baseline",
    "serving_trace",
]
