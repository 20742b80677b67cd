"""Request-level observability for the serving gateway.

The source paper is a *characterization* study — its contribution is
attributing wall time to phases and functions.  This package applies
the same discipline to the serving layer: instead of only end-of-run
aggregates, every request gets a deterministic, hierarchical span
timeline (ARRIVE -> queue waits -> MSA scan -> batch assembly -> GPU
inference attempt(s) -> retry/degraded fallback -> COMPLETE/SHED),
recorded from the gateway's simulated clock so seeded runs reproduce
byte-identical traces.

The pieces, bottom-up:

* :mod:`~repro.observability.spans` — the span model and recorder;
* :mod:`~repro.observability.instrument` — :class:`GatewayProbe`
  (no-op lifecycle hooks the gateway always calls) and
  :class:`SpanProbe` (the span-building implementation);
* :mod:`~repro.observability.export` — Chrome/Perfetto trace-event
  JSON (one track per worker) and one Prometheus text renderer driven
  by a declaration per report (serving, cluster, campaign);
* :mod:`~repro.observability.analysis` — span trees, critical paths,
  per-phase attribution reconciled against
  :func:`~repro.serving.gateway.serving_trace`, and the
  ``explain <request_id>`` rendering.

Quickstart::

    from repro.hardware.platform import SERVER
    from repro.observability import SpanProbe, chrome_trace_json, explain
    from repro.serving import (
        GatewayConfig, PoissonArrivals, ServingGateway,
        build_request_stream,
    )
    from repro.sequences.builtin import builtin_samples

    probe = SpanProbe()
    stream = build_request_stream(
        list(builtin_samples().values()), n=12,
        arrivals=PoissonArrivals(0.02, seed=7), seed=7,
    )
    ServingGateway(SERVER, probe=probe).run(stream)
    open("trace.json", "w").write(chrome_trace_json(probe.recorder))
    print(explain(probe.recorder, request_id=0))

Operator documentation lives in ``docs/observability.md``; every
exported metric field is defined in ``docs/metrics_reference.md``.
"""

from .analysis import (
    STAGE_NAMES,
    SpanTree,
    build_tree,
    build_trees,
    critical_path,
    explain,
    path_gap_seconds,
    phase_attribution,
    reconcile_with_trace,
)
from .export import (
    CAMPAIGN_METRICS,
    CLUSTER_METRICS,
    SERVING_METRICS,
    chrome_trace_json,
    prometheus_metrics,
    to_chrome_trace,
)
from .instrument import (
    NULL_CLUSTER_PROBE,
    NULL_PROBE,
    ClusterProbe,
    GatewayProbe,
    SpanProbe,
)
from .spans import REQUEST_TRACK, Span, SpanRecorder

__all__ = [
    "CAMPAIGN_METRICS",
    "CLUSTER_METRICS",
    "ClusterProbe",
    "GatewayProbe",
    "NULL_CLUSTER_PROBE",
    "NULL_PROBE",
    "REQUEST_TRACK",
    "SERVING_METRICS",
    "STAGE_NAMES",
    "Span",
    "SpanProbe",
    "SpanRecorder",
    "SpanTree",
    "build_tree",
    "build_trees",
    "chrome_trace_json",
    "critical_path",
    "explain",
    "path_gap_seconds",
    "phase_attribution",
    "prometheus_metrics",
    "reconcile_with_trace",
    "to_chrome_trace",
]
