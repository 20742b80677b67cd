"""AFSysBench reproduction: AlphaFold3 workload characterization.

Reproduces "AlphaFold3 Workload Characterization: A Comprehensive
Analysis of Bottlenecks and Performance Scaling" (IISWC 2025) as a
pure-Python system: a functional mini-AF3 pipeline (profile-HMM MSA
search + numpy Pairformer/Diffusion network) traced through calibrated
hardware simulators of the paper's Server (Xeon + H100) and Desktop
(Ryzen + RTX 4080) platforms.

Quickstart::

    from repro import Af3Pipeline, SERVER, get_sample

    result = Af3Pipeline(SERVER).run(get_sample("2PV7"), threads=4)
    print(f"MSA {result.msa_seconds:.0f}s, "
          f"inference {result.inference_seconds:.0f}s")

Or regenerate any paper artifact::

    from repro import AfSysBench
    print(AfSysBench.small().table(6))
"""

from .core import (
    AF3_DEFAULT_THREADS,
    Af3Pipeline,
    AfSysBench,
    BenchmarkRunner,
    InferenceServer,
    MemoryEstimate,
    PipelineResult,
    ResultSet,
    RunRecord,
    estimate,
    optimal_thread_count,
)
from .hardware import (
    DESKTOP,
    DESKTOP_128G,
    GpuOutOfMemoryError,
    MemoryOutcome,
    OutOfMemoryError,
    PLATFORMS,
    Platform,
    SERVER,
    get_platform,
)
from .model import AlphaFold3Model, ModelConfig, Prediction
from .msa import MsaEngine, MsaEngineConfig
from .parallel import ExecutionPlan
from .sequences import (
    ALL_SAMPLES,
    Assembly,
    Chain,
    InputSample,
    MoleculeType,
    builtin_samples,
    get_sample,
    load_json,
    parse_json,
)
from .serving import (
    GatewayConfig,
    PoissonArrivals,
    ServingGateway,
    ServingReport,
    ServingRequest,
    TraceArrivals,
    build_request_stream,
    sequential_warm_baseline,
)
from .trace import AccessPattern, OpRecord, Resource, WorkloadTrace

__version__ = "1.0.0"

__all__ = [
    "AF3_DEFAULT_THREADS",
    "ALL_SAMPLES",
    "AccessPattern",
    "Af3Pipeline",
    "AfSysBench",
    "AlphaFold3Model",
    "Assembly",
    "BenchmarkRunner",
    "Chain",
    "DESKTOP",
    "DESKTOP_128G",
    "ExecutionPlan",
    "GpuOutOfMemoryError",
    "InferenceServer",
    "InputSample",
    "MemoryEstimate",
    "MemoryOutcome",
    "ModelConfig",
    "MoleculeType",
    "MsaEngine",
    "MsaEngineConfig",
    "OpRecord",
    "OutOfMemoryError",
    "PLATFORMS",
    "PipelineResult",
    "Platform",
    "PoissonArrivals",
    "Prediction",
    "Resource",
    "ResultSet",
    "RunRecord",
    "SERVER",
    "ServingGateway",
    "ServingReport",
    "ServingRequest",
    "GatewayConfig",
    "TraceArrivals",
    "WorkloadTrace",
    "build_request_stream",
    "sequential_warm_baseline",
    "builtin_samples",
    "estimate",
    "get_sample",
    "get_platform",
    "load_json",
    "optimal_thread_count",
    "parse_json",
    "__version__",
]
