"""Cache and memory-bandwidth contention toolkit.

Build antagonist workloads from a parameterized cache geometry, quantify
their interference deterministically in a trace-driven shared-cache plus
memory-controller simulator, and optionally measure the same co-runs
natively with pinned threads.
"""

from .geometry import (
    CacheGeometry,
    GeometryError,
    PRESETS,
    bank_of,
    conflict_stride,
    geometry_from_dict,
    geometry_to_dict,
    load_geometry,
    preset,
    preset_names,
    resolve_geometry,
    set_of,
    validate_geometry,
)
from .patterns import (
    BucketSort,
    PatternError,
    StreamKernel,
    StridedWalk,
    ThreadSpec,
    WorkloadSpec,
    footprint,
    gen_bucket_sort,
    gen_offchip_antagonist,
    gen_onchip_antagonist,
    gen_stream,
    relocate,
    validate_workloads,
    workload_from_dict,
    workload_to_dict,
    write_trace_csv,
)
from .simulator import (
    InterferenceRow,
    LruBankedCache,
    SimConfig,
    SimResult,
    SimulationError,
    WorkloadMetrics,
    interference_report,
    lru_reference,
    simulate,
)
from .native import (
    NativeError,
    NativeResult,
    NativeRow,
    ThreadResult,
    bytes_per_pass,
    co_run,
    native_interference_report,
    run_native,
)
from .experiment import (
    ConfigError,
    ExperimentConfig,
    NativeOptions,
    experiment_from_dict,
    experiment_to_dict,
    load_experiment,
)

__version__ = "0.1.0"
