"""Neo core: kernel cost model, mapping policy, pipelines, NeoContext."""

from .ablation import ABLATION_STEPS
from .autotuner import (
    BUDGETS,
    MODEL_VERSION,
    TunedConfig,
    TuningReport,
    TuningStore,
    default_tuning_store,
    tune_app,
)
from .bconv_matmul import bconv_cost
from .ip_matmul import ip_cost
from .mapping import (
    CUDA_ONLY_KERNELS,
    IP_TCU_THRESHOLD,
    GemmShape,
    bconv_gemm_shape,
    choose_ip_component,
    ip_gemm_shape,
    neo_component_map,
    ntt_gemm_shape,
)
from .neo_context import NeoContext
from .pipeline import (
    HEONGPU_CONFIG,
    NEO_CONFIG,
    TENSORFHE_CONFIG,
    OperationPipeline,
    PipelineConfig,
)
from .profiling import (
    ApplicationProfile,
    OpProfile,
    chrome_trace_json,
    profile_application,
    profile_schedule,
)
from .radix16_ntt import ntt_cost, ntt_gemm_macs, radix16_factors
from .streams import ScheduleResult, StreamScheduler
from .trace_cache import GLOBAL_TRACE_CACHE, CacheStats, TraceCache

__all__ = [
    "ABLATION_STEPS",
    "ApplicationProfile",
    "BUDGETS",
    "MODEL_VERSION",
    "TunedConfig",
    "TuningReport",
    "TuningStore",
    "CUDA_ONLY_KERNELS",
    "CacheStats",
    "GLOBAL_TRACE_CACHE",
    "GemmShape",
    "HEONGPU_CONFIG",
    "IP_TCU_THRESHOLD",
    "NEO_CONFIG",
    "NeoContext",
    "OpProfile",
    "OperationPipeline",
    "PipelineConfig",
    "ScheduleResult",
    "StreamScheduler",
    "TENSORFHE_CONFIG",
    "TraceCache",
    "default_tuning_store",
    "tune_app",
    "bconv_cost",
    "bconv_gemm_shape",
    "choose_ip_component",
    "chrome_trace_json",
    "ip_cost",
    "ip_gemm_shape",
    "neo_component_map",
    "ntt_cost",
    "ntt_gemm_macs",
    "ntt_gemm_shape",
    "profile_application",
    "profile_schedule",
    "radix16_factors",
]
