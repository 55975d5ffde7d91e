"""Neo core: GEMM-form kernels, mapping policy, pipelines, NeoContext."""

from .ablation import ABLATION_STEPS, ablation_configs, ablation_labels
from .autotuner import (
    BUDGETS,
    MODEL_VERSION,
    TunedConfig,
    TuningReport,
    TuningResult,
    TuningStore,
    best_configuration,
    default_tuning_store,
    hybrid_vs_best_klss,
    tune_app,
    tune_keyswitch,
)
from .bconv_matmul import NeoBConv, bconv_cost, reference_bconv
from .ip_matmul import NeoInnerProduct, ip_cost, reference_inner_product
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
from .radix16_ntt import NeoNtt, ntt_cost, ntt_gemm_macs, radix16_factors
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
    "NeoBConv",
    "NeoContext",
    "NeoInnerProduct",
    "NeoNtt",
    "OpProfile",
    "OperationPipeline",
    "PipelineConfig",
    "ScheduleResult",
    "StreamScheduler",
    "TENSORFHE_CONFIG",
    "TraceCache",
    "TuningResult",
    "ablation_configs",
    "ablation_labels",
    "best_configuration",
    "default_tuning_store",
    "hybrid_vs_best_klss",
    "tune_app",
    "tune_keyswitch",
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
    "reference_bconv",
    "reference_inner_product",
]
