"""Operation pipelines: KeySwitch and primitive-operation cost traces.

This module turns a :class:`~repro.ckks.params.ParameterSet` plus a
:class:`PipelineConfig` (which algorithm/mapping choices are enabled) into
:class:`~repro.gpu.trace.ExecutionTrace` objects for KeySwitch and for every
primitive CKKS operation.  Neo and the baselines differ *only* in their
config -- exactly the paper's ablation axis (Fig. 14).

Conventions:
* Ciphertexts live in NTT (evaluation) form between operations, as in all
  GPU CKKS libraries; KeySwitch therefore pays the surrounding domain
  conversions, which is why NTT dominates it.
* All costs are for one *batch* of ``batch`` ciphertexts (the paper reports
  per-batch averages, Section 6).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from ..ckks.params import ParameterSet
from ..gpu.kernels import KernelCost, elementwise_cost
from ..gpu.trace import ExecutionTrace
from ..telemetry.registry import global_registry
from .bconv_matmul import bconv_cost
from .ip_matmul import ip_cost
from .mapping import choose_ip_component, ip_gemm_shape
from .radix16_ntt import ntt_cost
from .trace_cache import GLOBAL_TRACE_CACHE, TraceCache, TraceKey


#: Cached ``(family, child)`` counter handles per op name.  The family is
#: re-validated against the registry on every event (``registry.get``), so
#: a ``reset()`` -- which drops families -- invalidates stale handles and
#: the next event re-creates them; the common case is one dict lookup +
#: ``inc()`` instead of the full get-or-create path per trace request.
_OP_COUNTER_HANDLES: dict = {}

_OP_COUNTER_NAME = "core_operation_traces_total"


def _count_operation_trace(name: str) -> None:
    """Per-op trace-request counter (hot path: cached child handle)."""
    registry = global_registry()
    cached = _OP_COUNTER_HANDLES.get(name)
    if cached is not None and registry.get(_OP_COUNTER_NAME) is cached[0]:
        cached[1].inc()
        return
    family = registry.counter(
        _OP_COUNTER_NAME,
        "Operation-trace requests through the pipeline, by operation",
        labelnames=("op",),
    )
    child = family.labels(op=name)
    _OP_COUNTER_HANDLES[name] = (family, child)
    child.inc()


@dataclass(frozen=True)
class PipelineConfig:
    """Algorithm and mapping switches (one per paper optimisation step)."""

    #: Key-switching method: "hybrid" or "klss".
    keyswitch: str = "klss"
    #: BConv kernel style: "elementwise" (Alg. 1) or "gemm" (Alg. 2).
    bconv_style: str = "gemm"
    #: IP kernel style: "elementwise" (Alg. 3) or "gemm" (Alg. 4).
    ip_style: str = "gemm"
    #: NTT decomposition: "butterfly", "four_step" or "radix16".
    ntt_style: str = "radix16"
    #: NTT GEMM execution unit: "cuda", "tcu_int8" or "tcu_fp64".
    ntt_component: str = "tcu_fp64"
    #: BConv GEMM execution unit.
    bconv_component: str = "tcu_fp64"
    #: IP GEMM unit: "auto" applies the 80% valid-proportion rule.
    ip_component: str = "auto"
    #: Hybrid external product: accumulate in NTT domain before the inverse
    #: transform (2*(l+alpha) INTTs, modern libraries) instead of the
    #: per-digit accounting of Table 2 (2*beta*(l+alpha) INTTs).
    hybrid_accumulate_ntt: bool = False
    #: Kernel fusion of split/GEMM/merge stages (Section 4.6).
    fused: bool = True
    #: CUDA streams for TCU/CUDA-core overlap (Section 4.6).
    streams: int = 8
    #: Ciphertexts per BConv/IP kernel tile (``None`` = whole batch).  Only
    #: the hierarchical memory model reacts to it: small tiles keep the
    #: element-wise working sets L2-resident but re-stream the evaluation
    #: key once per tile.  The autotuner searches this axis.
    batch_tile: Optional[int] = None
    #: Polynomials chunked through all NTT stages per launch group
    #: (``None`` = whole batch per stage).  Under the hierarchical model a
    #: chunk that fits L2 keeps the inter-stage intermediates out of DRAM
    #: at the price of extra launches.  The autotuner searches this axis.
    ntt_tile: Optional[int] = None

    def with_overrides(self, **kwargs) -> "PipelineConfig":
        return replace(self, **kwargs)


#: Neo's full configuration (all four optimisation steps on).
NEO_CONFIG = PipelineConfig()

#: TensorFHE: Hybrid KS, element-wise BConv/IP (the poor-reuse kernels of
#: Section 3.3), four-step NTT on the INT8 tensor cores, single stream.
TENSORFHE_CONFIG = PipelineConfig(
    keyswitch="hybrid",
    bconv_style="elementwise",
    ip_style="elementwise",
    ntt_style="four_step",
    ntt_component="tcu_int8",
    bconv_component="cuda",
    ip_component="cuda",
    fused=True,
    streams=1,
)

#: HEonGPU: a modern CUDA-core-only library -- Hybrid KS, classic butterfly
#: NTT, well-tiled (read-once) BConv/IP kernels, but no tensor cores.
HEONGPU_CONFIG = PipelineConfig(
    keyswitch="hybrid",
    bconv_style="gemm",
    ip_style="gemm",
    ntt_style="butterfly",
    ntt_component="cuda",
    bconv_component="cuda",
    ip_component="cuda",
    hybrid_accumulate_ntt=True,
    fused=True,
    streams=4,
)


class OperationPipeline:
    """Builds cost traces for KeySwitch and the six primitive operations."""

    def __init__(
        self,
        params: ParameterSet,
        config: PipelineConfig = NEO_CONFIG,
        batch: Optional[int] = None,
        cache: Optional[TraceCache] = None,
    ):
        if config.keyswitch == "klss" and params.klss is None:
            raise ValueError(
                f"config requests KLSS but set {params.name} has no KLSS parameters"
            )
        self.params = params
        self.config = config
        self.batch = batch if batch is not None else (params.batch_size or 1)
        #: Trace cache consulted by :meth:`operation_trace`.  Defaults to the
        #: process-wide shared cache; pass ``TraceCache(maxsize=0)`` to force
        #: uncached construction.
        self.cache = cache if cache is not None else GLOBAL_TRACE_CACHE

    # -- small helpers -------------------------------------------------------------

    @property
    def degree(self) -> int:
        return self.params.degree

    @property
    def wordsize(self) -> int:
        return self.params.wordsize

    def _ntt(self, limbs: int, inverse: bool = False, wordsize: Optional[int] = None) -> KernelCost:
        return ntt_cost(
            self.degree,
            batch_limbs=self.batch * limbs,
            wordsize=self.wordsize if wordsize is None else wordsize,
            style=self.config.ntt_style,
            component=self.config.ntt_component,
            inverse=inverse,
            tile_polys=self.config.ntt_tile,
        )

    def _bconv(self, alpha_in: int, alpha_out: int, wordsize: Optional[int] = None) -> KernelCost:
        return bconv_cost(
            alpha_in,
            alpha_out,
            self.batch,
            self.degree,
            self.wordsize if wordsize is None else wordsize,
            style=self.config.bconv_style,
            component=self.config.bconv_component,
            fused=self.config.fused,
            batch_tile=self.config.batch_tile,
        )

    def _elementwise(self, name: str, limbs: int, flops: float = 8.0) -> KernelCost:
        return elementwise_cost(
            name, limbs * self.batch * self.degree, self.wordsize,
            flops_per_element=flops,
        )

    # -- KeySwitch ------------------------------------------------------------------

    def keyswitch_trace(self, level: int) -> ExecutionTrace:
        """The full KeySwitch of one (batched) polynomial at `level`."""
        if self.config.keyswitch == "klss":
            return self._keyswitch_klss(level)
        return self._keyswitch_hybrid(level)

    def _keyswitch_hybrid(self, level: int) -> ExecutionTrace:
        p = self.params
        alpha = p.alpha
        beta = p.beta(level)
        extended = level + 1 + alpha  # limbs of the PQ basis
        trace = ExecutionTrace()
        # Input leaves evaluation form for digit decomposition.
        trace.add(self._ntt(level + 1, inverse=True))
        # Mod Up: one BConv per digit into the complement of its group.
        for j in range(beta):
            start = j * alpha
            own = min(alpha, level + 1 - start)
            trace.add(self._bconv(own, extended - own))
        # Forward NTT of the raised digits.
        trace.add(self._ntt(beta * extended))
        # Inner Product: the Hybrid external product is an IP with
        # beta~ = 2 (the two output components); its K dimension (beta) is
        # too small for a TCU GEMM, so the GEMM form runs on CUDA cores.
        trace.add(
            ip_cost(
                beta,
                2,
                extended,
                self.batch,
                self.degree,
                self.wordsize,
                style=self.config.ip_style,
                component="cuda",
                fused=self.config.fused,
                pair_factor=1,
                batch_tile=self.config.batch_tile,
            )
        )
        # INTT: Table 2 counts 2*beta*(l+alpha) inverse transforms for the
        # Hybrid external product (per-digit accumulation, as in the KLSS
        # paper's accounting); libraries that accumulate in the NTT domain
        # only pay 2*(l+alpha).
        intt_digits = 1 if self.config.hybrid_accumulate_ntt else beta
        trace.add(self._ntt(2 * intt_digits * extended, inverse=True))
        # Mod Down: BConv the special limbs onto the Q limbs, then fix up.
        for _ in range(2):
            trace.add(self._bconv(alpha, level + 1))
        trace.add(self._elementwise("moddown", 2 * (level + 1)))
        # Back to evaluation form.
        trace.add(self._ntt(2 * (level + 1)))
        return trace

    def _keyswitch_klss(self, level: int) -> ExecutionTrace:
        p = self.params
        alpha = p.alpha
        alpha_prime, beta, beta_tilde = p.klss_dims(level)
        wst = p.klss.wordsize_t
        extended = level + 1 + alpha
        trace = ExecutionTrace()
        trace.add(self._ntt(level + 1, inverse=True))
        # Mod Up into R_T: one alpha -> alpha' BConv per digit.
        for j in range(beta):
            start = j * alpha
            own = min(alpha, level + 1 - start)
            trace.add(self._bconv(own, alpha_prime, wordsize=wst))
        # NTT over R_T.
        trace.add(self._ntt(beta * alpha_prime, wordsize=wst))
        # IP as GEMM (or CUDA cores when the valid proportion is low).
        component = self.config.ip_component
        if component == "auto":
            shape = ip_gemm_shape(beta, beta_tilde, self.batch, self.degree)
            component = choose_ip_component(shape)
        trace.add(
            ip_cost(
                beta,
                beta_tilde,
                alpha_prime,
                self.batch,
                self.degree,
                wst,
                style=self.config.ip_style,
                component=component,
                fused=self.config.fused,
                batch_tile=self.config.batch_tile,
            )
        )
        # INTT of the beta~ accumulated pairs over R_T.
        trace.add(self._ntt(2 * beta_tilde * alpha_prime, inverse=True, wordsize=wst))
        # Recover Limbs: Table 2 counts 2*alpha'*(l+alpha) work -- one fused
        # conversion per component with K = alpha' (the gadget recombination
        # folds into the conversion matrix and the beta~ groups stream
        # through the same kernel).
        for _ in range(2):
            trace.add(self._bconv(alpha_prime, extended, wordsize=wst))
        trace.add(self._elementwise("recover", 2 * extended))
        # Mod Down by P.
        for _ in range(2):
            trace.add(self._bconv(alpha, level + 1))
        trace.add(self._elementwise("moddown", 2 * (level + 1)))
        trace.add(self._ntt(2 * (level + 1)))
        return trace

    # -- primitive operations -----------------------------------------------------------

    def hmult_trace(self, level: int) -> ExecutionTrace:
        """HMULT: tensor product + KeySwitch(d2) + combination."""
        limbs = level + 1
        trace = ExecutionTrace()
        trace.add(self._elementwise("modmul", 4 * limbs))  # d0, d1 (x2), d2
        trace.add(self._elementwise("modadd", 1 * limbs, flops=1.0))
        trace = trace.merged(self.keyswitch_trace(level))
        trace.add(self._elementwise("modadd", 2 * limbs, flops=1.0))
        return trace

    def hrotate_trace(self, level: int) -> ExecutionTrace:
        """HROTATE: AUTO permutation + KeySwitch + combination."""
        limbs = level + 1
        trace = ExecutionTrace()
        trace.add(self._elementwise("auto", 2 * limbs, flops=1.0))
        trace = trace.merged(self.keyswitch_trace(level))
        trace.add(self._elementwise("modadd", limbs, flops=1.0))
        return trace

    def pmult_trace(self, level: int) -> ExecutionTrace:
        return ExecutionTrace().add(self._elementwise("modmul", 2 * (level + 1)))

    def hadd_trace(self, level: int) -> ExecutionTrace:
        return ExecutionTrace().add(
            self._elementwise("modadd", 2 * (level + 1), flops=1.0)
        )

    def padd_trace(self, level: int) -> ExecutionTrace:
        return ExecutionTrace().add(
            self._elementwise("modadd", level + 1, flops=1.0)
        )

    def rescale_trace(self, level: int) -> ExecutionTrace:
        """Rescale: INTT the last limb, broadcast-correct, return to NTT."""
        trace = ExecutionTrace()
        trace.add(self._ntt(2, inverse=True))  # last limb of both components
        trace.add(self._elementwise("rescale", 2 * level))
        trace.add(self._ntt(2))
        return trace

    def double_rescale_trace(self, level: int) -> ExecutionTrace:
        """DS: same dataflow over the last two limbs, dropping two levels."""
        trace = ExecutionTrace()
        trace.add(self._ntt(4, inverse=True))
        trace.add(self._elementwise("rescale", 2 * (level - 1) * 2))
        trace.add(self._ntt(4))
        return trace

    #: operation name -> trace-builder method name.
    OPERATION_BUILDERS = {
        "hmult": "hmult_trace",
        "hrotate": "hrotate_trace",
        "pmult": "pmult_trace",
        "hadd": "hadd_trace",
        "padd": "padd_trace",
        "rescale": "rescale_trace",
        "double_rescale": "double_rescale_trace",
        "keyswitch": "keyswitch_trace",
    }

    def trace_key(self, name: str, level: int) -> TraceKey:
        """The value-based cache key of one operation trace."""
        return (self.params, self.config, self.batch, name.lower(), level)

    def build_operation_trace(self, name: str, level: int) -> ExecutionTrace:
        """Construct an operation trace from scratch (never touches the cache).

        The builder is resolved *before* it runs, so a ``KeyError`` raised
        inside a trace builder propagates as-is instead of being misreported
        as an unknown operation.
        """
        try:
            builder = getattr(self, self.OPERATION_BUILDERS[name.lower()])
        except KeyError:
            raise ValueError(f"unknown operation {name!r}") from None
        return builder(level)

    def operation_trace(self, name: str, level: int) -> ExecutionTrace:
        """Dispatch by operation name (HMult, HRotate, PMult, ...), cached.

        Returns a frozen (immutable, shared) trace; callers must not mutate
        it -- derive with ``merged``/``scaled`` instead.
        """
        # Validate the name eagerly so unknown operations raise even on what
        # would otherwise be a cache hit.
        if name.lower() not in self.OPERATION_BUILDERS:
            raise ValueError(f"unknown operation {name!r}")
        if global_registry().enabled:
            _count_operation_trace(name.lower())
        return self.cache.get_or_build(
            self.trace_key(name, level),
            lambda: self.build_operation_trace(name, level),
        )

    def scaled_operation_trace(
        self, name: str, level: int, count: float
    ) -> ExecutionTrace:
        """:meth:`operation_trace` repeated `count` times, cached as a whole.

        Schedule assembly replays the same (op, level, count) cells on every
        timing query; caching the *scaled* trace under its own key removes
        the per-event ``scaled`` rebuild from the warm path.  The entry
        lives in the same :class:`TraceCache`, so ``maxsize=0`` (the
        benchmarks' uncached mode) disables it together with the base
        entries.
        """
        if count == 1:
            return self.operation_trace(name, level)
        if name.lower() not in self.OPERATION_BUILDERS:
            raise ValueError(f"unknown operation {name!r}")
        if global_registry().enabled:
            _count_operation_trace(name.lower())
        return self.cache.get_or_build(
            self.trace_key(name, level) + ("scaled", count),
            lambda: self.build_operation_trace(name, level).scaled(count),
        )
