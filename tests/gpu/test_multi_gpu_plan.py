"""Plan-aware interconnect model: exchange accounting, corners, caching."""

import pytest

from repro.core import NEO_CONFIG, NeoContext
from repro.gpu.device import A100
from repro.gpu.kernels import KernelCost
from repro.gpu.multi_gpu import (
    EXCHANGE_KERNELS,
    NVLINK3,
    Interconnect,
    MultiGpuModel,
    single_gpu_time_s,
)
from repro.gpu.trace import ExecutionTrace
from repro.telemetry.stats import all_cache_sizes, clear_caches


@pytest.fixture(scope="module")
def hmult_trace():
    return NeoContext("C", config=NEO_CONFIG).operation_trace("hmult", 35)


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_caches()
    yield
    clear_caches()


def _resident_times():
    return all_cache_sizes()["single_gpu_times"]


class TestPlanAwareExchange:
    def test_only_exchange_stages_move_bytes(self, hmult_trace):
        table = MultiGpuModel(4).exchange_bytes_by_kernel(hmult_trace)
        movers = {name for name, size in table.items() if size > 0}
        assert movers, "an HMULT trace must exchange through NTT/BConv"
        assert movers <= EXCHANGE_KERNELS
        locals_ = set(table) - EXCHANGE_KERNELS
        assert locals_, "an HMULT trace has limb-local stages too"
        assert all(table[name] == 0.0 for name in locals_)

    def test_exchange_bytes_scale_with_share(self, hmult_trace):
        two = MultiGpuModel(2).exchange_bytes(hmult_trace)
        four = MultiGpuModel(4).exchange_bytes(hmult_trace)
        # (G-1)/G grows with G: 1/2 -> 3/4 of the working set.
        assert four == pytest.approx(two * (3 / 4) / (1 / 2))

    def test_overlap_validated(self):
        with pytest.raises(ValueError, match="overlap"):
            MultiGpuModel(2, overlap=1.5)

    def test_full_overlap_hides_shorter_side(self, hmult_trace):
        full = MultiGpuModel(4, overlap=1.0)
        none = MultiGpuModel(4, overlap=0.0)
        shard = hmult_trace.scaled(1 / 4)
        compute = shard.overlapped_time_s(A100, 8)
        comm = full.comm_time_s(hmult_trace)
        assert full.time_s(hmult_trace) == pytest.approx(max(compute, comm))
        assert none.time_s(hmult_trace) == pytest.approx(compute + comm)


class TestCorners:
    def test_single_gpu_no_exchange(self, hmult_trace):
        model = MultiGpuModel(1)
        assert model.exchange_bytes(hmult_trace) == 0.0
        assert model.comm_time_s(hmult_trace) == 0.0
        assert model.time_s(hmult_trace) == pytest.approx(
            hmult_trace.overlapped_time_s(A100, 8)
        )
        assert model.speedup(hmult_trace) == pytest.approx(1.0)
        assert model.scaling_efficiency(hmult_trace) == pytest.approx(1.0)

    def test_latency_only_corner(self):
        """A byte-free exchange kernel still pays one sync per launch."""
        trace = ExecutionTrace(
            [KernelCost(name="ntt", cuda_flops=1e9, launches=6)]
        ).frozen()
        model = MultiGpuModel(4)
        assert model.exchange_bytes(trace) == 0.0
        assert model.comm_time_s(trace) == pytest.approx(
            6 * NVLINK3.latency_us * 1e-6
        )

    def test_bandwidth_bound_corner(self):
        """With huge exchanged bytes and no overlap, the link is the clock."""
        slow = Interconnect("trickle", bandwidth_gbs=1.0, latency_us=0.0)
        trace = ExecutionTrace(
            [KernelCost(name="bconv", cuda_flops=1.0, bytes_written=4e12,
                        launches=0)]
        ).frozen()
        gpus = 4
        model = MultiGpuModel(gpus, interconnect=slow, overlap=1.0)
        expected = 4e12 * (gpus - 1) / gpus / gpus / slow.bytes_per_s
        assert model.comm_time_s(trace) == pytest.approx(expected)
        assert model.time_s(trace) == pytest.approx(expected, rel=1e-6)

    def test_limb_local_trace_is_free(self):
        """A purely element-wise trace never touches the interconnect."""
        trace = ExecutionTrace(
            [KernelCost(name="modmul", cuda_flops=1e9, bytes_read=1e9,
                        bytes_written=1e9)]
        ).frozen()
        model = MultiGpuModel(8)
        assert model.exchange_bytes(trace) == 0.0
        assert model.comm_time_s(trace) == 0.0


class TestSingleTimeCache:
    def test_speedup_uses_cached_reference(self, hmult_trace):
        model = MultiGpuModel(4)
        assert _resident_times() == 0
        first = model.speedup(hmult_trace)
        assert _resident_times() == 1
        # Repeats (and other fleet sizes on the same trace) reuse the entry.
        assert model.speedup(hmult_trace) == first
        MultiGpuModel(8).scaling_efficiency(hmult_trace)
        assert _resident_times() == 1

    def test_cache_keys_on_streams(self, hmult_trace):
        single_gpu_time_s(hmult_trace, streams=8)
        single_gpu_time_s(hmult_trace, streams=4)
        assert _resident_times() == 2

    def test_cached_value_matches_direct(self, hmult_trace):
        cached = single_gpu_time_s(hmult_trace)
        assert cached == pytest.approx(hmult_trace.overlapped_time_s(A100, 8))

    def test_clear(self, hmult_trace):
        single_gpu_time_s(hmult_trace)
        assert _resident_times() == 1
        clear_caches()
        assert _resident_times() == 0
