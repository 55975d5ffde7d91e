"""Tests for the discrete-event multi-stream scheduler."""

import json

import pytest

from repro.core import HEONGPU_CONFIG, NEO_CONFIG, TENSORFHE_CONFIG, NeoContext
from repro.core.streams import ScheduledKernel, StreamScheduler
from repro.core.trace_cache import TraceCache
from repro.gpu.device import A100, L4
from repro.gpu.kernels import DeviceCapabilityError, KernelCost
from repro.gpu.trace import ExecutionTrace, price


@pytest.fixture(scope="module")
def keyswitch_trace():
    return NeoContext("C", config=NEO_CONFIG).operation_trace("keyswitch", 35)


def _mixed_trace(n=12):
    trace = ExecutionTrace()
    for i in range(n):
        if i % 2:
            trace.add(KernelCost(f"tcu{i}", tcu_fp64_flops=1e10))
        else:
            trace.add(KernelCost(f"cuda{i}", cuda_flops=1e10))
    return trace


class TestScheduler:
    def test_single_stream_is_serial(self):
        trace = _mixed_trace()
        scheduler = StreamScheduler(A100, streams=1)
        assert scheduler.makespan_s(trace) == pytest.approx(
            trace.serial_time_s(A100), rel=0.05
        )

    def test_streams_overlap_mixed_work(self):
        trace = _mixed_trace()
        serial = StreamScheduler(A100, streams=1).makespan_s(trace)
        overlapped = StreamScheduler(A100, streams=4).makespan_s(trace)
        assert overlapped < 0.8 * serial

    def test_homogeneous_work_does_not_overlap(self):
        """All-CUDA kernels serialise on the CUDA resource regardless of
        stream count."""
        trace = ExecutionTrace()
        for i in range(8):
            trace.add(KernelCost(f"k{i}", cuda_flops=1e10))
        one = StreamScheduler(A100, streams=1).makespan_s(trace)
        many = StreamScheduler(A100, streams=8).makespan_s(trace)
        assert many == pytest.approx(one, rel=0.05)

    def test_simulation_between_bounds(self, keyswitch_trace):
        """Simulated makespan in [analytic lower bound, serial time]."""
        for streams in (2, 4, 8):
            simulated = StreamScheduler(A100, streams).makespan_s(keyswitch_trace)
            serial = keyswitch_trace.serial_time_s(A100)
            analytic = keyswitch_trace.overlapped_time_s(A100, streams)
            assert simulated <= serial * 1.001
            assert simulated >= 0.8 * analytic

    def test_device_without_tensor_cores_raises_like_pricing(self):
        """Regression: the scheduler divided by the L4's zero FP64 tensor
        core rate (ZeroDivisionError) where pricing raises ValueError."""
        trace = _mixed_trace()
        with pytest.raises(DeviceCapabilityError, match="no FP64 tensor cores"):
            price(trace, L4)
        with pytest.raises(DeviceCapabilityError, match="no FP64 tensor cores"):
            StreamScheduler(L4).run(trace)

    def test_invalid_stream_count(self):
        with pytest.raises(ValueError):
            StreamScheduler(A100, streams=0)


class TestSchedulerInvariant:
    """analytic lower bound <= simulated makespan <= serial time.

    The exact sandwich holds when every kernel exercises one resource and
    launch overhead is off (the simulator books each kernel against its
    dominant resource only, and spreads launch overhead differently from
    the analytic model); real mixed traces keep the serial upper bound
    exactly and the analytic bound to within the documented tolerance.
    """

    #: Launch-free device: the analytic and simulated overhead accounting
    #: coincide, making the lower bound exact.
    DEVICE = A100.with_overrides(kernel_launch_us=0.0)

    def _single_resource_trace(self, n=24):
        trace = ExecutionTrace()
        for i in range(n):
            kind = i % 3
            if kind == 0:
                trace.add(KernelCost(f"c{i}", cuda_flops=(1 + i) * 1e9))
            elif kind == 1:
                trace.add(KernelCost(f"t{i}", tcu_fp64_flops=(1 + i) * 1e9))
            else:
                trace.add(KernelCost(f"m{i}", bytes_read=(1 + i) * 1e7))
        return trace

    @pytest.mark.parametrize("streams", (1, 2, 4, 8, 16))
    def test_exact_sandwich_on_single_resource_kernels(self, streams):
        trace = self._single_resource_trace()
        serial = trace.serial_time_s(self.DEVICE)
        analytic = trace.overlapped_time_s(self.DEVICE, streams)
        simulated = StreamScheduler(self.DEVICE, streams).makespan_s(trace)
        assert analytic <= simulated * (1 + 1e-9)
        assert simulated <= serial * (1 + 1e-9)

    @pytest.mark.parametrize(
        "config,set_name",
        [
            (NEO_CONFIG, "C"),
            (TENSORFHE_CONFIG.with_overrides(keyswitch="hybrid"), "B"),
            (HEONGPU_CONFIG, "E"),
        ],
    )
    @pytest.mark.parametrize("op", ("keyswitch", "hmult", "hrotate"))
    def test_real_traces_respect_bounds(self, config, set_name, op):
        ctx = NeoContext(set_name, config=config, trace_cache=TraceCache())
        trace = ctx.operation_trace(op, 35)
        for streams in (2, 4, 8):
            serial = trace.serial_time_s(ctx.device)
            analytic = trace.overlapped_time_s(ctx.device, streams)
            simulated = StreamScheduler(ctx.device, streams).makespan_s(trace)
            assert simulated <= serial * (1 + 1e-9)
            # Dominant-resource approximation: allow the documented slack.
            assert simulated >= 0.8 * analytic


class TestScheduleResult:
    def test_utilisation_bounded(self, keyswitch_trace):
        result = StreamScheduler(A100, 8).run(keyswitch_trace)
        for resource, frac in result.utilisation().items():
            assert 0.0 <= frac <= 1.0, resource

    def test_busy_resource_identified(self):
        trace = ExecutionTrace().add(KernelCost("t", tcu_fp64_flops=1e11))
        result = StreamScheduler(A100, 2).run(trace)
        assert result.timeline[0].resource == "tcu"
        assert result.resource_busy_s["tcu"] > 0

    def test_timeline_is_consistent(self, keyswitch_trace):
        result = StreamScheduler(A100, 4).run(keyswitch_trace)
        # No overlapping intervals on the same stream or resource.
        by_stream = {}
        for k in result.timeline:
            by_stream.setdefault(k.stream, []).append(k)
        for kernels in by_stream.values():
            kernels.sort(key=lambda k: k.start_s)
            for a, b in zip(kernels, kernels[1:]):
                assert b.start_s >= a.end_s - 1e-12

    def test_chrome_trace_export(self, keyswitch_trace):
        result = StreamScheduler(A100, 4).run(keyswitch_trace)
        payload = json.loads(result.to_chrome_trace())
        assert len(payload["traceEvents"]) == len(keyswitch_trace)
        event = payload["traceEvents"][0]
        assert {"name", "ph", "ts", "dur", "tid"} <= set(event)

    def test_empty_trace(self):
        result = StreamScheduler(A100, 4).run(ExecutionTrace())
        assert result.makespan_s == 0.0
        assert result.utilisation()["cuda"] == 0.0

    def test_scheduled_kernel_duration(self):
        k = ScheduledKernel("x", 0, "cuda", 1.0, 3.5)
        assert k.duration_s == 2.5
