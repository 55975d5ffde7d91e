"""The one pricing pass: every ``TracePrice`` field against a simple oracle.

The oracle below restates the per-event formulas the model has always used
(``compute_time_s``, ``memory_time_s``, ``effective_launches``, ``time_s``)
and folds them with ``functools.reduce(operator.add, ...)`` -- plain left
to right addition, which is what ``sum()`` did before CPython 3.12 made it
compensated.  The pass must match it bit for bit on every interpreter.
"""

import math
import operator
import struct
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from repro.gpu import (
    A100,
    A100_NO_TCU,
    L4,
    DeviceCapabilityError,
    ExecutionTrace,
    KernelCost,
    TrafficProfile,
    price,
)
from repro.gpu.memory_model import hier_memory_time_s

DEVICES = {"flat": A100, "hier": A100.hier()}
NAMES = ("ntt", "intt", "bconv", "ip", "modadd")


def _fold(values):
    return reduce(operator.add, values, 0.0)


def _event_terms(e, device):
    """The per-event formulas, written out the long way."""
    cuda = e.cuda_flops / device.cuda_fp64_flops if e.cuda_flops else 0.0
    fp64 = e.tcu_fp64_flops / device.tcu_fp64_flops if e.tcu_fp64_flops else 0.0
    int8 = e.tcu_int8_ops / device.tcu_int8_ops if e.tcu_int8_ops else 0.0
    compute = _fold((cuda, fp64, int8))
    compulsory = e.bytes_read + e.bytes_written
    if device.memory_model == "hier":
        memory = hier_memory_time_s(compulsory, e.traffic, device)
        launches = e.launches + (e.traffic.tile_launches if e.traffic else 0.0)
    else:
        memory = compulsory / device.memory_bytes_per_s
        launches = e.launches
    time = launches * device.kernel_launch_us * 1e-6 + max(compute, memory)
    return cuda, fp64, int8, memory, launches, time


def _oracle(events, device, streams):
    terms = [_event_terms(e, device) for e in events]
    cuda, fp64, int8, memory, launches, serial = (
        _fold(t[k] for t in terms) for k in range(6)
    )
    tcu = 0.0 + fp64 + int8
    launch = launches * device.kernel_launch_us * 1e-6 / max(streams, 1)
    peak = max(cuda, tcu, memory)
    bound, clamp = peak + launch, serial / max(streams, 1)
    if streams <= 1 or serial <= max(bound, clamp):
        overlapped, binding = serial, "serial"
    elif clamp > bound:
        overlapped, binding = clamp, "streams"
    else:
        overlapped = bound
        binding = ("cuda", "tcu", "memory")[[cuda, tcu, memory].index(peak)]
    names = list(dict.fromkeys(e.name for e in events))
    kernels = [
        (
            name,
            _fold(t[5] for e, t in zip(events, terms) if e.name == name),
            _fold(e.bytes_read + e.bytes_written for e in events if e.name == name),
        )
        for name in names
    ]
    return {
        "serial_s": serial,
        "overlapped_s": overlapped,
        "cuda_s": cuda,
        "tcu_s": tcu,
        "memory_s": memory,
        "launch_s": launch,
        "binding": binding,
        "kernels": kernels,
    }


def _bits(x):
    return struct.pack("<d", float(x))


def _assert_same(record, expected):
    for name in ("serial_s", "overlapped_s", "cuda_s", "tcu_s", "memory_s", "launch_s"):
        assert _bits(getattr(record, name)) == _bits(expected[name]), name
    assert record.binding == expected["binding"]
    assert [row.name for row in record.kernels] == [k[0] for k in expected["kernels"]]
    for row, (_, seconds, moved) in zip(record.kernels, expected["kernels"]):
        assert _bits(row.serial_s) == _bits(seconds)
        assert _bits(row.bytes) == _bits(moved)


magnitude = st.one_of(st.just(0.0), st.floats(min_value=1.0, max_value=1e13))
traffic = st.one_of(
    st.none(),
    st.builds(
        TrafficProfile,
        reuse_bytes=st.floats(min_value=0.0, max_value=1e10),
        working_set_bytes=st.floats(min_value=0.0, max_value=1e9),
        smem_tile_bytes=st.floats(min_value=0.0, max_value=1e6),
        tile_launches=st.floats(min_value=0.0, max_value=64.0),
    ),
)
kernel = st.builds(
    KernelCost,
    name=st.sampled_from(NAMES),
    cuda_flops=magnitude,
    tcu_fp64_flops=magnitude,
    tcu_int8_ops=magnitude,
    bytes_read=magnitude,
    bytes_written=magnitude,
    launches=st.one_of(
        st.integers(min_value=0, max_value=64),
        st.floats(min_value=0.0, max_value=64.0),
    ),
    traffic=traffic,
)


@settings(max_examples=200, deadline=None)
@given(
    events=st.lists(kernel, max_size=40),
    memory_model=st.sampled_from(sorted(DEVICES)),
    streams=st.sampled_from((1, 2, 8)),
)
def test_price_matches_the_oracle_bit_for_bit(events, memory_model, streams):
    device = DEVICES[memory_model]
    trace = ExecutionTrace(events)
    record = price(trace, device, streams)
    _assert_same(record, _oracle(events, device, streams))
    assert trace.overlapped_time_s(device, streams) == record.overlapped_s
    assert trace.serial_time_s(device) == record.serial_s
    assert trace.breakdown_s(device) == {r.name: r.serial_s for r in record.kernels}
    assert trace.bytes_by_kernel() == {r.name: r.bytes for r in record.kernels}


def test_every_binding_is_reachable():
    cuda = KernelCost("cuda", cuda_flops=1e12)
    copy = KernelCost("copy", bytes_read=1e12)
    cases = {
        "cuda": (ExecutionTrace([cuda, KernelCost("tcu", tcu_fp64_flops=1e12)]), 8),
        "tcu": (ExecutionTrace([cuda, KernelCost("tcu", tcu_fp64_flops=2e12)]), 8),
        "memory": (ExecutionTrace([cuda, copy]), 8),
        "serial": (ExecutionTrace([cuda, copy]), 1),
        # One second on each of three resources, but only two streams:
        # the finite-parallelism clamp (serial / 2) outweighs any resource.
        "streams": (
            ExecutionTrace(
                [
                    KernelCost("cuda", cuda_flops=A100.cuda_fp64_flops),
                    KernelCost("tcu", tcu_fp64_flops=A100.tcu_fp64_flops),
                    KernelCost("copy", bytes_read=A100.memory_bytes_per_s),
                ]
            ),
            2,
        ),
    }
    for binding, (trace, streams) in cases.items():
        assert price(trace, A100, streams).binding == binding


def test_price_is_a_left_fold_on_every_python():
    """Regression: ``sum()`` is compensated on 3.12+, which moved modeled
    times with the interpreter version.  One large kernel followed by many
    ~16 orders of magnitude smaller must price to the plain left fold,
    under which each small term vanishes against the large one."""
    rate = A100.cuda_fp64_flops
    events = [KernelCost("big", cuda_flops=rate, launches=0)]
    events += [KernelCost("tiny", cuda_flops=rate * 1e-16, launches=0)] * 64
    times = [e.time_s(A100) for e in events]
    fold = 0.0
    for t in times:
        fold += t
    assert fold != math.fsum(times), "the case must tell a left fold from a compensated sum"
    trace = ExecutionTrace(events)
    record = price(trace, A100, 8)
    assert record.serial_s == fold
    assert record.cuda_s == fold
    assert trace.serial_time_s(A100) == fold
    assert trace.overlapped_time_s(A100, 8) == fold


@pytest.mark.parametrize("device", [L4, A100_NO_TCU], ids=["l4", "a100-no-tcu"])
def test_missing_tensor_cores_raise_one_value_error_subclass(device):
    trace = ExecutionTrace([KernelCost("ntt", tcu_fp64_flops=1e9)])
    with pytest.raises(DeviceCapabilityError, match="no FP64 tensor cores"):
        price(trace, device, 8)
    with pytest.raises(ValueError):
        trace.overlapped_time_s(device, 1)
    # Work the device can run prices normally.
    assert price(ExecutionTrace([KernelCost("ntt", cuda_flops=1e9)]), device).serial_s > 0
