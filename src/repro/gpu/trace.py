"""Execution traces: sequences of kernel costs, priced in one pass.

Neo partitions work across CUDA streams so tensor-core and CUDA-core phases
of different batches overlap (Section 4.6).  :func:`price` walks a trace
once, left to right, and returns a :class:`TracePrice`: the serial time
(one stream, kernels back to back), the overlapped time (the per-resource
lower bound that perfect multi-stream scheduling approaches, never beating
any single resource's total demand), the per-resource terms that bound
it, the binding term, and per-kernel serial seconds and bytes.  Every
timing reader -- ``serial_time_s``, ``overlapped_time_s``, ``breakdown_s``,
the profiler, the multi-GPU model, and the memoised schedule prices of
:class:`~repro.core.neo_context.NeoContext` -- reads that one record.

Totals are ``+=`` folds in event order, never ``sum()``: CPython 3.12 made
``sum()`` of floats compensated, which would move modeled times (and the
serving timelines they clock) with the interpreter version.
"""

from __future__ import annotations

import dataclasses
import json
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, NamedTuple, Sequence, Tuple

from .device import DeviceSpec
from .kernels import KernelCost


class KernelRow(NamedTuple):
    """Serial seconds and global-memory bytes of every event of one kernel name."""

    name: str
    serial_s: float
    bytes: float


@dataclass(frozen=True)
class TracePrice:
    """Every term of one trace's price on one device at one stream count.

    ``overlapped_s == min(serial_s, max(max(cuda_s, tcu_s, memory_s) +
    launch_s, serial_s / streams))``, and ``binding`` names the term that
    set it: ``"serial"`` (no overlap: one stream, or the bound reaches the
    serial time), ``"streams"`` (the finite-parallelism clamp ``serial_s /
    streams``), or the busiest resource, ``"cuda"``, ``"tcu"`` or
    ``"memory"``.  ``launch_s`` is the launch overhead amortised over the
    streams.  The record holds no per-event data, so it is cheap to memoise.
    """

    serial_s: float
    overlapped_s: float
    cuda_s: float
    tcu_s: float
    memory_s: float
    launch_s: float
    binding: str
    #: Per-kernel-name rows, in order of first appearance.
    kernels: Tuple[KernelRow, ...]


def price(trace: "ExecutionTrace", device: DeviceSpec, streams: int = 8) -> TracePrice:
    """Price `trace` on `device` with `streams` CUDA streams, in one pass.

    Overlap model: with ``streams > 1``, work on different components (CUDA
    cores, FP64 TCU, INT8 TCU, memory) proceeds concurrently across
    streams, so the makespan approaches the busiest resource's total
    demand; launch overhead is amortised across streams.  The result is
    clamped to never beat ``serial / streams`` (finite parallelism) and
    never exceed the serial time.  Raises
    :class:`~repro.gpu.kernels.DeviceCapabilityError` for tensor-core work
    on a device without that tensor core.
    """
    cuda = fp64 = int8 = memory = launches = serial = 0.0
    seconds: Dict[str, float] = {}
    moved: Dict[str, float] = {}
    for event in trace.events:
        c, f, i, m, n, time = event.roofline(device)
        cuda += c
        fp64 += f
        int8 += i
        memory += m
        launches += n
        serial += time
        name = event.name
        seconds[name] = seconds.get(name, 0.0) + time
        moved[name] = moved.get(name, 0.0) + (event.bytes_read + event.bytes_written)
    tcu = fp64 + int8
    launch = launches * device.kernel_launch_us * 1e-6 / max(streams, 1)
    overlapped, binding = serial, "serial"
    if streams > 1:
        peak = max(cuda, tcu, memory)
        bound = peak + launch
        clamp = serial / streams
        if max(bound, clamp) < serial:
            if bound >= clamp:
                overlapped = bound
                binding = "cuda" if cuda == peak else "tcu" if tcu == peak else "memory"
            else:
                overlapped, binding = clamp, "streams"
    return TracePrice(
        serial_s=serial,
        overlapped_s=overlapped,
        cuda_s=cuda,
        tcu_s=tcu,
        memory_s=memory,
        launch_s=launch,
        binding=binding,
        kernels=tuple(KernelRow(k, seconds[k], moved[k]) for k in seconds),
    )


@dataclass(eq=False)
class ExecutionTrace:
    """An ordered list of kernel executions.

    Traces start out mutable (builders ``add``/``extend`` them) and can be
    ``frozen()`` once complete: a frozen trace stores its events as a tuple,
    so it is safely shareable from a cache -- attempts to ``add`` to it
    raise, and it is hashable.  Equality is by event sequence, so a frozen
    trace compares equal to the mutable trace it was built from.
    """

    events: Sequence[KernelCost] = field(default_factory=list)

    def add(self, cost: KernelCost) -> "ExecutionTrace":
        self.events.append(cost)
        return self

    def extend(self, costs: Iterable[KernelCost]) -> "ExecutionTrace":
        self.events.extend(costs)
        return self

    def __len__(self) -> int:
        return len(self.events)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExecutionTrace):
            return NotImplemented
        return tuple(self.events) == tuple(other.events)

    def __hash__(self) -> int:
        return hash(tuple(self.events))

    # -- immutability -------------------------------------------------------------

    @property
    def is_frozen(self) -> bool:
        return isinstance(self.events, tuple)

    def frozen(self) -> "ExecutionTrace":
        """This trace with an immutable event sequence (self if already so)."""
        if self.is_frozen:
            return self
        return ExecutionTrace(events=tuple(self.events))

    # -- timing -----------------------------------------------------------------

    def serial_time_s(self, device: DeviceSpec) -> float:
        """Single-stream execution: kernels run strictly back to back."""
        return price(self, device, 1).serial_s

    def overlapped_time_s(self, device: DeviceSpec, streams: int = 8) -> float:
        """Multi-stream execution time (see :func:`price` for the model)."""
        return price(self, device, streams).overlapped_s

    # -- serialisation ------------------------------------------------------------

    def to_jsonable(self) -> List[Dict]:
        """The event list as JSON-serialisable dicts (stable field order)."""
        return [dataclasses.asdict(event) for event in self.events]

    def canonical_json(self) -> str:
        """A deterministic JSON encoding of the trace.

        Equal traces produce byte-identical strings (floats round-trip
        through ``repr``), which is what the golden-trace fixtures diff.
        """
        return json.dumps(self.to_jsonable(), sort_keys=True, indent=2)

    @staticmethod
    def from_jsonable(events: Iterable[Dict]) -> "ExecutionTrace":
        """Rebuild a frozen trace from :meth:`to_jsonable` output.

        Accepts both pre-hierarchy payloads (no ``traffic`` key) and the
        current format, where ``traffic`` is a nested dict or ``None``.
        """
        from .kernels import KernelCost
        from .memory_model import TrafficProfile

        rebuilt = []
        for event in events:
            event = dict(event)
            traffic = event.get("traffic")
            if isinstance(traffic, dict):
                event["traffic"] = TrafficProfile(**traffic)
            rebuilt.append(KernelCost(**event))
        return ExecutionTrace(rebuilt).frozen()

    # -- accounting ---------------------------------------------------------------

    def breakdown_s(self, device: DeviceSpec) -> Dict[str, float]:
        """Serial time aggregated by kernel name."""
        return {row.name: row.serial_s for row in price(self, device, 1).kernels}

    def total_bytes(self) -> float:
        """Total global-memory traffic of the trace."""
        total = 0.0
        for event in self.events:
            total += event.bytes_read + event.bytes_written
        return total

    def bytes_by_kernel(self) -> Dict[str, float]:
        """Global-memory traffic aggregated by kernel name."""
        table: Dict[str, float] = defaultdict(float)
        for event in self.events:
            table[event.name] += event.bytes_read + event.bytes_written
        return dict(table)

    def merged(self, other: "ExecutionTrace") -> "ExecutionTrace":
        return ExecutionTrace(events=list(self.events) + list(other.events))

    def scaled(self, factor: float) -> "ExecutionTrace":
        """The trace repeated `factor` times (for per-iteration -> app time)."""
        return ExecutionTrace(events=[e.scaled(factor) for e in self.events])
