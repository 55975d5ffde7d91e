"""The admission queue: arrived-but-unscheduled requests plus depth metrics.

The queue keeps its members in the order of one admission policy
(:mod:`repro.serving.policies`): each batch-compatible bucket holds its
requests sorted by the policy's ``order_key``, so the batcher
(:mod:`repro.serving.batcher`) reads the head bucket without sorting the
queue on every dispatch decision.  Beside the buckets it indexes what the
overload controller asks about -- the eviction victim per priority and the
queued count per tenant -- and records a time-stamped depth sample at every
mutation, so the server can report time-weighted mean and peak queue depth
without a separate metrics pass.  A push, removal or eviction touches only
the entries it changes.

The queue is **bounded** when given a ``capacity``: pushing into a full
queue raises :class:`QueueFull` instead of growing without limit.  Under
sustained overload an unbounded queue is an OOM waiting to happen (and a
latency disaster long before that); the explicit rejection path is what
:mod:`repro.serving.overload` turns into load shedding, eviction, and
backpressure signals.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Tuple

from .policies import AdmissionPolicy, FifoPolicy
from .request import Request

#: One bucket-index entry: (policy order key, push sequence, request).  The
#: sequence breaks order-key ties in push order, as a stable sort would.
_Entry = Tuple[Tuple, int, Request]


class QueueFull(Exception):
    """Raised when a push would exceed the queue's capacity bound."""

    def __init__(self, capacity: int):
        super().__init__(
            f"admission queue is at its capacity bound ({capacity} requests)"
        )
        self.capacity = capacity


class RequestQueue:
    """Pending requests, indexed in policy order, with depth accounting.

    Args:
        capacity: maximum pending requests; ``None`` leaves the queue
            unbounded (the pre-overload-control behaviour).
        policy: the admission policy whose buckets and order the queue
            keeps (FIFO when omitted).
    """

    def __init__(
        self,
        capacity: Optional[int] = None,
        policy: Optional[AdmissionPolicy] = None,
    ):
        if capacity is not None and capacity < 1:
            raise ValueError(f"queue capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.policy = policy if policy is not None else FifoPolicy()
        #: rid -> (bucket, entry), in push order.
        self._members: Dict[int, Tuple[Hashable, _Entry]] = {}
        #: bucket -> its entries sorted by (order key, push sequence).
        self._buckets: Dict[Hashable, List[_Entry]] = {}
        #: priority -> (arrival_s, rid, request), sorted.
        self._by_priority: Dict[int, List[Tuple[float, int, Request]]] = {}
        self._tenants: Dict[str, int] = {}
        self._pushes = 0
        #: (time, depth) samples; depth holds until the next sample.
        self._samples: List[Tuple[float, int]] = []

    # -- membership ---------------------------------------------------------------

    def push(self, request: Request, now: float) -> None:
        """Enqueue one request; raises :class:`QueueFull` at the bound.

        Raises ``ValueError`` when a request with the same rid is queued:
        removals and cancels find requests by rid.
        """
        if self.capacity is not None and len(self._members) >= self.capacity:
            raise QueueFull(self.capacity)
        if request.rid in self._members:
            raise ValueError(f"request id {request.rid} is already queued")
        entry = (self.policy.order_key(request), self._pushes, request)
        self._pushes += 1
        bucket = self.policy.bucket(request)
        self._members[request.rid] = (bucket, entry)
        insort(self._buckets.setdefault(bucket, []), entry)
        insort(
            self._by_priority.setdefault(request.priority, []),
            (request.arrival_s, request.rid, request),
        )
        self._tenants[request.tenant] = self._tenants.get(request.tenant, 0) + 1
        self._sample(now)

    def remove(self, requests: Iterable[Request], now: float) -> None:
        """Drop a dispatched batch's requests (by identity of rid)."""
        for request in requests:
            self._discard(request.rid)
        self._sample(now)

    def pop_rid(self, rid: int, now: float) -> Optional[Request]:
        """Remove and return the queued request with `rid`, if present."""
        request = self._discard(rid)
        if request is not None:
            self._sample(now)
        return request

    def _discard(self, rid: int) -> Optional[Request]:
        member = self._members.pop(rid, None)
        if member is None:
            return None
        bucket, entry = member
        request = entry[2]
        group = self._buckets[bucket]
        del group[bisect_left(group, entry)]
        if not group:
            del self._buckets[bucket]
        ranks = self._by_priority[request.priority]
        del ranks[bisect_left(ranks, (request.arrival_s, rid, request))]
        if not ranks:
            del self._by_priority[request.priority]
        self._tenants[request.tenant] -= 1
        return request

    def head_bucket(self) -> Iterator[Request]:
        """The head bucket's requests in policy order.

        The head bucket is the one holding the queue's lowest order key;
        nothing when the queue is empty.
        """
        if not self._buckets:
            return iter(())
        group = min(self._buckets.values(), key=lambda entries: entries[0])
        return (entry[2] for entry in group)

    def lowest_priority(self, below: int) -> Optional[Request]:
        """The eviction victim: lowest priority strictly below `below`.

        Among equal priorities the most recent arrival goes (it has the
        least queueing investment to waste).  ``None`` when every queued
        request is at or above `below`.
        """
        lower = [p for p in self._by_priority if p < below]
        if not lower:
            return None
        return self._by_priority[min(lower)][-1][2]

    def tenant_depth(self, tenant: str) -> int:
        """Currently queued requests belonging to one tenant."""
        return self._tenants.get(tenant, 0)

    @property
    def requests(self) -> Tuple[Request, ...]:
        """The pending requests in arrival (push) order."""
        return tuple(entry[2] for _, entry in self._members.values())

    def __iter__(self) -> Iterator[Request]:
        return iter(self.requests)

    def __len__(self) -> int:
        return len(self._members)

    def __bool__(self) -> bool:
        return bool(self._members)

    # -- pressure -----------------------------------------------------------------

    @property
    def pressure(self) -> float:
        """Fill fraction in [0, 1]; always 0.0 for unbounded queues."""
        if self.capacity is None:
            return 0.0
        return len(self._members) / self.capacity

    # -- depth metrics ------------------------------------------------------------

    def _sample(self, now: float) -> None:
        self._samples.append((now, len(self._members)))

    def max_depth(self) -> int:
        return max((depth for _, depth in self._samples), default=0)

    def mean_depth(self) -> float:
        """Time-weighted mean depth over the sampled span."""
        if len(self._samples) < 2:
            return float(self._samples[0][1]) if self._samples else 0.0
        area = 0.0
        for (t0, depth), (t1, _) in zip(self._samples, self._samples[1:]):
            area += depth * (t1 - t0)
        span = self._samples[-1][0] - self._samples[0][0]
        return area / span if span > 0 else float(self._samples[-1][1])

    def depth_samples(self) -> Tuple[Tuple[float, int], ...]:
        return tuple(self._samples)
