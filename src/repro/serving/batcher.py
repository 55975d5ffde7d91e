"""Continuous batching: fold queued requests into dynamic batches.

The batcher implements the decision rule of continuous-batching servers:
the head-of-queue bucket dispatches as soon as it is *full* (adding the
next compatible request would exceed ``max_batch`` ciphertexts), its
*window* expires (the oldest member has waited ``max_wait_s``), or the
server is draining and no further arrivals can top the batch up.  Until
then the batch stays open, trading a bounded wait for a larger -- and far
more device-efficient -- BatchSize (the Fig. 17 occupancy effect is what
makes this trade profitable).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

from .policies import AdmissionPolicy
from .queue import RequestQueue
from .request import Request


@dataclass(frozen=True)
class Batch:
    """One formed dynamic batch, ready to run on a lane."""

    bid: int
    app: str
    requests: Tuple[Request, ...]
    #: BatchSize the model runs at (>= total_size; policies may pad).
    executed_size: int
    #: When the batch left the admission queue.
    formed_s: float

    @property
    def total_size(self) -> int:
        """Ciphertexts actually carried (excluding policy padding)."""
        return sum(r.size for r in self.requests)

    def __len__(self) -> int:
        return len(self.requests)


class ContinuousBatcher:
    """Stateless batch-formation rule over the pending queue."""

    def __init__(self, policy: AdmissionPolicy, max_batch: int = 64,
                 max_wait_s: float = 30.0):
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_wait_s < 0:
            raise ValueError(f"max_wait_s must be >= 0, got {max_wait_s}")
        self.policy = policy
        self.max_batch = max_batch
        self.max_wait_s = max_wait_s

    def candidate(
        self,
        pending: Union[RequestQueue, Sequence[Request]],
        now: float,
        draining: bool,
    ) -> Tuple[Optional[List[Request]], float]:
        """The batch to dispatch at `now`, or when to look again.

        Returns ``(requests, window_deadline)``.  ``requests`` is non-None
        when the head bucket should dispatch now (full, window expired, or
        draining); otherwise the batch is still filling and the server
        should re-evaluate at ``window_deadline`` or the next arrival,
        whichever comes first.  A single request larger than ``max_batch``
        dispatches alone at its own size.

        A :class:`~repro.serving.queue.RequestQueue` kept in this batcher's
        policy is read through its index; any other collection of requests
        is indexed first, in its own order.
        """
        if not isinstance(pending, RequestQueue) or pending.policy is not self.policy:
            queue = RequestQueue(policy=self.policy)
            for request in pending:
                queue.push(request, now)
            pending = queue
        take: List[Request] = []
        total = 0
        overflow = False
        for request in pending.head_bucket():
            if take and total + request.size > self.max_batch:
                overflow = True
                break
            take.append(request)
            total += request.size
        if not take:
            return None, math.inf
        full = overflow or total >= self.max_batch
        window_deadline = min(r.arrival_s for r in take) + self.max_wait_s
        if full or draining or now >= window_deadline:
            return take, window_deadline
        return None, window_deadline
