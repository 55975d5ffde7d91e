"""The indexed admission queue against the list-and-sort rule it replaced.

The oracle is a plain list in push order with linear scans: dispatch
sorts the whole queue by the policy's order key, keeps the head request's
bucket, and applies the take/overflow/window rule; the eviction victim
and the per-tenant depth are found by scanning every request.
Hypothesis drives push / dispatch / cancel / evict sequences under each
policy, through the same :class:`AdmissionController` on both queues, and
every step compares the batch candidate, the eviction victim below each
priority, the tenant depths, the push order and the depth samples.

The draws are seeded from the suite's ``--seed`` so CI runs them under
several seeds.
"""

import math

import pytest
from hypothesis import given, seed as hypothesis_seed, settings, strategies as st

from repro.serving import (
    POLICIES,
    AdmissionController,
    ContinuousBatcher,
    OverloadPolicy,
    QueueFull,
    Request,
    RequestQueue,
    get_policy,
)

APPS = ("helr", "packbootstrap")
TENANTS = ("t0", "t1", "t2")
#: Sizes on both sides of the powers of two that bucket boundaries use.
SIZES = (1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65)
#: Few distinct SLOs and clock steps, so equal arrivals and equal
#: deadlines are common.
SLOS = (1.0, 2.0, 4.0)
STEPS = (0.0, 0.0, 0.5, 1.0, 3.0)


class ListQueue:
    """The oracle: pending requests in push order, scanned linearly."""

    def __init__(self, capacity=None):
        self.capacity = capacity
        self.pending = []
        self.samples = []

    def push(self, request, now):
        if self.capacity is not None and len(self.pending) >= self.capacity:
            raise QueueFull(self.capacity)
        self.pending.append(request)
        self.samples.append((now, len(self.pending)))

    def remove(self, requests, now):
        gone = {r.rid for r in requests}
        self.pending = [r for r in self.pending if r.rid not in gone]
        self.samples.append((now, len(self.pending)))

    def pop_rid(self, rid, now):
        for i, request in enumerate(self.pending):
            if request.rid == rid:
                del self.pending[i]
                self.samples.append((now, len(self.pending)))
                return request
        return None

    def lowest_priority(self, below):
        victim = None
        for request in self.pending:
            if request.priority >= below:
                continue
            if (
                victim is None
                or request.priority < victim.priority
                or (
                    request.priority == victim.priority
                    and (request.arrival_s, request.rid)
                    > (victim.arrival_s, victim.rid)
                )
            ):
                victim = request
        return victim

    def tenant_depth(self, tenant):
        return sum(1 for r in self.pending if r.tenant == tenant)

    @property
    def pressure(self):
        if self.capacity is None:
            return 0.0
        return len(self.pending) / self.capacity


def sorted_candidate(pending, policy, max_batch, max_wait_s, now, draining):
    """The dispatch rule as a full sort plus a head-bucket filter."""
    if not pending:
        return None, math.inf
    ordered = sorted(pending, key=policy.order_key)
    bucket = policy.bucket(ordered[0])
    group = [r for r in ordered if policy.bucket(r) == bucket]
    take = []
    total = 0
    overflow = False
    for request in group:
        if take and total + request.size > max_batch:
            overflow = True
            break
        take.append(request)
        total += request.size
    full = overflow or total >= max_batch
    window_deadline = min(r.arrival_s for r in take) + max_wait_s
    if full or draining or now >= window_deadline:
        return take, window_deadline
    return None, window_deadline


def rids(take):
    return None if take is None else [r.rid for r in take]


def rid_of(request):
    return None if request is None else request.rid


arrive = st.tuples(
    st.just("arrive"),
    st.sampled_from(APPS),
    st.sampled_from(SIZES),
    st.sampled_from(SLOS),
    st.integers(min_value=0, max_value=2),
    st.sampled_from(TENANTS),
)
dispatch = st.tuples(st.just("dispatch"), st.booleans())
cancel = st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=60))
evict = st.tuples(st.just("evict"), st.integers(min_value=0, max_value=3))
steps = st.lists(
    st.tuples(st.sampled_from(STEPS), st.one_of(arrive, arrive, dispatch, cancel, evict)),
    min_size=1,
    max_size=60,
)
overloads = st.one_of(
    st.none(),
    st.builds(
        OverloadPolicy,
        queue_capacity=st.integers(min_value=1, max_value=12),
        shed_threshold=st.sampled_from((0.25, 0.5, 1.0)),
        shed_below_priority=st.integers(min_value=0, max_value=3),
        tenant_quota=st.one_of(st.none(), st.integers(min_value=1, max_value=4)),
        evict_lower_priority=st.booleans(),
    ),
)


def same_candidate(batcher, queue, oracle, now, draining):
    """The indexed and plain-list candidates, checked against the oracle's."""
    take, deadline = sorted_candidate(
        oracle.pending, batcher.policy, batcher.max_batch, batcher.max_wait_s,
        now, draining,
    )
    for pending in (queue, list(oracle.pending)):
        got, got_deadline = batcher.candidate(pending, now, draining)
        assert (rids(got), got_deadline) == (rids(take), deadline)
    return take


def run_sequence(policy_name, overload, max_batch, max_wait_s, sequence):
    policy = get_policy(policy_name)
    batcher = ContinuousBatcher(policy, max_batch=max_batch, max_wait_s=max_wait_s)
    capacity = overload.queue_capacity if overload else None
    queue = RequestQueue(capacity=capacity, policy=policy)
    oracle = ListQueue(capacity=capacity)
    controllers = (
        (AdmissionController(overload), AdmissionController(overload))
        if overload
        else None
    )
    now = 0.0
    next_rid = 0
    for step, action in sequence:
        now += step
        kind = action[0]
        if kind == "arrive":
            _, app, size, slo, priority, tenant = action
            request = Request(
                rid=next_rid, app=app, size=size, arrival_s=now, slo_s=slo,
                tenant=tenant, priority=priority,
            )
            next_rid += 1
            if controllers is None:
                queue.push(request, now)
                oracle.push(request, now)
            else:
                got = controllers[0].admit(request, queue, now)
                want = controllers[1].admit(request, oracle, now)
                assert (got.outcome, got.reason) == (want.outcome, want.reason)
                assert rid_of(got.victim) == rid_of(want.victim)
        elif kind == "dispatch":
            take = same_candidate(batcher, queue, oracle, now, action[1])
            if take is not None:
                queue.remove(take, now)
                oracle.remove(take, now)
        elif kind == "cancel":
            rid = action[1] % max(next_rid, 1)
            assert rid_of(queue.pop_rid(rid, now)) == rid_of(oracle.pop_rid(rid, now))
        else:
            victim = queue.lowest_priority(action[1])
            assert rid_of(victim) == rid_of(oracle.lowest_priority(action[1]))
            if victim is not None:
                queue.pop_rid(victim.rid, now)
                oracle.pop_rid(victim.rid, now)

        for draining in (False, True):
            same_candidate(batcher, queue, oracle, now, draining)
        for below in range(4):
            assert rid_of(queue.lowest_priority(below)) == rid_of(
                oracle.lowest_priority(below)
            )
        for tenant in TENANTS:
            assert queue.tenant_depth(tenant) == oracle.tenant_depth(tenant)
        assert [r.rid for r in queue.requests] == [r.rid for r in oracle.pending]
        assert len(queue) == len(oracle.pending)
        assert queue.pressure == oracle.pressure
        assert list(queue.depth_samples()) == oracle.samples


@pytest.mark.parametrize("policy_name", sorted(POLICIES))
def test_indexed_queue_matches_the_sorting_oracle(policy_name, seed):
    @hypothesis_seed(seed)
    @settings(max_examples=100, deadline=None, database=None)
    @given(
        overload=overloads,
        max_batch=st.sampled_from((1, 4, 16, 64)),
        max_wait_s=st.sampled_from((0.0, 2.0, 10.0)),
        sequence=steps,
    )
    def check(overload, max_batch, max_wait_s, sequence):
        run_sequence(policy_name, overload, max_batch, max_wait_s, sequence)

    check()
