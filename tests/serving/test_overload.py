"""Overload-control unit tests: bounded queue, shedding, eviction, cancels.

The bounded queue is a regression guard for the latent unbounded
``RequestQueue``: before overload control every submitted request queued,
so a sustained overload grew the queue (and latency) without limit.  These
tests pin the explicit rejection path, the admission controller's
three-outcome accounting, priority eviction, tenant quotas, mid-drain
cancellation, and the report/telemetry surfaces they feed.
"""

import pytest

from repro.serving import (
    AdmissionController,
    FixedServiceModel,
    OverloadPolicy,
    PriorityPolicy,
    QueueFull,
    Request,
    RequestQueue,
    Server,
    tier_name,
    tier_priority,
)
from repro.serving.overload import (
    ADMITTED,
    REASON_EVICTED,
    REASON_PRESSURE,
    REASON_QUEUE_FULL,
    REASON_TENANT_QUOTA,
    REJECTED,
    SHED,
)
from repro.telemetry import disable_telemetry, enable_telemetry

FLAT = FixedServiceModel(lambda app, size: 10.0)


def _server(**kwargs):
    defaults = dict(
        policy="fifo", max_batch=4, max_wait_s=5.0, lanes=1, model=FLAT
    )
    defaults.update(kwargs)
    return Server(**defaults)


class TestBoundedQueue:
    def test_unbounded_by_default(self):
        queue = RequestQueue()
        for i in range(1000):
            queue.push(Request(rid=i, app="helr"), 0.0)
        assert len(queue) == 1000 and queue.pressure == 0.0

    def test_capacity_bound_raises_queue_full(self):
        """The latent-unbounded-queue regression: pushes stop at the cap."""
        queue = RequestQueue(capacity=2)
        queue.push(Request(rid=0, app="helr"), 0.0)
        queue.push(Request(rid=1, app="helr"), 0.0)
        with pytest.raises(QueueFull) as excinfo:
            queue.push(Request(rid=2, app="helr"), 0.0)
        assert excinfo.value.capacity == 2
        assert len(queue) == 2  # the failed push mutated nothing

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError, match="capacity"):
            RequestQueue(capacity=0)

    def test_pressure_is_fill_fraction(self):
        queue = RequestQueue(capacity=4)
        assert queue.pressure == 0.0
        queue.push(Request(rid=0, app="helr"), 0.0)
        assert queue.pressure == 0.25
        for i in range(1, 4):
            queue.push(Request(rid=i, app="helr"), 0.0)
        assert queue.pressure == 1.0

    def test_pop_rid(self):
        queue = RequestQueue()
        queue.push(Request(rid=7, app="helr"), 0.0)
        assert queue.pop_rid(7, 1.0).rid == 7
        assert queue.pop_rid(7, 1.0) is None
        assert len(queue) == 0

    def test_lowest_priority_victim_selection(self):
        queue = RequestQueue()
        queue.push(Request(rid=0, app="helr", priority=0, arrival_s=0.0), 0.0)
        queue.push(Request(rid=1, app="helr", priority=0, arrival_s=5.0), 5.0)
        queue.push(Request(rid=2, app="helr", priority=1, arrival_s=1.0), 1.0)
        # Lowest priority below 2; ties break to the most recent arrival.
        assert queue.lowest_priority(below=2).rid == 1
        # No victim at or above the bar.
        assert queue.lowest_priority(below=0) is None

    def test_tenant_depth(self):
        queue = RequestQueue()
        queue.push(Request(rid=0, app="helr", tenant="a"), 0.0)
        queue.push(Request(rid=1, app="helr", tenant="a"), 0.0)
        queue.push(Request(rid=2, app="helr", tenant="b"), 0.0)
        assert queue.tenant_depth("a") == 2
        assert queue.tenant_depth("b") == 1
        assert queue.tenant_depth("nobody") == 0


class TestTiers:
    def test_tier_round_trip(self):
        assert tier_priority("premium") == 2
        assert tier_name(tier_priority("batch")) == "batch"
        assert tier_name(99) == "premium"

    def test_unknown_tier_raises(self):
        with pytest.raises(ValueError, match="unknown service tier"):
            tier_priority("vip")

    def test_request_tier_property(self):
        assert Request(rid=0, app="helr", priority=0).tier == "batch"
        assert Request(rid=1, app="helr", priority=2).tier == "premium"


class TestAdmissionController:
    def test_pressure_shedding_below_priority(self):
        controller = AdmissionController(
            OverloadPolicy(queue_capacity=4, shed_threshold=0.5)
        )
        queue = RequestQueue(capacity=4)
        queue.push(Request(rid=0, app="helr", priority=1), 0.0)
        queue.push(Request(rid=1, app="helr", priority=1), 0.0)
        # Pressure now 0.5: batch-tier arrivals shed, standard admitted.
        shed = controller.admit(
            Request(rid=2, app="helr", priority=0), queue, 0.0
        )
        kept = controller.admit(
            Request(rid=3, app="helr", priority=1), queue, 0.0
        )
        assert (shed.outcome, shed.reason) == (SHED, REASON_PRESSURE)
        assert kept.outcome == ADMITTED
        assert len(queue) == 3

    def test_queue_full_rejection_without_victim(self):
        controller = AdmissionController(
            OverloadPolicy(queue_capacity=1, shed_threshold=1.0)
        )
        queue = RequestQueue(capacity=1)
        controller.admit(Request(rid=0, app="helr", priority=1), queue, 0.0)
        decision = controller.admit(
            Request(rid=1, app="helr", priority=1), queue, 0.0
        )
        assert (decision.outcome, decision.reason) == (
            REJECTED, REASON_QUEUE_FULL,
        )

    def test_priority_eviction(self):
        controller = AdmissionController(
            OverloadPolicy(queue_capacity=1, shed_threshold=1.0)
        )
        queue = RequestQueue(capacity=1)
        controller.admit(Request(rid=0, app="helr", priority=0), queue, 0.0)
        decision = controller.admit(
            Request(rid=1, app="helr", priority=2), queue, 0.0
        )
        assert decision.outcome == ADMITTED
        assert decision.reason == REASON_EVICTED
        assert decision.victim.rid == 0
        assert [r.rid for r in queue.requests] == [1]
        ledger = controller.ledger.as_dict()
        assert ledger["offered"] == 2
        assert ledger["admitted"] == 1 and ledger["shed"] == 1
        assert ledger[f"{SHED}:{REASON_EVICTED}"] == 1

    def test_eviction_disabled_rejects(self):
        controller = AdmissionController(
            OverloadPolicy(
                queue_capacity=1, shed_threshold=1.0,
                evict_lower_priority=False,
            )
        )
        queue = RequestQueue(capacity=1)
        controller.admit(Request(rid=0, app="helr", priority=0), queue, 0.0)
        decision = controller.admit(
            Request(rid=1, app="helr", priority=2), queue, 0.0
        )
        assert decision.outcome == REJECTED

    def test_tenant_quota(self):
        controller = AdmissionController(
            OverloadPolicy(queue_capacity=8, tenant_quota=1)
        )
        queue = RequestQueue(capacity=8)
        first = controller.admit(
            Request(rid=0, app="helr", tenant="a"), queue, 0.0
        )
        second = controller.admit(
            Request(rid=1, app="helr", tenant="a"), queue, 0.0
        )
        other = controller.admit(
            Request(rid=2, app="helr", tenant="b"), queue, 0.0
        )
        assert first.outcome == ADMITTED
        assert (second.outcome, second.reason) == (
            REJECTED, REASON_TENANT_QUOTA,
        )
        assert other.outcome == ADMITTED

    def test_ledger_conservation(self):
        controller = AdmissionController(
            OverloadPolicy(queue_capacity=2, shed_threshold=0.5)
        )
        queue = RequestQueue(capacity=2)
        for i in range(10):
            controller.admit(
                Request(rid=i, app="helr", priority=i % 3), queue, 0.0
            )
        ledger = controller.ledger
        assert ledger.offered == 10
        assert ledger.admitted + ledger.shed + ledger.rejected == 10

    def test_policy_validation(self):
        with pytest.raises(ValueError, match="queue_capacity"):
            OverloadPolicy(queue_capacity=0)
        with pytest.raises(ValueError, match="shed_threshold"):
            OverloadPolicy(shed_threshold=0.0)
        with pytest.raises(ValueError, match="tenant_quota"):
            OverloadPolicy(tenant_quota=0)

    def test_policy_json_round_trip(self):
        policy = OverloadPolicy(
            queue_capacity=32, shed_threshold=0.6, tenant_quota=4
        )
        assert OverloadPolicy.from_jsonable(policy.to_jsonable()) == policy


class TestPriorityPolicy:
    def test_orders_by_tier_then_deadline(self):
        policy = PriorityPolicy()
        premium = Request(rid=0, app="helr", priority=2, arrival_s=5.0)
        batch = Request(rid=1, app="helr", priority=0, arrival_s=0.0)
        assert policy.order_key(premium) < policy.order_key(batch)

    def test_registered(self):
        from repro.serving import get_policy

        assert isinstance(get_policy("priority"), PriorityPolicy)

    def test_premium_dispatches_first_under_load(self):
        server = _server(policy="priority", max_batch=1, max_wait_s=0.0)
        server.submit(app="helr", arrival_s=0.0, priority=0)
        server.submit(app="helr", arrival_s=0.0, priority=2)
        report = server.drain()
        first = min(report.records, key=lambda r: r.start_s)
        assert first.request.priority == 2


class TestServerOverload:
    def test_no_policy_keeps_legacy_behaviour(self):
        server = _server()
        for i in range(50):
            server.submit(app="helr", arrival_s=0.0)
        report = server.drain()
        assert report.served == 50
        assert report.offered == 50
        assert report.queue_capacity is None
        assert report.admission == {}

    def test_report_conservation_under_overload(self):
        server = _server(
            overload=OverloadPolicy(queue_capacity=4, shed_threshold=0.5)
        )
        for i in range(40):
            server.submit(app="helr", arrival_s=float(i) * 0.1, priority=i % 3)
        report = server.drain()
        assert report.offered == 40
        assert (
            report.served + report.shed_count + report.rejected_count
            + report.cancelled_count
        ) == 40
        assert report.shed_count > 0 or report.rejected_count > 0
        assert report.queue_capacity == 4
        assert 0.0 < report.peak_pressure <= 1.0
        ledger = report.admission
        assert ledger["offered"] == 40
        assert (
            ledger["admitted"] + ledger["shed"] + ledger["rejected"] == 40
        )

    def test_max_queue_depth_never_exceeds_capacity(self):
        server = _server(overload=OverloadPolicy(queue_capacity=3))
        for i in range(30):
            server.submit(app="helr", arrival_s=0.0)
        report = server.drain()
        assert report.max_queue_depth <= 3

    def test_premium_evicts_queued_batch_request(self):
        server = _server(
            policy="priority",
            overload=OverloadPolicy(queue_capacity=2, shed_threshold=1.0),
        )
        server.submit(app="helr", arrival_s=0.0, priority=0)
        server.submit(app="helr", arrival_s=0.0, priority=0)
        premium = server.submit(app="helr", arrival_s=0.0, priority=2)
        report = server.drain()
        assert premium.rid in {r.request.rid for r in report.records}
        assert report.shed_count == 1
        assert report.shed[0].priority == 0

    def test_format_reports_overload_line(self):
        server = _server(
            overload=OverloadPolicy(queue_capacity=2, shed_threshold=0.5)
        )
        for i in range(10):
            server.submit(app="helr", arrival_s=0.0, priority=i % 3)
        text = server.drain().format()
        assert "overload   :" in text
        assert "capacity 2" in text
        assert "per-tier outcomes" in text

    def test_per_tier_outcomes(self):
        server = _server(
            policy="priority",
            overload=OverloadPolicy(queue_capacity=2, shed_threshold=0.5),
        )
        for i in range(12):
            server.submit(app="helr", arrival_s=0.0, priority=i % 3)
        tiers = server.drain().per_tier()
        assert set(tiers) <= {"batch", "standard", "premium"}
        total = sum(
            entry["served"] + entry["shed"] + entry["rejected"]
            + entry["cancelled"]
            for entry in tiers.values()
        )
        assert total == 12


class TestCancellation:
    def test_cancel_before_arrival_never_queues(self):
        server = _server()
        request = server.submit(app="helr", arrival_s=10.0)
        server.cancel(request.rid, at_s=5.0)
        report = server.drain()
        assert report.cancelled_count == 1
        assert report.served == 0

    def test_cancel_while_queued(self):
        server = _server(max_wait_s=50.0)
        served = server.submit(app="helr", arrival_s=0.0)
        doomed = server.submit(app="helr", arrival_s=0.0)
        # Far-future arrival keeps the window open past the cancel time.
        server.submit(app="packbootstrap", arrival_s=1000.0)
        server.cancel(doomed.rid, at_s=10.0)
        report = server.drain()
        cancelled = {r.rid for r in report.cancelled}
        assert cancelled == {doomed.rid}
        assert served.rid in {r.request.rid for r in report.records}

    def test_late_cancel_is_noop(self):
        server = _server(max_wait_s=0.0)
        request = server.submit(app="helr", arrival_s=0.0)
        server.cancel(request.rid, at_s=100.0)  # batch dispatched at t=0
        report = server.drain()
        assert report.served == 1
        assert report.cancelled_count == 0

    def test_earliest_cancel_wins(self):
        server = _server()
        request = server.submit(app="helr", arrival_s=10.0)
        server.cancel(request.rid, at_s=50.0)
        server.cancel(request.rid, at_s=5.0)
        assert server.drain().cancelled_count == 1

    def test_negative_cancel_time_rejected(self):
        with pytest.raises(ValueError, match="cancel time"):
            _server().cancel(0, at_s=-1.0)


class TestOverloadTelemetry:
    def test_shed_and_pressure_metrics(self):
        registry = enable_telemetry()
        registry.reset()
        try:
            server = _server(
                overload=OverloadPolicy(queue_capacity=2, shed_threshold=0.5)
            )
            for i in range(10):
                server.submit(app="helr", arrival_s=0.0, priority=i % 2)
            report = server.drain()
            snapshot = registry.snapshot()
            assert "serving_queue_pressure_peak" in snapshot
            dropped = sum(
                entry["value"]
                for name in (
                    "serving_requests_shed_total",
                    "serving_requests_rejected_total",
                    "serving_requests_cancelled_total",
                )
                for entry in snapshot.get(name, {}).get("series", [])
            )
            assert dropped == report.offered - report.served
        finally:
            disable_telemetry()


class TestServerStatsPending:
    """``stats().pending`` counts only submissions no drain has settled."""

    def test_dropped_requests_are_not_pending(self):
        server = _server(
            overload=OverloadPolicy(
                queue_capacity=2, shed_threshold=0.5, shed_below_priority=1,
                evict_lower_priority=False,
            )
        )
        server.submit(app="helr", arrival_s=0.0, priority=1)  # served
        server.submit(app="helr", arrival_s=0.0, priority=1)  # served
        server.submit(app="helr", arrival_s=0.0, priority=0)  # shed
        server.submit(app="helr", arrival_s=0.0, priority=1)  # rejected
        late = server.submit(app="helr", arrival_s=50.0, priority=1)
        server.cancel(late.rid, at_s=40.0)  # cancelled
        assert server.stats().pending == 5
        report = server.drain()
        assert (report.served, report.shed_count, report.rejected_count,
                report.cancelled_count) == (2, 1, 1, 1)
        stats = server.stats()
        assert (stats.submitted, stats.served, stats.pending) == (5, 2, 0)

    def test_submissions_after_a_drain_are_pending(self):
        server = _server(overload=OverloadPolicy(queue_capacity=2))
        for _ in range(4):
            server.submit(app="helr", arrival_s=0.0)
        server.drain()
        assert server.stats().pending == 0
        server.submit(app="helr", arrival_s=100.0)
        server.submit(app="helr", arrival_s=100.0)
        assert server.stats().pending == 2
        server.drain()
        assert server.stats().pending == 0
        server.clear_submissions()
        server.submit(app="helr", arrival_s=0.0)
        assert server.stats().pending == 1
