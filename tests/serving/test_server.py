"""End-to-end Server tests: scheduling, metrics, determinism, lanes.

Most tests drive the simulated clock through :class:`FixedServiceModel`
(analytic timings would only add noise to scheduling assertions); one
smoke test runs the real :class:`NeoServiceModel` end to end.
"""

import json

import pytest

from repro.gpu.device import A100, H100
from repro.serving import (
    FixedServiceModel,
    NeoServiceModel,
    Request,
    Server,
    parse_workload_spec,
    synthesize_arrivals,
)
from repro.telemetry.stats import clear_caches

#: Batch service time grows sub-linearly in BatchSize -- the Fig. 17 shape
#: that makes batching profitable (batch 4 costs 2x batch 1, not 4x).
SUBLINEAR = FixedServiceModel(lambda app, size: 10.0 * size**0.5)
FLAT = FixedServiceModel(lambda app, size: 10.0)


def _server(**kwargs):
    defaults = dict(policy="fifo", max_batch=4, max_wait_s=5.0, lanes=1, model=FLAT)
    defaults.update(kwargs)
    return Server(**defaults)


class TestAdmission:
    def test_submit_kwargs_autoassigns_rids(self):
        server = _server()
        first = server.submit(app="helr")
        second = server.submit(app="helr")
        assert (first.rid, second.rid) == (0, 1)
        assert server.stats().submitted == 2

    def test_submit_requires_app_or_request(self):
        with pytest.raises(ValueError, match="needs a Request or an app"):
            _server().submit()

    def test_rejects_a_duplicate_rid(self):
        server = _server()
        server.submit(Request(rid=5, app="helr"))
        with pytest.raises(ValueError, match="request id 5 was already submitted"):
            server.submit(Request(rid=5, app="packbootstrap"))
        with pytest.raises(ValueError, match="request id 5"):
            server.submit_many([Request(rid=6, app="helr"),
                                Request(rid=5, app="helr")])
        report = server.drain()
        assert report.offered == report.served == 2
        # A fields-built request takes the next free rid, never a duplicate.
        assert server.submit(app="helr").rid == 7

    def test_rejects_zero_lanes(self):
        with pytest.raises(ValueError, match="at least one lane"):
            _server(lanes=0)

    def test_stats_update_after_drain(self):
        server = _server()
        server.submit_many(Request(rid=i, app="helr") for i in range(3))
        assert server.stats().served == 0
        report = server.drain()
        stats = server.stats()
        assert stats.served == 3 and stats.pending == 0
        assert stats.batches == len(report.batches)
        assert server.last_report is report


class TestScheduling:
    def test_simultaneous_arrivals_form_one_batch(self):
        server = _server()
        for i in range(4):
            server.submit(Request(rid=i, app="helr", arrival_s=0.0))
        report = server.drain()
        assert len(report.batches) == 1
        assert report.batches[0].total_size == 4
        assert report.makespan_s == 10.0

    def test_latency_accounting(self):
        """latency = queue wait + service, against the arrival clock."""
        server = _server(max_wait_s=5.0)
        server.submit(Request(rid=0, app="helr", arrival_s=2.0))
        # A far-future arrival keeps the server from drain-flushing rid 0,
        # so its batch waits out the full continuous-batching window.
        server.submit(Request(rid=1, app="packbootstrap", arrival_s=100.0))
        record = server.drain().records[0]
        # Window expires at 2 + 5 = 7, runs 10s to 17.
        assert record.start_s == 7.0
        assert record.queue_wait_s == 5.0
        assert record.service_s == 10.0
        assert record.latency_s == 15.0

    def test_last_requests_flush_on_drain(self):
        """With no arrivals left, the tail batch skips the wait window."""
        server = _server(max_wait_s=5.0)
        server.submit(Request(rid=0, app="helr", arrival_s=2.0))
        record = server.drain().records[0]
        assert record.start_s == 2.0
        assert record.queue_wait_s == 0.0

    def test_fifo_serves_in_arrival_order(self):
        server = _server(max_batch=1, max_wait_s=0.0)
        for i, arrival in enumerate([3.0, 1.0, 2.0]):
            server.submit(Request(rid=i, app="helr", arrival_s=arrival))
        records = sorted(server.drain().records, key=lambda r: r.start_s)
        assert [r.request.rid for r in records] == [1, 2, 0]

    def test_batches_respect_max_batch(self):
        server = _server(max_batch=4)
        for i in range(10):
            server.submit(Request(rid=i, app="helr", arrival_s=0.0))
        report = server.drain()
        assert all(b.total_size <= 4 for b in report.batches)
        assert report.served == 10

    def test_apps_never_mix_within_a_batch(self):
        server = _server(max_batch=8)
        for i in range(3):
            server.submit(Request(rid=i, app="helr", arrival_s=0.0))
            server.submit(Request(rid=100 + i, app="packbootstrap", arrival_s=0.0))
        for batch in server.drain().batches:
            assert len({r.app for r in batch.requests}) == 1

    def test_two_lanes_overlap_batches(self):
        """Independent batches on two lanes finish in half the serial time."""

        def build(lanes):
            server = _server(lanes=lanes, max_wait_s=0.0, max_batch=4)
            for i in range(4):
                server.submit(Request(rid=i, app="helr", arrival_s=0.0))
                server.submit(
                    Request(rid=100 + i, app="packbootstrap", arrival_s=0.0)
                )
            return server.drain()

        serial, overlapped = build(1), build(2)
        assert serial.makespan_s == 20.0  # two 10s batches back to back
        assert overlapped.makespan_s == 10.0  # one per lane, concurrent
        assert {r.lane for r in overlapped.records} == {0, 1}

    def test_edf_prioritises_tight_deadline(self):
        """A late tight-SLO request overtakes an early lax one under EDF."""

        def finish_time(policy):
            server = _server(policy=policy, max_batch=1, max_wait_s=0.0)
            server.submit(Request(rid=0, app="helr", arrival_s=0.0, slo_s=1000.0))
            server.submit(Request(rid=1, app="helr", arrival_s=0.0, slo_s=20.0))
            report = server.drain()
            return {r.request.rid: r.finish_s for r in report.records}

        fifo, edf = finish_time("fifo"), finish_time("edf")
        assert fifo[0] < fifo[1]  # FIFO: arrival order
        assert edf[1] < edf[0]  # EDF: deadline order
        assert edf[1] == 10.0  # tight request meets its 20s SLO...
        assert fifo[1] == 20.0  # ...which FIFO misses by serving it second

    def test_bucketed_policy_pads_executed_size(self):
        server = _server(policy="bucketed", max_batch=8, model=SUBLINEAR)
        for i in range(5):
            server.submit(Request(rid=i, app="helr", arrival_s=0.0))
        report = server.drain()
        assert [b.executed_size for b in report.batches] == [8]
        assert report.batches[0].total_size == 5
        assert report.batch_size_histogram() == {8: 1}


class TestReport:
    def _mixed_report(self):
        server = _server(lanes=2, max_wait_s=2.0)
        phases = parse_workload_spec("helr:6:1.0,packbootstrap:4:0.5")
        server.submit_many(synthesize_arrivals(phases, seed=3))
        return server.drain()

    def test_headline_metrics_consistent(self):
        report = self._mixed_report()
        assert report.served == 10
        assert report.throughput_rps == pytest.approx(10 / report.makespan_s)
        lat = report.latency_summary()
        assert lat["p50"] <= lat["p95"] <= lat["p99"] <= lat["max"]
        assert 0.0 <= report.slo_attainment <= 1.0
        assert report.max_queue_depth >= 1
        assert report.mean_queue_depth > 0.0

    def test_timeline_and_chrome_trace(self):
        report = self._mixed_report()
        timeline = report.timeline()
        assert len(timeline) == len(report.batches)
        assert all(block.end_s > block.start_s for block in timeline)
        events = json.loads(report.to_chrome_trace())["traceEvents"]
        assert len(events) == len(report.batches)
        assert {e["ph"] for e in events} == {"X"}

    def test_format_mentions_the_essentials(self):
        text = self._mixed_report().format()
        for token in ("throughput", "P95", "SLO", "helr", "packbootstrap"):
            assert token in text

    def test_fingerprint_replays_bit_identical(self):
        first, second = self._mixed_report(), self._mixed_report()
        assert first.fingerprint() == second.fingerprint()

    def test_fingerprint_sensitive_to_schedule(self):
        base = self._mixed_report()
        other_server = _server(lanes=2, max_wait_s=2.0)
        phases = parse_workload_spec("helr:6:1.0,packbootstrap:4:0.5")
        other_server.submit_many(synthesize_arrivals(phases, seed=4))
        assert base.fingerprint() != other_server.drain().fingerprint()


class TestRealModel:
    def test_smoke_workload_on_the_neo_model(self):
        """Full stack: smoke workload on the analytic A100, shared cache."""
        server = Server(
            params="C", policy="bucketed", max_batch=16, max_wait_s=20.0, lanes=2
        )
        server.submit_many(
            synthesize_arrivals(parse_workload_spec("smoke"), seed=0)
        )
        report = server.drain()
        assert report.served == 20
        assert report.throughput_rps > 0.0
        assert all(r.finish_s > r.start_s >= r.request.arrival_s for r in report.records)
        # Replaying the same trace reuses every batch shape from the cache
        # and reproduces the schedule bit for bit.
        replay = server.drain()
        assert replay.cache.hits > report.cache.hits, (
            "replayed batch shapes must hit the shared trace cache"
        )
        assert replay.fingerprint() == report.fingerprint()

    @pytest.mark.parametrize("device", [H100, A100.hier()], ids=["h100", "a100-hier"])
    def test_kernel_spans_follow_the_device(self, device):
        """Span descriptors of one shape on two devices never alias: a
        model built after an A100 model in the same process gets the spans
        a fresh process computes for its own device."""
        clear_caches()
        fresh = NeoServiceModel("C", device=device).batch_spans("helr", 8, 4)
        clear_caches()
        a100 = NeoServiceModel("C", device=A100).batch_spans("helr", 8, 4)
        after = NeoServiceModel("C", device=device).batch_spans("helr", 8, 4)
        assert fresh != a100
        assert after == fresh
