"""Fleet scheduler: key placement, routing invariants, determinism, export."""

import math
from collections import Counter

import pytest

from repro.ckks.params import get_set
from repro.gpu.multi_gpu import EXCHANGE_KERNELS
from repro.serving import (
    Fleet,
    KeyPlacementPlan,
    OverloadPolicy,
    Request,
    app_key_bytes,
    parse_workload_spec,
    plan_key_placement,
    synthesize_arrivals,
)
from repro.telemetry.registry import global_registry
from repro.telemetry.tracing import Tracer

PARAMS = get_set("C")


def smoke_requests(seed=0):
    return synthesize_arrivals(parse_workload_spec("smoke"), seed=seed)


@pytest.fixture
def registry_on():
    registry = global_registry()
    was_enabled = registry.enabled
    registry.enable()
    registry.reset()
    yield registry
    registry.reset()
    if not was_enabled:
        registry.disable()


class TestKeyPlacement:
    def test_replicate_places_everywhere(self):
        plan = plan_key_placement(["helr", "packbootstrap"], 4, PARAMS)
        assert plan.devices_for("helr") == (0, 1, 2, 3)
        assert plan.devices_for("packbootstrap") == (0, 1, 2, 3)

    def test_shard_partitions_the_key_sets(self):
        plan = plan_key_placement(
            ["helr", "packbootstrap"], 4, PARAMS, policy="shard"
        )
        # 4 groups / 2 apps -> each app resident on 2 disjoint groups.
        helr = set(plan.devices_for("helr"))
        boot = set(plan.devices_for("packbootstrap"))
        assert len(helr) == len(boot) == 2
        assert helr.isdisjoint(boot)
        assert helr | boot == {0, 1, 2, 3}

    def test_shard_lighter_than_replicate_per_group(self):
        apps = ["helr", "packbootstrap"]
        rep = plan_key_placement(apps, 4, PARAMS, policy="replicate")
        shard = plan_key_placement(apps, 4, PARAMS, policy="shard")
        for group in range(4):
            assert shard.group_key_bytes(group) < rep.group_key_bytes(group)

    def test_broadcast_bytes_count_extra_copies(self):
        apps = ["helr"]
        rep = plan_key_placement(apps, 4, PARAMS, policy="replicate")
        assert rep.broadcast_bytes() == 3 * app_key_bytes(PARAMS, "helr")
        # One copy -> nothing crosses the interconnect.
        shard = plan_key_placement(apps, 4, PARAMS, policy="shard")
        assert len(shard.devices_for("helr")) == 4  # 4 groups // 1 app
        single = plan_key_placement(apps, 1, PARAMS)
        assert single.broadcast_bytes() == 0

    def test_galois_count_drives_key_bytes(self):
        assert app_key_bytes(PARAMS, "packbootstrap") > app_key_bytes(
            PARAMS, "helr"
        )

    def test_unknown_app_and_policy_rejected(self):
        plan = plan_key_placement(["helr"], 2, PARAMS)
        with pytest.raises(ValueError, match="no key placement"):
            plan.devices_for("resnet20")
        with pytest.raises(ValueError, match="placement policy"):
            plan_key_placement(["helr"], 2, PARAMS, policy="scatter")


class TestRouting:
    def test_no_request_on_a_keyless_device(self):
        """The core residency invariant: under sharded placement every
        request lands on a group that holds its evaluation keys."""
        fleet = Fleet(gpus=4, placement="shard", max_wait_s=5.0)
        fleet.submit_many(smoke_requests())
        report = fleet.drain()
        assert isinstance(report.placement, KeyPlacementPlan)
        for device in report.devices:
            for record in device.report.records:
                assert device.gpu in report.placement.devices_for(
                    record.request.app
                )

    def test_replicate_spreads_load(self):
        fleet = Fleet(gpus=4, max_wait_s=5.0)
        fleet.submit_many(smoke_requests())
        report = fleet.drain()
        served = [d.report.served for d in report.devices]
        assert sum(served) == len(smoke_requests())
        assert all(count > 0 for count in served)

    def test_routing_is_deterministic(self):
        plans = []
        for _ in range(2):
            fleet = Fleet(gpus=4, max_wait_s=5.0)
            reqs = fleet.submit_many(smoke_requests())
            assert reqs == 20
            report = fleet.drain()
            plans.append(
                [sorted(r.request.rid for r in d.report.records)
                 for d in report.devices]
            )
        assert plans[0] == plans[1]


class TestDeterministicReplay:
    @pytest.mark.parametrize("gpus", [1, 2, 4, 8])
    def test_fingerprint_stable_across_replays(self, gpus):
        prints = []
        for _ in range(2):
            fleet = Fleet(gpus=gpus, max_wait_s=5.0)
            fleet.submit_many(smoke_requests(seed=3))
            prints.append(fleet.drain().fingerprint())
        assert prints[0] == prints[1]

    @pytest.mark.parametrize("gpus", [1, 2])
    def test_second_drain_repeats_the_first(self, gpus):
        fleet = Fleet(gpus=gpus, max_wait_s=5.0)
        submitted = fleet.submit_many(smoke_requests())
        first, second = fleet.drain(), fleet.drain()
        assert first.fingerprint() == second.fingerprint()
        for report in (first, second):
            assert report.served == report.offered == submitted

    def test_rejects_a_duplicate_rid(self):
        fleet = Fleet(gpus=2, max_wait_s=5.0)
        fleet.submit(Request(rid=5, app="helr"))
        with pytest.raises(ValueError, match="request id 5 was already submitted"):
            fleet.submit(Request(rid=5, app="packbootstrap"))
        assert fleet.drain().offered == 1

    def test_fingerprint_distinguishes_fleet_sizes(self):
        prints = set()
        for gpus in (1, 2, 4):
            fleet = Fleet(gpus=gpus, max_wait_s=5.0)
            fleet.submit_many(smoke_requests(seed=3))
            prints.add(fleet.drain().fingerprint())
        assert len(prints) == 3


class TestTensorParallel:
    def test_exchange_bytes_only_on_exchange_stages(self):
        fleet = Fleet(gpus=4, tensor_parallel=2, max_wait_s=5.0)
        fleet.submit_many(smoke_requests())
        report = fleet.drain()
        movers = {
            name for name, size in report.exchange_bytes_by_kernel.items()
            if size > 0
        }
        assert movers
        assert movers <= EXCHANGE_KERNELS
        assert report.exchange_bytes > 0

    def test_data_parallel_fleet_never_exchanges(self):
        fleet = Fleet(gpus=4, max_wait_s=5.0)
        fleet.submit_many(smoke_requests())
        report = fleet.drain()
        assert report.exchange_bytes == 0.0

    def test_tensor_parallel_shards_key_residency(self):
        single = Fleet(gpus=2, max_wait_s=5.0)
        single.submit_many(smoke_requests())
        ganged = Fleet(gpus=4, tensor_parallel=2, max_wait_s=5.0)
        ganged.submit_many(smoke_requests())
        per_gpu_single = single.drain().devices[0].hbm_key_bytes
        per_gpu_ganged = ganged.drain().devices[0].hbm_key_bytes
        assert per_gpu_ganged * 2 == pytest.approx(per_gpu_single, rel=1e-6)

    def test_tensor_parallel_must_divide_gpus(self):
        with pytest.raises(ValueError, match="divide"):
            Fleet(gpus=4, tensor_parallel=3)
        with pytest.raises(ValueError, match="tensor_parallel"):
            Fleet(gpus=4, tensor_parallel=0)

    def test_invalid_fleet_args(self):
        with pytest.raises(ValueError, match="GPU"):
            Fleet(gpus=0)
        with pytest.raises(ValueError, match="placement"):
            Fleet(gpus=2, placement="scatter")


class TestFleetReport:
    @pytest.fixture(scope="class")
    def report(self):
        fleet = Fleet(gpus=4, max_wait_s=5.0)
        fleet.submit_many(smoke_requests())
        return fleet.drain()

    def test_aggregates(self, report):
        assert report.served == 20
        assert report.makespan_s == max(
            d.report.makespan_s for d in report.devices
        )
        assert report.throughput_rps == pytest.approx(
            report.served / report.makespan_s
        )
        lat = report.latency_summary()
        assert lat["p50"] <= lat["p95"] <= lat["p99"] <= lat["max"]
        assert 0.0 <= report.slo_attainment <= 1.0

    def test_utilization_bounded(self, report):
        for device in report.devices:
            assert 0.0 < device.utilization <= 1.0
            assert 0.0 < device.hbm_fraction < 1.0

    def test_timeline_namespaces_devices(self, report):
        names = {block.name.split(":")[0] for block in report.timeline()}
        assert names == {f"gpu{d.gpu}" for d in report.devices if
                         d.report.batches}
        assert len(report.timeline()) == len(report.batches)

    def test_chrome_trace_exports(self, report):
        assert '"traceEvents"' in report.to_chrome_trace()

    def test_format_mentions_devices_and_traffic(self, report):
        text = report.format()
        assert "gpu0" in text and "gpu3" in text
        assert "key broadcast" in text
        assert "SLO" in text

    def test_ingress_accounts_every_ciphertext(self, report):
        assert report.ingress_bytes > 0
        assert report.interconnect_bytes == (
            report.exchange_bytes + report.key_broadcast_bytes
        )

    def test_records_merged_and_ordered(self, report):
        records = report.records
        assert len(records) == 20
        finishes = [r.finish_s for r in records]
        assert finishes == sorted(finishes)


#: Three tiers at 70 req/s for 10 s: a queue bound of 32 sheds and rejects.
TIERED = (
    "helr:300:30:1:0:premium,helr:200:20:1:0:standard,"
    "packbootstrap:200:20:1:0:batch"
)


@pytest.fixture(scope="module", params=[
    (1, 1, None), (4, 1, None), (4, 2, None),
    (4, 1, OverloadPolicy(queue_capacity=32)),
], ids=["1gpu", "4gpu", "4gpu-tp2", "4gpu-cap32"])
def tiered_report(request):
    gpus, tensor_parallel, overload = request.param
    fleet = Fleet(gpus=gpus, tensor_parallel=tensor_parallel,
                  overload=overload, max_wait_s=5.0)
    fleet.submit_many(synthesize_arrivals(parse_workload_spec(TIERED), seed=0))
    report = fleet.drain()
    assert report.devices and report.served
    if overload is not None:
        assert report.shed_count and report.rejected_count
    return report


class TestAggregatesAgainstGroups:
    """The fleet's inherited aggregates against the same figures recomputed
    from the group reports, one layout per fixture case."""

    def test_counts_match_the_groups(self, tiered_report):
        groups = [d.report for d in tiered_report.devices]
        assert tiered_report.served == sum(len(g.records) for g in groups)
        assert tiered_report.offered == sum(g.offered for g in groups)
        assert tiered_report.shed_count == sum(len(g.shed) for g in groups)
        assert tiered_report.rejected_count == sum(
            len(g.rejected) for g in groups
        )
        assert tiered_report.slo_violations == sum(
            not r.slo_met for g in groups for r in g.records
        )
        assert tiered_report.makespan_s == max(g.makespan_s for g in groups)

    def test_latency_percentiles_match_the_groups(self, tiered_report):
        latencies = sorted(
            r.latency_s for d in tiered_report.devices for r in d.report.records
        )
        lat = tiered_report.latency_summary()
        for q in (50, 95, 99):
            rank = math.ceil(q / 100 * len(latencies))
            assert lat[f"p{q}"] == latencies[rank - 1]
        assert lat["max"] == latencies[-1]

    def test_per_tier_columns_sum_to_the_fleet_counts(self, tiered_report):
        tiers = tiered_report.per_tier()
        assert set(tiers) == {"premium", "standard", "batch"}
        for column, total in (
            ("served", tiered_report.served),
            ("shed", tiered_report.shed_count),
            ("rejected", tiered_report.rejected_count),
            ("cancelled", tiered_report.cancelled_count),
        ):
            assert sum(t[column] for t in tiers.values()) == total

    def test_record_set_fields_are_merged(self, tiered_report):
        groups = [d.report for d in tiered_report.devices]
        assert tiered_report.records == sorted(
            (r for g in groups for r in g.records),
            key=lambda r: (r.finish_s, r.request.rid),
        )
        for name in ("batches", "shed", "rejected", "cancelled"):
            assert getattr(tiered_report, name) == [
                item for g in groups for item in getattr(g, name)
            ]
        assert tiered_report.max_queue_depth == max(
            g.max_queue_depth for g in groups
        )
        assert tiered_report.peak_pressure == max(
            g.peak_pressure for g in groups
        )
        assert tiered_report.mean_queue_depth == pytest.approx(
            sum(g.mean_queue_depth for g in groups) / len(groups)
        )
        ledger = Counter()
        for g in groups:
            ledger.update(g.admission)
        assert tiered_report.admission == dict(ledger)
        last = groups[-1]
        assert tiered_report.queue_capacity == last.queue_capacity
        assert tiered_report.cache == last.cache
        assert tiered_report.caches == last.caches
        assert tiered_report.tuned == last.tuned


class TestTelemetryExport:
    def test_metrics_families(self, registry_on):
        fleet = Fleet(gpus=2, max_wait_s=5.0)
        fleet.submit_many(smoke_requests())
        fleet.drain()
        names = set(registry_on.snapshot())
        assert {
            "fleet_requests_total",
            "fleet_device_utilization",
            "fleet_queue_depth_peak",
            "fleet_hbm_key_bytes",
            "fleet_throughput_rps",
            "fleet_slo_attainment",
            "fleet_makespan_seconds",
        } <= names

    def test_serving_gauges_describe_the_whole_fleet(self, registry_on):
        """Each group's drain sets the ``serving_*`` gauges; the fleet sets
        them again from its merged report, so the last group does not win."""
        fleet = Fleet(gpus=4)
        fleet.submit_many(
            synthesize_arrivals(parse_workload_spec("overload"), seed=0)
        )
        report = fleet.drain()
        snap = registry_on.snapshot()

        def gauge(name):
            (series,) = snap[name]["series"]
            return series["value"]

        assert gauge("serving_makespan_seconds") == gauge("fleet_makespan_seconds")
        assert gauge("serving_makespan_seconds") == report.makespan_s
        assert gauge("serving_queue_depth_peak") == report.max_queue_depth
        assert gauge("serving_queue_depth_mean") == report.mean_queue_depth
        assert gauge("serving_slo_attainment") == report.slo_attainment
        last = report.devices[-1].report
        assert last.makespan_s != report.makespan_s

    def test_queue_pressure_gauge_is_the_fleet_peak(self, registry_on):
        """Under an overload policy the pressure peak is the fleet's too:
        on this trace the last group peaks at 0.4025 and the fleet at 0.455."""
        fleet = Fleet(gpus=4, overload=OverloadPolicy(queue_capacity=400))
        fleet.submit_many(
            synthesize_arrivals(parse_workload_spec("overload"), seed=2)
        )
        report = fleet.drain()
        (series,) = registry_on.snapshot()["serving_queue_pressure_peak"]["series"]
        assert series["value"] == report.peak_pressure
        assert report.devices[-1].report.peak_pressure < report.peak_pressure

    def test_interconnect_counter_labelled_by_kernel(self, registry_on):
        fleet = Fleet(gpus=4, tensor_parallel=2, max_wait_s=5.0)
        fleet.submit_many(smoke_requests())
        fleet.drain()
        text = registry_on.to_prometheus_text()
        assert 'fleet_interconnect_bytes_total{kernel="bconv"}' in text
        assert 'kernel="modmul"' not in text

    def test_fleet_trace_spans(self):
        tracer = Tracer()
        fleet = Fleet(gpus=2, max_wait_s=5.0, tracer=tracer)
        fleet.submit_many(smoke_requests())
        fleet.drain()
        (root,) = tracer.span_tree("fleet")
        assert root.span.name == "fleet_drain"
        children = {c.span.name for c in root.children}
        assert children == {"gpu-0", "gpu-1"}
        # Per-request traces still come from the device servers.
        assert "req-0" in tracer.trace_ids()
