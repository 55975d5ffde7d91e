"""Schedule prices: memoised per shape, and the terms that explain them."""

import pytest

import repro.core.neo_context as neo_context
from repro.apps import get_application, standard_applications
from repro.baselines import CpuModel, HeonGpuModel, TensorFheModel
from repro.cli import OPS
from repro.core import NEO_CONFIG, NeoContext, TraceCache, profile_application
from repro.gpu import H100, price
from repro.serving import NeoServiceModel


@pytest.fixture()
def passes(monkeypatch):
    """Counts the pricing passes the memo runs."""
    calls = []

    def counted(trace, device, streams=8):
        calls.append((device, streams))
        return price(trace, device, streams)

    monkeypatch.setattr(neo_context, "price", counted)
    return calls


def _rebuilt(record, streams):
    """The overlapped time from the record's terms alone."""
    return min(
        record.serial_s,
        max(
            max(record.cuda_s, record.tcu_s, record.memory_s) + record.launch_s,
            record.serial_s / streams,
        ),
    )


class TestMemo:
    def test_second_application_time_runs_no_pass(self, passes):
        app = get_application("packbootstrap")
        ctx = NeoContext("C", config=NEO_CONFIG, trace_cache=TraceCache())
        first = ctx.application_time(app)
        assert len(passes) == 1
        assert ctx.application_time(app) == first
        assert len(passes) == 1

    def test_second_service_time_runs_no_pass(self, passes):
        model = NeoServiceModel("C")
        first = model.service_time_s("helr", 8, 4)
        assert len(passes) == 1
        assert model.service_time_s("helr", 8, 4) == first
        assert len(passes) == 1

    def test_uncached_context_reprices_every_call(self, passes):
        app = get_application("helr")
        ctx = NeoContext("C", config=NEO_CONFIG, trace_cache=TraceCache(maxsize=0))
        assert ctx.application_time(app) == ctx.application_time(app)
        assert len(passes) == 2

    def test_memo_equals_a_fresh_pass(self):
        app = get_application("resnet20")
        model = NeoServiceModel("C")
        ctx = NeoContext("C", config=NEO_CONFIG, batch=16, trace_cache=TraceCache())
        fresh = price(ctx.application_trace(app), ctx.device, 2)
        assert model.service_time_s("resnet20", 16, 2) == fresh.overlapped_s
        assert ctx.application_price(app, 2) == fresh

    def test_streams_batch_and_device_never_share_an_entry(self, passes):
        app = get_application("helr")
        cache = TraceCache()
        a100 = NeoContext("C", config=NEO_CONFIG, batch=8, trace_cache=cache)
        h100 = NeoContext("C", device=H100, config=NEO_CONFIG, batch=8, trace_cache=cache)
        shapes = [
            (a100, 2),
            (a100, 4),
            (a100.with_batch(16), 2),
            (h100, 2),
        ]
        records = [ctx.application_price(app, streams) for ctx, streams in shapes]
        assert len(passes) == len(shapes)
        for (ctx, streams), record in zip(shapes, records):
            assert record == price(ctx.application_trace(app), ctx.device, streams)
        assert len({r.overlapped_s for r in records}) == len(records)
        # and every shape is now one hit away
        for ctx, streams in shapes:
            ctx.application_price(app, streams)
        assert len(passes) == len(shapes)

    def test_schedule_key_drops_empty_cells_and_keeps_order(self, passes):
        ctx = NeoContext("C", config=NEO_CONFIG, trace_cache=TraceCache())
        base = {35: {"hmult": 2, "hrotate": 1}, 20: {"rescale": 1}}
        ctx.schedule_price(base)
        ctx.schedule_price({"35": {"hmult": 2, "padd": 0, "hrotate": 1}, 20: {"rescale": 1}})
        assert len(passes) == 1
        swapped = {35: {"hrotate": 1, "hmult": 2}, 20: {"rescale": 1}}
        assert ctx.schedule_price(swapped) == price(
            ctx.schedule_trace(swapped), ctx.device, ctx.config.streams
        )
        assert len(passes) == 2


class TestReconciliation:
    """Every Table 5 / Table 6 number ``repro table`` prints, rebuilt with
    ``==`` from its pricing record's terms."""

    TABLE5 = [
        CpuModel("H"),
        TensorFheModel("A"),
        TensorFheModel("B"),
        HeonGpuModel("E"),
        NeoContext("C", config=NEO_CONFIG),
        NeoContext("D", config=NEO_CONFIG),
    ]
    TABLE6 = TABLE5[1:5]

    @pytest.mark.parametrize("ctx", TABLE5, ids=repr)
    def test_table5(self, ctx):
        for app in standard_applications():
            record = ctx.application_price(app)
            rebuilt = _rebuilt(record, ctx.config.streams) / ctx.batch
            assert rebuilt == app.time_s(ctx)

    @pytest.mark.parametrize("ctx", TABLE6, ids=repr)
    def test_table6(self, ctx):
        for op in OPS:
            record = price(ctx.operation_trace(op, 35), ctx.device, ctx.config.streams)
            rebuilt = _rebuilt(record, ctx.config.streams) * 1e6 / ctx.batch
            assert rebuilt == ctx.operation_time_us(op, 35)


def test_profile_prints_the_record():
    ctx = NeoContext("C", config=NEO_CONFIG, trace_cache=TraceCache())
    app = get_application("helr")
    profile = profile_application(ctx, app)
    record = profile.price
    assert record == price(ctx.application_trace(app), ctx.device, ctx.config.streams)
    assert profile.total_s == record.overlapped_s
    assert profile.serial_s == record.serial_s
    line = next(
        line for line in profile.format().splitlines() if "binding" in line
    )
    assert line == (
        f"  binding            : {record.binding}  (cuda {record.cuda_s:.4f} s, "
        f"tcu {record.tcu_s:.4f} s, memory {record.memory_s:.4f} s, "
        f"launch {record.launch_s:.4f} s)"
    )
