"""Span exports of serving drains are stable, and survive threads.

One scenario -- a ``mixed`` server drain, ``record_span`` and live
``span()`` calls, then a 4-GPU ``overload`` fleet drain, all on one
tracer -- is exported as JSONL and Chrome-trace JSON.
``tests/fixtures/golden_span_digests.json`` freezes the SHA-256 of both
exports; ``pytest --update-golden`` regenerates it.  Live spans read a
fake clock, so the bytes are stable.
"""

import hashlib
import itertools
import json
import os
import subprocess
import sys
import threading
from pathlib import Path
from types import SimpleNamespace

import pytest

import repro
from repro.serving import (
    Fleet,
    NeoServiceModel,
    Server,
    parse_workload_spec,
    synthesize_arrivals,
)
from repro.telemetry import tracing
from repro.telemetry.tracing import Tracer

FIXTURE = (
    Path(__file__).resolve().parent.parent / "fixtures" / "golden_span_digests.json"
)


def _fake_time():
    """A ``time`` stand-in whose clock ticks 0.0, 0.25, 0.5, ... per read."""
    return SimpleNamespace(perf_counter=itertools.count(0.0, 0.25).__next__)


def _arrivals(spec):
    return synthesize_arrivals(parse_workload_spec(spec), seed=0)


def _drain_mixed(tracer):
    server = Server(params="C", policy="bucketed", max_batch=64,
                    max_wait_s=30.0, lanes=2, tracer=tracer)
    server.submit_many(_arrivals("mixed"))
    server.drain()


def _drain_fleet(tracer):
    fleet = Fleet(gpus=4, tracer=tracer)
    fleet.submit_many(_arrivals("overload"))
    fleet.drain()


def _between_drains(tracer):
    tracer.record_span("marker", "between", 1.0, 2.5, category="test", step=1)
    with tracer.span("live.outer", category="test", step=2):
        with tracer.span("live.inner"):
            pass


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_exports_match_golden_digests(monkeypatch, update_golden):
    monkeypatch.setattr(tracing, "time", _fake_time())
    tracer = Tracer()
    _drain_mixed(tracer)
    _between_drains(tracer)
    _drain_fleet(tracer)
    payload = {
        "scenario": "mixed Server drain, record_span + live spans, "
                    "4-GPU overload Fleet drain; seed 0",
        "spans": len(tracer),
        "jsonl_sha256": _sha(tracer.to_jsonl()),
        "chrome_sha256": _sha(tracer.to_chrome_trace()),
    }
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if update_golden:
        FIXTURE.write_text(text)
        pytest.skip(f"regenerated {FIXTURE.name}")
    assert FIXTURE.exists(), (
        f"{FIXTURE} missing -- run `pytest --update-golden` once to create it"
    )
    assert FIXTURE.read_text() == text, (
        f"{FIXTURE.name} drifted; if the span change is intentional, "
        f"regenerate with `pytest --update-golden`"
    )


def test_threads_lose_no_span_and_share_no_id():
    """Live spans on 4 threads while drains record spans and a reader
    keeps copying the span list."""
    model = NeoServiceModel("C")
    requests = _arrivals("smoke")
    expected = Tracer()
    server = Server(model=model, tracer=expected)
    server.submit_many(requests)
    server.drain()
    per_drain = len(expected)

    tracer = Tracer()
    stop = threading.Event()
    opened = []

    def live():
        count = 0
        while not stop.is_set():
            with tracer.span("live", category="test"):
                count += 1
        opened.append(count)

    def read():
        while not stop.is_set():
            tracer.spans

    threads = [threading.Thread(target=live, daemon=True) for _ in range(4)]
    threads.append(threading.Thread(target=read, daemon=True))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    rounds = 3
    try:
        for thread in threads:
            thread.start()
        for _ in range(rounds):
            server = Server(model=model, tracer=tracer)
            server.submit_many(requests)
            server.drain()
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=60)
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(opened) == 4
    spans = tracer.spans
    ids = [s.span_id for s in spans]
    assert len(ids) == len(set(ids))
    assert len(spans) == rounds * per_drain + sum(opened)
    assert sum(s.name == "request" for s in spans) == rounds * len(requests)


def test_import_leaves_asyncio_unloaded():
    """``repro.serving`` loads its asyncio front end on first use only."""
    src = str(Path(repro.__file__).resolve().parents[1])
    code = (
        "import sys\n"
        "import repro.serving\n"
        "assert 'asyncio' not in sys.modules, 'asyncio imported eagerly'\n"
        "from repro.serving import AsyncFrontEnd\n"
        "assert 'asyncio' in sys.modules\n"
        "namespace = {}\n"
        "exec('from repro.serving import *', namespace)\n"
        "assert set(repro.serving.__all__) <= set(namespace)\n"
        "assert namespace['AsyncFrontEnd'] is AsyncFrontEnd\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": src}, timeout=120)
