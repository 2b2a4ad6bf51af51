"""The unified metrics registry: families and labels, log-bucketed
histograms, exporter round-trips, and world attachment."""

import json
import math

import pytest

from repro.tools.registry import (
    MetricsRegistry,
    flatten_snapshot,
    parse_prometheus_text,
)


# ---------------------------------------------------------------------------
# Families and instruments
# ---------------------------------------------------------------------------


def test_counter_and_gauge_basics():
    reg = MetricsRegistry()
    c = reg.counter("pardis_things_total", "things seen", ["kind"])
    c.labels(kind="a").inc()
    c.labels(kind="a").inc(2)
    c.labels(kind="b").inc()
    g = reg.gauge("pardis_depth", "queue depth", ["q"])
    g.labels(q="main").set(7)
    snap = reg.snapshot()
    samples = {tuple(sorted(s["labels"].items())): s["value"]
               for s in snap["pardis_things_total"]["samples"]}
    assert samples[(("kind", "a"),)] == 3
    assert samples[(("kind", "b"),)] == 1
    assert snap["pardis_depth"]["samples"][0]["value"] == 7


def test_label_validation_and_reregistration():
    reg = MetricsRegistry()
    c = reg.counter("pardis_x_total", "x", ["kind"])
    with pytest.raises(ValueError):
        c.labels(wrong="a")  # unknown label name
    with pytest.raises(ValueError):
        c.labels()  # missing label
    # Same (kind, labelnames) re-registration returns the same family...
    assert reg.counter("pardis_x_total", "x", ["kind"]) is c
    # ... but a conflicting shape or kind is an error.
    with pytest.raises(ValueError):
        reg.counter("pardis_x_total", "x", ["other"])
    with pytest.raises(ValueError):
        reg.gauge("pardis_x_total", "x", ["kind"])


def test_labels_cache_children():
    reg = MetricsRegistry()
    c = reg.counter("pardis_y_total", "y", ["kind"])
    assert c.labels(kind="a") is c.labels(kind="a")


# ---------------------------------------------------------------------------
# Histograms
# ---------------------------------------------------------------------------


def test_histogram_log_buckets():
    reg = MetricsRegistry()
    h = reg.histogram("pardis_lat_seconds", "latency", ["op"],
                      start=1e-6, factor=4.0, nbuckets=4)
    child = h.labels(op="echo")
    # bounds: 1e-6, 4e-6, 16e-6, 64e-6
    for v in (5e-7, 2e-6, 2e-6, 1e-5, 1.0):
        child.observe(v)
    buckets = child.buckets()
    bounds = [b for b, _ in buckets[:-1]]
    assert bounds == pytest.approx([1e-6 * 4 ** i for i in range(4)])
    cum = [c for _, c in buckets]
    assert cum == [1, 3, 4, 4, 5]  # cumulative, then +Inf catches 1.0
    assert buckets[-1][0] == "+Inf"
    assert child.count == 5
    assert child.sum == pytest.approx(5e-7 + 2e-6 + 2e-6 + 1e-5 + 1.0)


def test_histogram_exposition_series():
    reg = MetricsRegistry()
    h = reg.histogram("pardis_lat_seconds", "latency", ["op"], nbuckets=3)
    h.labels(op="echo").observe(1e-5)
    text = reg.prometheus_text()
    assert "# TYPE pardis_lat_seconds histogram" in text
    assert 'pardis_lat_seconds_bucket{op="echo",le="+Inf"} 1' in text
    assert 'pardis_lat_seconds_count{op="echo"} 1' in text
    assert 'pardis_lat_seconds_sum{op="echo"}' in text
    # Buckets are cumulative and monotone in the exposition too.
    counts = [int(line.rsplit(" ", 1)[1])
              for line in text.splitlines()
              if line.startswith("pardis_lat_seconds_bucket")]
    assert counts == sorted(counts)


# ---------------------------------------------------------------------------
# Exporter round-trips
# ---------------------------------------------------------------------------


def _populated_registry():
    reg = MetricsRegistry()
    c = reg.counter("pardis_req_total", "requests", ["op", "status"])
    c.labels(op="solve", status="ok").inc(12)
    c.labels(op="solve", status="failed").inc()
    g = reg.gauge("pardis_pool_free", "free buffers", ["bucket"])
    g.labels(bucket="4096").set(3)
    h = reg.histogram("pardis_t_seconds", "timings", ["op"], nbuckets=5)
    for v in (1e-6, 3e-5, 0.25):
        h.labels(op="solve").observe(v)
    live = reg.gauge("pardis_live", "collected live", ["src"])
    reg.register_collector(lambda: live.labels(src="test").set(1))
    return reg


def test_prometheus_round_trip():
    reg = _populated_registry()
    assert parse_prometheus_text(reg.prometheus_text()) == \
        flatten_snapshot(reg.snapshot())


def test_prometheus_round_trip_with_extra_labels():
    reg = _populated_registry()
    text = reg.prometheus_text(extra_labels={"run": "fig5 p=2"})
    assert parse_prometheus_text(text) == \
        flatten_snapshot(reg.snapshot(), extra_labels={"run": "fig5 p=2"})


def test_prometheus_escapes_label_values():
    reg = MetricsRegistry()
    c = reg.counter("pardis_esc_total", "escapes", ["what"])
    c.labels(what='tricky "quoted" \\ back\nnewline').inc()
    parsed = parse_prometheus_text(reg.prometheus_text())
    assert parsed == flatten_snapshot(reg.snapshot())


def test_json_round_trip():
    reg = _populated_registry()
    assert json.loads(reg.to_json()) == reg.snapshot()
    assert json.loads(reg.to_json(indent=2)) == reg.snapshot()


def test_float_values_round_trip_exactly():
    reg = MetricsRegistry()
    g = reg.gauge("pardis_f", "floats", ["k"])
    for i, v in enumerate((0.1, 1 / 3, 1e-9, math.pi, 12345678.9)):
        g.labels(k=str(i)).set(v)
    assert parse_prometheus_text(reg.prometheus_text()) == \
        flatten_snapshot(reg.snapshot())


# ---------------------------------------------------------------------------
# World attachment
# ---------------------------------------------------------------------------


def test_attach_metrics_collects_all_layers():
    from repro.core import Simulation
    from repro.idl import compile_idl
    from repro.tools import attach_metrics, attach_observer, attach_tracing

    mod = compile_idl("interface m { long echo(in long x); };",
                      module_name="registry_attach_stubs")
    sim = Simulation()
    attach_observer(sim.world)
    attach_tracing(sim.world)
    reg = attach_metrics(sim.world)
    assert sim.world.services["metrics"] is reg

    def server_main(ctx):
        class Impl(mod.m_skel):
            def echo(self, x):
                return x

        ctx.poa.activate(Impl(), "m", kind="spmd")
        ctx.poa.impl_is_ready()

    sim.server(server_main, host="HOST_2", nprocs=1)

    def client(ctx):
        srv = mod.m._bind("m")
        for i in range(3):
            assert srv.echo(i) == i

    sim.client(client, host="HOST_1")
    sim.run()

    flat = parse_prometheus_text(reg.prometheus_text())
    assert flat['pardis_requests_total{kind="remote"}'] == 3
    assert 'pardis_dead_fragments_total{kind="arg"}' in flat
    assert 'pardis_dead_fragments_total{kind="result"}' in flat
    assert "pardis_transport_packets_total" in flat
    assert flat['pardis_trace_events_total{event="traces_started"}'] == 3
    # The observer's push-model histograms populated per-phase series.
    assert any(k.startswith("pardis_request_seconds_count") for k in flat)
    assert any(k.startswith("pardis_phase_seconds_count") for k in flat)


def test_attach_metrics_exports_kernel_events():
    from repro.runtime import World
    from repro.tools import attach_metrics

    world = World()
    reg = attach_metrics(world)
    k = world.kernel

    def body():
        for _ in range(3):
            k.advance(1.0)

    k.spawn(body)
    k.spawn(body)
    world.run()
    flat = parse_prometheus_text(reg.prometheus_text())
    assert flat['pardis_kernel_events_total{kind="resumed"}'] == \
        k.context_switches == 8
    assert flat['pardis_kernel_events_total{kind="handoff"}'] == \
        k.handoffs > 0

