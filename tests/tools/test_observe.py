"""End-to-end tests for the request-lifecycle observability layer."""

import itertools

import numpy as np
import pytest

from repro.core import Simulation
from repro.idl import compile_idl
from repro.tools import (
    RequestObserver,
    TraceSession,
    attach_meter,
    attach_metrics,
    attach_observer,
    attach_tracer,
    attach_tracing,
    detach_observer,
    validate_chrome_trace,
)
from repro.tools.observe import CLIENT_PHASES, SERVER_PHASES, Span

IDL = """
    typedef dsequence<double> vec;
    interface stats {
        double total(in vec xs);
        oneway void note(in long x);
    };
"""


@pytest.fixture(scope="module")
def mod():
    return compile_idl(IDL, module_name="observe_stubs")


def build_stats(mod, nprocs=2, requests=3):
    """A stats server and an SPMD client, not yet run."""
    sim = Simulation()

    def server_main(ctx):
        class Impl(mod.stats_skel):
            def total(self, xs):
                ctx.compute(1e-3)
                return float(np.sum(np.asarray(xs.owned_data)))

            def note(self, x):
                pass

        ctx.poa.activate(Impl(), "stats", kind="spmd")
        ctx.poa.impl_is_ready()

    # One server thread holds the whole sequence, so ``total`` is global;
    # two client threads still exercise the fragment paths.
    sim.server(server_main, host="HOST_2", nprocs=1, name="stats-server")
    out = {}

    def client_main(ctx):
        s = mod.stats._spmd_bind("stats")
        data = ctx.dseq(np.arange(16.0))
        s.note(7)
        out["totals"] = [s.total(data) for _ in range(requests)]

    sim.client(client_main, host="HOST_1", nprocs=nprocs, name="stats-client")
    return sim, out


def run_observed(mod, nprocs=2, requests=3):
    sim, out = build_stats(mod, nprocs, requests)
    obs = sim.attach_observer(label="t")
    sim.run()
    return sim, obs, out


class TestObserverEndToEnd:
    def test_every_lifecycle_phase_recorded(self, mod):
        _sim, obs, out = run_observed(mod)
        assert out["totals"] == [120.0] * 3
        phases = {s.phase for s in obs.spans}
        for phase in ("marshal", "send", "wait", "unmarshal",
                      "dispatch", "recv_args", "compute", "reply"):
            assert phase in phases, f"no {phase} span recorded"
        for s in obs.spans:
            assert s.t1 >= s.t0
            assert s.side in ("client", "server")

    def test_requests_tracked_to_completion(self, mod):
        _sim, obs, _out = run_observed(mod, requests=2)
        done = obs.completed_requests()
        ops = {op for (_r, _p, _rk, op, _lat) in done}
        assert "total" in ops and "note" in ops
        assert all(lat >= 0 for (*_x, lat) in done)
        # Every issued request reached a terminal state.
        assert all(rec[2] is not None for rec in obs.requests.values())
        statuses = {rec[3] for rec in obs.requests.values()}
        assert statuses <= {"ok", "oneway"}

    def test_breakdown_answers_where_time_went(self, mod):
        _sim, obs, _out = run_observed(mod, requests=1)
        req = next(r for (r, _p, _rk, op, _l) in obs.completed_requests()
                   if op == "total")
        breakdown = obs.request_breakdown(req)
        assert "wait" in breakdown and "compute" in breakdown
        # the servant charges 1 ms of virtual compute per call
        assert breakdown["compute"] >= 1e-3
        # the client's wait covers at least the server's compute
        assert breakdown["wait"] >= breakdown["compute"] / 2

    def test_byte_and_transfer_counters(self, mod):
        _sim, obs, _out = run_observed(mod)
        assert obs.cdr_bytes["encoded"] > 0
        assert obs.cdr_bytes["decoded"] > 0
        assert obs.transfer["schedules"] > 0
        assert obs.transfer["elements"] > 0
        assert len(obs.packet_trace) > 0
        assert obs.bytes_by_op().get("total", 0) > 0

    def test_chrome_trace_valid_and_complete(self, mod):
        _sim, obs, _out = run_observed(mod)
        trace = obs.chrome_trace()
        n = validate_chrome_trace(
            trace, require_phases=("marshal", "send", "wait", "unmarshal",
                                   "dispatch", "recv_args", "compute",
                                   "reply", "transport"))
        assert n == len(trace["traceEvents"])
        import json

        json.dumps(trace)  # must be serializable as-is

    def test_report_mentions_ops_and_percentiles(self, mod):
        _sim, obs, _out = run_observed(mod)
        text = obs.report()
        assert "total" in text
        assert "p50" in text and "p99" in text
        assert "requests:" in text
        assert "cdr streams:" in text

    def test_detach_clears_world_slots(self, mod):
        sim, obs, _out = run_observed(mod)
        assert sim.world.transport.meter is obs
        removed = detach_observer(sim.world)
        assert removed is obs
        assert "observer" not in sim.world.services
        assert sim.world.transport.meter is None
        assert obs.packet_trace not in sim.world.transport.observers
        assert obs._interceptor not in sim.orb.interceptors


class TestDisabledByDefault:
    def test_no_observer_without_attach(self, mod):
        sim = Simulation()
        assert "observer" not in sim.world.services
        assert sim.world.transport.observers == []
        assert sim.world.transport.meter is None

    def test_run_unobserved_records_nothing(self, mod):
        sim = Simulation()

        def server_main(ctx):
            class Impl(mod.stats_skel):
                def total(self, xs):
                    return 0.0

                def note(self, x):
                    pass

            ctx.poa.activate(Impl(), "stats", kind="spmd")
            ctx.poa.impl_is_ready()

        sim.server(server_main, host="HOST_2", nprocs=1)

        def client_main(ctx):
            s = mod.stats._spmd_bind("stats")
            s.total(ctx.dseq(np.arange(4.0)))

        sim.client(client_main, host="HOST_1", nprocs=1)
        sim.run()  # nothing to assert beyond: no observer, no crash


def _world_counts(obs, registry) -> dict:
    snap = registry.snapshot()
    return {
        "cdr_bytes": dict(obs.cdr_bytes),
        "transfer": dict(obs.transfer),
        "pardis_cdr_bytes_total": snap["pardis_cdr_bytes_total"]["samples"],
        "pardis_transfer_total": snap["pardis_transfer_total"]["samples"],
    }


class TestWorldScope:
    """Every counter belongs to the world it was attached to."""

    def test_counts_stay_in_their_world(self, mod):
        sim_a, _ = build_stats(mod)
        obs_a = attach_observer(sim_a.world, label="A")
        reg_a = attach_metrics(sim_a.world)
        sim_b, _ = build_stats(mod)
        obs_b = attach_observer(sim_b.world, label="B")
        reg_b = attach_metrics(sim_b.world)
        sim_a.run()  # only A runs

        sim_solo, _ = build_stats(mod)
        obs_solo = attach_observer(sim_solo.world)
        reg_solo = attach_metrics(sim_solo.world)
        sim_solo.run()

        got_a = _world_counts(obs_a, reg_a)
        assert got_a == _world_counts(obs_solo, reg_solo)
        assert got_a["cdr_bytes"]["encoded"] > 0
        assert got_a["transfer"]["schedules"] > 0
        got_b = _world_counts(obs_b, reg_b)
        assert set(got_b["cdr_bytes"].values()) == {0}
        assert set(got_b["transfer"].values()) == {0}
        for name in ("pardis_cdr_bytes_total", "pardis_transfer_total"):
            assert {s["value"] for s in got_b[name]} == {0}

        detach_observer(sim_b.world)
        assert sim_a.world.transport.meter is obs_a

    def test_attach_order_does_not_matter(self, mod):
        attachers = (
            lambda world: attach_observer(world, label="t"),
            attach_tracing,
            attach_metrics,
            attach_meter,
        )
        outputs = set()
        for order in itertools.permutations(attachers):
            sim, _ = build_stats(mod, requests=1)
            for attach in order:
                attach(sim.world)
            sim.run()
            services = sim.world.services
            outputs.add((services["metrics"].prometheus_text(),
                         services["observer"].report()))
        assert len(outputs) == 1
        prom, report = outputs.pop()
        assert "pardis_compute_busy_seconds" in prom
        assert "pardis_trace_events_total" in prom
        assert "compute utilization" in report

    def test_every_packet_observer_sees_every_packet(self, mod):
        sim, _ = build_stats(mod, requests=1)
        first = attach_tracer(sim.world.transport)
        second = attach_tracer(sim.world.transport)
        obs = attach_observer(sim.world)
        sim.run()
        sent = sim.world.transport.packets_sent
        assert sent > 0
        assert len(first) == len(second) == len(obs.packet_trace) == sent


class TestTraceSession:
    def test_merged_runs_get_distinct_pids(self):
        session = TraceSession()
        for i in range(2):
            obs = RequestObserver(label=f"run{i}")
            obs.span("marshal", "op", f"r{i}", "prog", 0, 0.0, 1e-6)
            session.runs.append(obs)
        trace = session.chrome_trace()
        validate_chrome_trace(trace, require_phases=("marshal",))
        pids = {ev["pid"] for ev in trace["traceEvents"]}
        assert len(pids) >= 2

    def test_write_and_reload(self, tmp_path):
        session = TraceSession()
        obs = RequestObserver()
        obs.span("compute", "op", "r", "prog", 0, 0.0, 2.0)
        session.runs.append(obs)
        path = tmp_path / "trace.json"
        session.write(str(path))
        import json

        reloaded = json.loads(path.read_text())
        assert validate_chrome_trace(reloaded,
                                     require_phases=("compute",)) > 0


class TestValidation:
    def test_rejects_malformed(self):
        with pytest.raises(ValueError, match="traceEvents"):
            validate_chrome_trace([])
        with pytest.raises(ValueError, match="missing"):
            validate_chrome_trace({"traceEvents": [{"ph": "X"}]})
        with pytest.raises(ValueError, match="dur"):
            validate_chrome_trace({"traceEvents": [
                {"name": "x", "ph": "X", "pid": 1, "ts": 0.0}]})
        with pytest.raises(ValueError, match="no spans"):
            validate_chrome_trace({"traceEvents": []},
                                  require_phases=("compute",))

    def test_phase_lists_cover_span_sites(self):
        assert set(CLIENT_PHASES) & set(SERVER_PHASES) == set()


# ---------------------------------------------------------------------------
# Bounded stores: the ring buffers shed oldest-first and count every loss
# ---------------------------------------------------------------------------


class TestBoundedStores:
    def test_span_ring_buffer_sheds_oldest(self):
        obs = RequestObserver(span_capacity=4)
        for i in range(10):
            obs.span("compute", "op", f"r{i}", "prog", 0, float(i), i + 0.5)
        assert len(obs.spans) == 4
        assert obs.spans.dropped == 6
        assert [s.req for s in obs.spans] == ["r6", "r7", "r8", "r9"]

    def test_request_store_bounded(self):
        obs = RequestObserver(span_capacity=3)
        for i in range(5):
            obs.request_started(f"r{i}", "op", "prog", 0, float(i))
        assert len(obs.requests) == 3
        assert obs.requests_dropped == 2
        # the survivors are the most recent three
        assert {req for (req, _p, _r) in obs.requests} == {"r2", "r3", "r4"}

    def test_packet_ring_buffer_counts_drops(self):
        from types import SimpleNamespace

        obs = RequestObserver(packet_capacity=2)
        for _ in range(5):
            obs.packet_trace(SimpleNamespace(
                send_time=0.0, arrival=1e-3, src="a:0", dst="b:0",
                tag=0, nbytes=8))
        assert len(obs.packet_trace) == 2
        assert obs.packet_trace.dropped == 3
        assert "3 oldest records dropped" in obs.packet_trace.summary()

    def test_report_surfaces_store_drops(self):
        obs = RequestObserver(span_capacity=2)
        for i in range(4):
            obs.span("compute", "op", f"r{i}", "prog", 0, 0.0, 1.0)
        assert "store drops: 2 spans" in obs.report()

    def test_report_surfaces_dead_letters(self):
        from types import SimpleNamespace

        obs = RequestObserver()
        obs.span("compute", "op", "r", "prog", 0, 0.0, 1.0)
        obs.orb = SimpleNamespace(dead_fragments=2, dead_result_fragments=1)
        assert ("dead-lettered: 2 argument fragments, 1 result fragments"
                in obs.report())

    def test_unbounded_when_capacity_is_none(self):
        obs = RequestObserver(span_capacity=None, packet_capacity=None)
        for i in range(100):
            obs.span("compute", "op", f"r{i}", "prog", 0, 0.0, 1.0)
            obs.request_started(f"r{i}", "op", "prog", 0, 0.0)
        assert len(obs.spans) == 100
        assert obs.spans.dropped == 0
        assert obs.requests_dropped == 0


# ---------------------------------------------------------------------------
# Stitched trees and cross-world flow arrows
# ---------------------------------------------------------------------------


def _annotated(obs, phase, req, program, rank, t0, t1, trace, span, parent,
               op="work"):
    obs.spans.append(Span(phase, op, req, program, rank, t0, t1, 0,
                          trace, span, parent))


class TestTraceTreeAndFlows:
    def test_trace_tree_renders_hops_and_rank_envelopes(self):
        obs = RequestObserver()
        _annotated(obs, "marshal", "1", "cli", 0, 0.0, 0.1, "t1", "c:1", "")
        _annotated(obs, "wait", "1", "cli", 1, 0.05, 0.4, "t1", "c:1", "")
        _annotated(obs, "dispatch", "1", "srv", 0, 0.2, 0.3, "t1", "s:1",
                   "c:1")
        tree = obs.trace_tree()
        assert tree.startswith("trace t1 — 2 node(s)")
        assert "client work @cli [ranks 0-1]" in tree
        assert "server work @srv [rank 0]" in tree
        assert "+0.200000s after parent" in tree

    def test_trace_tree_without_tracer_notes_absence(self):
        obs = RequestObserver()
        obs.span("compute", "op", "r", "prog", 0, 0.0, 1.0)
        assert "no annotated spans" in obs.trace_tree()

    def test_cross_world_edges_emit_matched_flow_events(self):
        obs = RequestObserver()
        _annotated(obs, "marshal", "1", "cli", 0, 0.0, 0.4, "t1", "c:1", "")
        _annotated(obs, "dispatch", "1", "srv", 0, 0.2, 0.3, "t1", "s:1",
                   "c:1")
        trace = obs.chrome_trace()
        flows = [ev for ev in trace["traceEvents"] if ev.get("cat") == "flow"]
        assert {ev["ph"] for ev in flows} == {"s", "f"}
        assert {ev["id"] for ev in flows} == {"s:1"}
        n = validate_chrome_trace(trace, require_flow_events=1)
        assert n == len(trace["traceEvents"])

    def test_same_program_nesting_emits_no_flow_arrows(self):
        obs = RequestObserver()
        _annotated(obs, "marshal", "1", "cli", 0, 0.0, 0.4, "t1", "c:1", "")
        _annotated(obs, "marshal", "2", "cli", 0, 0.1, 0.2, "t1", "c:2",
                   "c:1")
        trace = obs.chrome_trace()
        assert not [ev for ev in trace["traceEvents"]
                    if ev.get("cat") == "flow"]

    def test_validation_enforces_flow_event_floor(self):
        obs = RequestObserver()
        obs.span("compute", "op", "r", "prog", 0, 0.0, 1.0)
        with pytest.raises(ValueError, match="flow event"):
            validate_chrome_trace(obs.chrome_trace(), require_flow_events=1)

    def test_validation_rejects_unmatched_flow(self):
        trace = {"traceEvents": [
            {"name": "x", "ph": "X", "pid": 1, "ts": 0.0, "dur": 1.0},
            {"name": "trace", "cat": "flow", "ph": "s", "id": "a",
             "ts": 0.0, "pid": 1},
        ]}
        with pytest.raises(ValueError, match="unmatched flow"):
            validate_chrome_trace(trace)
