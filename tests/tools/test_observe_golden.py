"""Golden test for the observability feed: every record is pinned.

A small overload scenario runs with the whole observability stack on:
an admission-controlled server (capacity 1) sheds part of the load of
four closed-loop clients, which retry behind a ``ThrottleInterceptor``;
``attach_observer``, ``attach_tracing`` and ``attach_metrics`` are all
attached.  Every span (as a field tuple), every packet record, the
registry's Prometheus text and the tracer's counters must equal
``observe_golden.json``.  A change to how spans, packet records, labels
or trace contexts are built that alters any recorded value fails here.

Regenerate (only for an intended change of the recorded output) with::

    PYTHONPATH=src python tests/tools/test_observe_golden.py
"""

import json
from pathlib import Path

from repro.core import OrbConfig, Simulation, TransientException
from repro.idl import compile_idl
from repro.services import AdmissionController, ThrottleInterceptor
from repro.tools import (
    attach_metrics,
    attach_tracing,
    detach_observer,
    detach_tracing,
)

GOLDEN = Path(__file__).with_name("observe_golden.json")

IDL = """
    interface golden_svc {
        long crunch(in long x, in string tag);
        double scale(in double x);
    };
"""

SPAN_FIELDS = ("phase", "op", "req", "program", "rank", "t0", "t1",
               "nbytes", "trace_id", "span_id", "parent_id")
RECORD_FIELDS = ("send_time", "arrival", "src", "dst", "tag", "kind",
                 "nbytes")

CLIENTS = 4
REQUESTS = 4
MAX_TRIES = 32


def run_scenario() -> dict:
    mod = compile_idl(IDL, module_name="observe_golden_stubs")
    sim = Simulation(config=OrbConfig(max_outstanding=1))
    sim.register_interceptor(ThrottleInterceptor(seed=5))
    obs = sim.attach_observer(label="golden")
    tracer = attach_tracing(sim.world)
    registry = attach_metrics(sim.world)

    def server_main(ctx):
        class Impl(mod.golden_svc_skel):
            def crunch(self, x, tag):
                ctx.compute(1e-3)
                return x + len(tag)

            def scale(self, x):
                ctx.compute(2e-4)
                return 0.5 * x

        ctx.poa.activate(Impl(), "golden", kind="spmd")
        ctx.poa.set_admission(AdmissionController(capacity=1, policy="fifo"))
        ctx.poa.impl_is_ready()

    def client_main(ctx):
        proxy = mod.golden_svc._bind("golden")
        for i in range(REQUESTS):
            for call in (lambda: proxy.crunch(ctx.rank * 100 + i, "ab"),
                         lambda: proxy.scale(float(i) + 0.25)):
                for _ in range(MAX_TRIES):
                    try:
                        call()
                        break
                    except TransientException:
                        pass

    sim.server(server_main, host="HOST_2", name="golden-server")
    sim.client(client_main, host="HOST_1", nprocs=CLIENTS,
               name="golden-load")
    try:
        sim.run()
        return {
            "spans": [[getattr(s, f) for f in SPAN_FIELDS]
                      for s in obs.spans],
            "packets": [[getattr(r, f) for f in RECORD_FIELDS]
                        for r in obs.packet_trace.records],
            "prometheus": registry.prometheus_text(),
            "tracer_counters": dict(tracer.counters),
        }
    finally:
        detach_tracing(sim.world)
        detach_observer(sim.world)


def test_observability_output_matches_golden():
    got = json.loads(json.dumps(run_scenario()))
    want = json.loads(GOLDEN.read_text())
    # The scenario must exercise the shed path it was built for.
    shed = [line for line in want["prometheus"].splitlines()
            if 'outcome="shed"' in line]
    assert shed and not shed[0].endswith(" 0")
    assert got["tracer_counters"] == want["tracer_counters"]
    assert got["prometheus"] == want["prometheus"]
    assert len(got["packets"]) == len(want["packets"])
    assert got["packets"] == want["packets"]
    assert len(got["spans"]) == len(want["spans"])
    assert got["spans"] == want["spans"]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(run_scenario(), indent=1) + "\n")
