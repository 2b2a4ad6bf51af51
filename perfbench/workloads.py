"""The ledger's workloads, built on the public ``repro`` API only.

Every workload is a closed loop: each caller waits for its reply before
it issues the next request.  One *episode* builds fresh simulated worlds
and runs them to completion; run.py repeats episodes for the measured
time.  An episode returns its host timings, its call counts and a digest
of its virtual-time outputs; the inputs come from the seed alone, so every
episode of a run reproduces the same digest.

See NOTES.md for why each workload exists and which layers it loads.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import time
from dataclasses import dataclass, field

import numpy as np

from repro.cdr import PooledBuffer
from repro.core import OrbConfig, Simulation, TransientException
from repro.core.stubapi import ProxyBase
from repro.idl import compile_idl
from repro.netsim import ATM_155, Host, Network
from repro.services import AdmissionController, ThrottleInterceptor
from repro.tools import attach_metrics, attach_tracing, detach_observer, detach_tracing

_perf = time.perf_counter

#: workload parameters per size; ``tiny`` is for the self-test only
SIZES = {
    "full": {
        "overload": {"clients": 16, "requests": 120, "capacity": 4},
        "paper": {"fig2_sizes": (100, 200, 300),
                  "fig4_procs": (1, 2, 3, 4), "fig4_nseqs": 80,
                  "fig4_rounds": 8,
                  "fig5_procs": (1, 2, 4, 8), "fig5_steps": 20, "fig5_n": 32},
    },
    "tiny": {
        "overload": {"clients": 8, "requests": 6, "capacity": 2},
        "paper": {"fig2_sizes": (100, 200),
                  "fig4_procs": (2, 3, 4), "fig4_nseqs": 20,
                  "fig4_rounds": 2,
                  "fig5_procs": (1, 2), "fig5_steps": 5, "fig5_n": 16},
    },
}


@dataclass
class Episode:
    """What one episode measured and checked."""

    wall_s: float                 # host time of run() (paper: the sweeps)
    latencies_s: list             # host time of each timed blocking call
    attempted: int                # invocations issued
    failed: int                   # invocations that raised or gave up
    wire_bytes: int               # bytes the worlds' transports delivered
    digest: str                   # hash of the virtual-time outputs
    problems: list = field(default_factory=list)
    #: leases left on messages no thread received before teardown
    undelivered_leases: int = 0


def digest(*parts) -> str:
    """SHA-256 over floats (exact, via ``float.hex``), ints and strings."""
    h = hashlib.sha256()

    def feed(x):
        if isinstance(x, float):
            h.update(x.hex().encode())
        elif isinstance(x, (list, tuple)):
            h.update(b"[")
            for item in x:
                feed(item)
                h.update(b",")
            h.update(b"]")
        else:
            h.update(repr(x).encode())

    for part in parts:
        feed(part)
        h.update(b";")
    return h.hexdigest()


def run_simulation(sim: Simulation, problems: list) -> tuple[float, float, int]:
    """``sim.run()`` timed on the host; returns (end virtual time, wall s,
    undelivered leases) and appends any run-end invariant the world broke
    to ``problems``."""
    t0 = _perf()
    end = sim.run()
    wall = _perf() - t0
    return end, wall, check_world(sim, problems)


def undelivered_leases(transport) -> int:
    """Unreleased pooled payloads on messages still queued at an endpoint:
    sent, but never received before ``run()`` ended and retired the
    daemons.  Reads the transport's endpoint table and channel queues,
    which have no public accessor."""
    return sum(
        1
        for ep in transport._endpoints.values()
        for env in ep.channel._queue
        if isinstance(lease := getattr(env.payload.body, "payload", None),
                      PooledBuffer) and not lease.released)


def check_world(sim: Simulation, problems: list) -> int:
    """The buffer pool's lifetime rule (``repro.cdr.buffers``): whoever
    takes a fragment off the wire returns its lease.  So every lease still
    out after the run must ride a message nobody received; any other is a
    leak.  Returns the undelivered count."""
    transport = sim.world.transport
    leases = transport.buffer_pool.stats.outstanding
    undelivered = undelivered_leases(transport)
    if leases != undelivered:
        problems.append(f"{leases - undelivered} buffer-pool leases "
                        f"outstanding after run on received messages "
                        f"({undelivered} more on undelivered ones)")
    return undelivered


def _compile(idl: str, module_name: str):
    t0 = _perf()
    mod = compile_idl(idl, module_name=module_name)
    return mod, _perf() - t0


class Workload:
    name = ""

    def __init__(self, seed: int, size: str) -> None:
        self.seed = seed
        self.params = SIZES[size][self.name]
        #: host seconds spent in compile_idl during setup
        self.compile_s = 0.0

    def setup(self) -> None:
        """Compile the IDL and build the inputs (once per process)."""

    def episode(self) -> Episode:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# overload: admission control, shed path and observability tools
# ---------------------------------------------------------------------------

WORK_IDL = "interface work_service { long crunch(in long x); };"
#: virtual seconds of servant compute per request
SERVICE_TIME = 2e-3
#: tries per request before a client gives up on it (counted as failed)
MAX_TRIES = 64


class Overload(Workload):
    """16 closed-loop clients against one admission-controlled server,
    with the throttle, observer, tracing and metrics all attached.  A
    shed request is retried, behind the throttle's backoff, until it is
    served, so the shed path runs but no request fails."""

    name = "overload"

    def setup(self) -> None:
        self.stubs, self.compile_s = _compile(WORK_IDL, "perfbench_work")
        p = self.params
        rng = np.random.default_rng(self.seed)
        self.values = rng.integers(0, 2**30, size=(p["clients"],
                                                    p["requests"])).tolist()

    def episode(self) -> Episode:
        stubs, values, p = self.stubs, self.values, self.params
        problems: list = []
        host: list = []
        outcomes: dict = {}
        admission: list = []

        net = Network()
        net.add_host(Host("HOST_1", nodes=p["clients"], node_flops=5.2e6))
        net.add_host(Host("HOST_2", nodes=10, node_flops=6.6e6))
        net.connect("HOST_1", "HOST_2", ATM_155)
        sim = Simulation(network=net, config=OrbConfig(max_outstanding=1))
        sim.register_interceptor(ThrottleInterceptor(seed=7))
        sim.attach_observer(label="overload")
        attach_tracing(sim.world)
        registry = attach_metrics(sim.world)

        def server_main(ctx):
            class WorkImpl(stubs.work_service_skel):
                def crunch(self, x):
                    ctx.compute(SERVICE_TIME)
                    return x + 1

            ctx.poa.activate(WorkImpl(), "work", kind="spmd")
            adm = AdmissionController(capacity=p["capacity"], policy="fifo")
            admission.append(adm)
            ctx.poa.set_admission(adm)
            ctx.poa.impl_is_ready()

        def client_main(ctx):
            proxy = stubs.work_service._bind("work")
            mine = []
            wrong = 0
            for x in values[ctx.rank]:
                v0 = ctx.now()
                t0 = _perf()
                y = None
                for sheds in range(MAX_TRIES):
                    try:
                        y = proxy.crunch(x)
                        break
                    except TransientException:
                        pass
                else:
                    sheds = MAX_TRIES
                host.append(_perf() - t0)
                mine.append((sheds, ctx.now() - v0))
                wrong += y is not None and y != x + 1
            outcomes[ctx.rank] = mine
            if wrong:
                problems.append(f"overload rank {ctx.rank}: {wrong} wrong")

        sim.server(server_main, host="HOST_2", name="work-server")
        sim.client(client_main, host="HOST_1", nprocs=p["clients"],
                   name="load")
        try:
            end, wall, undelivered = run_simulation(sim, problems)
            exported = registry.prometheus_text()
        finally:
            detach_tracing(sim.world)
            detach_observer(sim.world)

        attempted = p["clients"] * p["requests"]
        calls = [sheds for rank in outcomes.values() for sheds, _ in rank]
        shed = sum(calls)
        failed = calls.count(MAX_TRIES)
        adm = admission[0]
        if adm.shed != shed or adm.served != attempted - failed:
            problems.append(f"admission counted {adm.served} served/"
                            f"{adm.shed} shed, clients saw {attempted - failed}"
                            f" served/{shed} shed")
        line = ('pardis_admission_requests_total{program="work-server",'
                f'outcome="shed"}} {shed}')
        if line not in exported.splitlines():
            problems.append("metrics export disagrees with the shed count")
        ordered = [outcomes[r] for r in sorted(outcomes)]
        return Episode(wall, host, attempted, failed,
                       sim.world.transport.bytes_sent,
                       digest(ordered, end, adm.max_depth), problems,
                       undelivered)


# ---------------------------------------------------------------------------
# paper: the reduced-scale figure sweeps
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def observe_paper_runs(latencies: list, counts: list, sims: list):
    """Time and count every stub call (a non-blocking one until it returns
    its future), count the ones that raise, and collect every Simulation
    the experiment modules build and run."""
    invoke, invoke_nb, run = ProxyBase._invoke, ProxyBase._invoke_nb, Simulation.run

    def timed(call):
        def stub_call(proxy, *args, **kwargs):
            counts[0] += 1
            t0 = _perf()
            try:
                return call(proxy, *args, **kwargs)
            except Exception:
                counts[1] += 1
                raise
            finally:
                latencies.append(_perf() - t0)

        return stub_call

    def collected_run(sim, *args, **kwargs):
        sims.append(sim)
        return run(sim, *args, **kwargs)

    ProxyBase._invoke, ProxyBase._invoke_nb = timed(invoke), timed(invoke_nb)
    Simulation.run = collected_run
    try:
        yield
    finally:
        ProxyBase._invoke, ProxyBase._invoke_nb = invoke, invoke_nb
        Simulation.run = run


class Paper(Workload):
    """``run_fig2``, ``run_fig4`` and ``run_fig5`` at reduced scale, then
    every ``validate.CLAIMS`` check on their rows.  The seed is unused:
    the figures take no generated inputs."""

    name = "paper"

    def setup(self) -> None:
        from repro.apps.interfaces import dna_stubs, pipeline_stubs, solver_stubs

        t0 = _perf()
        solver_stubs()
        dna_stubs()
        pipeline_stubs()
        self.compile_s = _perf() - t0

    def episode(self) -> Episode:
        from repro.experiments import validate
        from repro.experiments.fig2_solvers import run_fig2
        from repro.experiments.fig4_dna import run_fig4
        from repro.experiments.fig5_pipeline import run_fig5

        p = self.params
        problems: list = []
        host: list = []
        counts = [0, 0]
        sims: list = []
        with observe_paper_runs(host, counts, sims):
            t0 = _perf()
            data = {
                "fig2": run_fig2(sizes=p["fig2_sizes"]),
                "fig4": run_fig4(procs=p["fig4_procs"], n_seqs=p["fig4_nseqs"],
                                 rounds=p["fig4_rounds"]),
                "fig5": run_fig5(procs=p["fig5_procs"], steps=p["fig5_steps"],
                                 n=p["fig5_n"]),
            }
            wall = _perf() - t0
        undelivered = sum(check_world(sim, problems) for sim in sims)
        for claim in validate.CLAIMS:
            if not claim.check(data):
                problems.append(f"claim {claim.id} failed")
        rows = [[dataclasses.astuple(r) for r in data[fig]]
                for fig in ("fig2", "fig4", "fig5")]
        return Episode(wall, host, counts[0], counts[1],
                       sum(s.world.transport.bytes_sent for s in sims),
                       digest(rows), problems, undelivered)


WORKLOADS = {w.name: w for w in (Paper, Overload)}
