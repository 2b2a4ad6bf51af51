"""Per-layer self-time tracer for the perf ledger.

The benchmark measures the ``repro`` package from the outside: it adds no
span to the program.  :class:`LayerTracer` replaces the public entry
points of each layer (module functions, class methods, servant methods)
with wrappers that record one span per call.

* Spans live on a per-OS-thread stack and are folded into per-thread
  accumulators as they close, so recording takes no lock.  The
  accumulators stay in memory and are summed when the benchmark reports.
* A span's *self* time is its duration minus the time its child spans
  cover.  Kernel yields (``SimKernel.advance``/``block``) are spans too,
  so no layer is charged for host time another simulated thread ran.
* A call counts once per layer: a span nested directly in a span of the
  same layer (``CdrEncoder.encode`` recursing into a struct, ``allreduce``
  calling ``bcast``) adds self time but no count and no bytes.
* ``handoff``: host time of ``Simulation.run()`` that was spent inside no
  simulated thread's own code, i.e. in the scheduler and OS thread
  handoffs.  It is the run time minus, over every simulated thread, the
  thread's lifetime minus its yields.

Install the tracer only after the untraced measurement: the wrappers stay
in place for the life of the process.
"""

from __future__ import annotations

import sys
import threading
import time

_perf = time.perf_counter

#: accumulator slots of one layer
COUNT, SELF_S, TOTAL_S, NBYTES = range(4)

LAYERS = (
    "run",              # Simulation.run (main thread)
    "thread",           # a simulated thread's own code, outside all layers
    "kernel.wait",      # SimKernel.advance / block: yields to the scheduler
    "netsim.send",      # Transport.send
    "cdr.encode",       # cdr.encode, CdrEncoder.encode, encode_bulk_payload
    "cdr.decode",       # cdr.decode, CdrDecoder.decode, decode_bulk_payload
    "courier",          # FragmentCourier send/receive/expected
    "courier.insert",   # FragmentCourier.insert_fragment: one per fragment
    "icept.point",      # InterceptorChain interception points
    "icept.span",       # InterceptorChain span fan-out
    "invoke",           # core.invocation.invoke
    "poa.dispatch",     # ServerRequestState.run
    "transfer.schedule",  # core.transfer.cached_schedule
    "collectives",      # runtime.collectives.*
    "admission",        # AdmissionController.offer / pop
    "tools",            # observer, packet-trace and tracing hooks
    "servant",          # servant operation methods
)
_INDEX = {name: i for i, name in enumerate(LAYERS)}


class _ThreadAcc:
    __slots__ = ("stack", "acc")

    def __init__(self) -> None:
        self.stack: list = []
        self.acc = [[0, 0.0, 0.0, 0] for _ in LAYERS]


class LayerTracer:
    """Wraps the layer entry points and accumulates spans per thread."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._threads: list[_ThreadAcc] = []
        #: every Simulation whose run() finished while the tracer was on
        self.simulations: list = []
        self.admitted = 0
        self.shed = 0

    # -- recording -----------------------------------------------------------

    def _state(self) -> _ThreadAcc:
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = _ThreadAcc()
            self._threads.append(st)
        return st

    def wrap(self, fn, layer: str, nbytes=None, position=None):
        """A span-recording wrapper around ``fn``.

        ``nbytes(args, result)`` or ``position(args)`` (a stream offset
        read before and after the call) give the bytes an outermost call
        moved."""
        idx = _INDEX[layer]
        state = self._state

        def span(*args, **kwargs):
            st = state()
            stack = st.stack
            parent = stack[-1] if stack else None
            frame = [idx, 0.0]
            stack.append(frame)
            p0 = position(args) if position is not None else 0
            t0 = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = _perf() - t0
                stack.pop()
                if parent is not None:
                    parent[1] += dt
                acc = st.acc[idx]
                acc[SELF_S] += dt - frame[1]
                acc[TOTAL_S] += dt
                outermost = parent is None or parent[0] != idx
                if outermost:
                    acc[COUNT] += 1
            if outermost:
                if nbytes is not None:
                    acc[NBYTES] += nbytes(args, result)
                elif position is not None:
                    acc[NBYTES] += abs(position(args) - p0)
            return result

        return span

    # -- installation --------------------------------------------------------

    def _function(self, module, name: str, layer: str, **kw) -> None:
        """Wrap a module-level function everywhere ``repro`` imported it."""
        orig = getattr(module, name)
        wrapped = self.wrap(orig, layer, **kw)
        for modname, mod in list(sys.modules.items()):
            if not modname.startswith("repro") or mod is None:
                continue
            ns = vars(mod)
            for key, value in list(ns.items()):
                if value is orig:
                    ns[key] = wrapped

    def _method(self, cls, name: str, layer: str, **kw) -> None:
        raw = cls.__dict__[name]
        if isinstance(raw, staticmethod):
            setattr(cls, name, staticmethod(self.wrap(raw.__func__, layer, **kw)))
        else:
            setattr(cls, name, self.wrap(raw, layer, **kw))

    def install(self) -> "LayerTracer":
        from repro import cdr
        from repro.cdr import decoder as cdr_decoder
        from repro.cdr import encoder as cdr_encoder
        from repro.core import Simulation, invocation, poa, transfer
        from repro.core.pipeline.courier import FragmentCourier
        from repro.core.pipeline.interceptors import InterceptorChain
        from repro.core.pipeline.state import ServerRequestState
        from repro.netsim.transport import Transport
        from repro.runtime import collectives
        from repro.services.admission import AdmissionController
        from repro.simkernel import SimKernel
        from repro.tools.observe import ObserverInterceptor, RequestObserver
        from repro.tools.trace import PacketTrace
        from repro.tools.tracing import TracingInterceptor

        # simulated threads: a root span per thread, yields as spans
        tracer = self
        spawn = SimKernel.spawn

        def traced_spawn(kernel, fn, *args, **kwargs):
            return spawn(kernel, tracer.wrap(fn, "thread"), *args, **kwargs)

        SimKernel.spawn = traced_spawn
        self._method(SimKernel, "advance", "kernel.wait")
        self._method(SimKernel, "block", "kernel.wait")

        run = Simulation.run

        def traced_run(sim, *args, **kwargs):
            try:
                return run(sim, *args, **kwargs)
            finally:
                tracer.simulations.append(sim)

        Simulation.run = self.wrap(traced_run, "run")

        self._method(Transport, "send", "netsim.send",
                     nbytes=lambda args, pkt: pkt.nbytes)

        self._function(cdr_encoder, "encode", "cdr.encode",
                       nbytes=lambda args, out: len(out))
        self._method(cdr.CdrEncoder, "encode", "cdr.encode",
                     position=lambda args: len(args[0]))
        self._function(cdr_encoder, "encode_bulk_payload", "cdr.encode",
                       nbytes=lambda args, out: len(out))
        self._function(cdr_decoder, "decode", "cdr.decode",
                       nbytes=lambda args, out: len(args[1]))
        self._method(cdr.CdrDecoder, "decode", "cdr.decode",
                     position=lambda args: args[0].remaining)
        self._function(cdr_decoder, "decode_bulk_payload", "cdr.decode",
                       nbytes=lambda args, out: len(args[1]))

        for name in ("send_fragments", "receive_fragments",
                     "expected_fragments"):
            self._method(FragmentCourier, name, "courier")
        self._method(FragmentCourier, "insert_fragment", "courier.insert")

        for name in ("send_request", "receive_reply", "receive_exception",
                     "receive_request", "send_reply", "finish_request"):
            self._method(InterceptorChain, name, "icept.point")
        for name in ("span", "request_started", "request_finished"):
            self._method(InterceptorChain, name, "icept.span")

        self._function(invocation, "invoke", "invoke")
        self._method(ServerRequestState, "run", "poa.dispatch")
        self._function(transfer, "cached_schedule", "transfer.schedule")
        for name in ("bcast", "gather", "scatter", "allgather", "reduce",
                     "allreduce", "alltoall", "barrier"):
            self._function(collectives, name, "collectives")

        offer = AdmissionController.offer

        def counted_offer(adm, hdr, now):
            ok = offer(adm, hdr, now)
            if ok:
                tracer.admitted += 1
            else:
                tracer.shed += 1
            return ok

        AdmissionController.offer = self.wrap(counted_offer, "admission")
        self._method(AdmissionController, "pop", "admission")

        for name in ("on_span", "on_request_started", "on_request_finished"):
            self._method(ObserverInterceptor, name, "tools")
        for name in ("on_encode", "on_decode", "on_schedule"):
            self._method(RequestObserver, name, "tools")
        self._method(PacketTrace, "__call__", "tools")
        for name in ("send_request", "receive_reply", "receive_exception",
                     "receive_request", "send_reply", "finish_request"):
            self._method(TracingInterceptor, name, "tools")

        activate = poa.POA.activate

        def traced_activate(the_poa, servant, *args, **kwargs):
            for op in servant._interface.ops:
                method = getattr(servant, op, None)
                if callable(method):
                    setattr(servant, op, tracer.wrap(method, "servant"))
            return activate(the_poa, servant, *args, **kwargs)

        poa.POA.activate = traced_activate
        return self

    # -- reporting -----------------------------------------------------------

    def snapshot(self) -> dict:
        """Totals over every thread so far, plus the finished runs' kernel
        and transport counters."""
        totals = {name: [0, 0.0, 0.0, 0] for name in LAYERS}
        for st in list(self._threads):
            for name, acc in zip(LAYERS, st.acc):
                tot = totals[name]
                for i in range(4):
                    tot[i] += acc[i]
        switches = threads = fast = fallback = 0
        for sim in self.simulations:
            switches += sim.kernel.context_switches
            threads += len(sim.kernel.threads)
            stats = sim.world.transport.buffer_pool.stats
            fast += stats.fast_encodes
            fallback += stats.fallback_encodes
        return {"layers": totals, "switches": switches, "threads": threads,
                "fast_encodes": fast, "fallback_encodes": fallback,
                "admitted": self.admitted, "shed": self.shed}


def delta(after: dict, before: dict) -> dict:
    """``after - before`` of two :meth:`LayerTracer.snapshot` results."""
    out = {key: after[key] - before[key] for key in after if key != "layers"}
    out["layers"] = {
        name: [a - b for a, b in zip(after["layers"][name],
                                     before["layers"][name])]
        for name in LAYERS
    }
    return out


def counts(d: dict) -> dict:
    """The deterministic part of a snapshot delta: every count, no time."""
    out = {key: value for key, value in d.items() if key != "layers"}
    for name, acc in d["layers"].items():
        out[f"{name}.count"] = acc[COUNT]
        out[f"{name}.bytes"] = acc[NBYTES]
    return out


def layer_metrics(d: dict, compile_s: float, overhead_pct: float) -> dict:
    """The ledger's per-layer metrics, as ``name -> (value, unit)``, from
    a snapshot delta over ``d["episodes"]`` traced episodes.  Counts are
    per episode; times are per call, per byte or per switch."""
    n = d["episodes"]
    L = d["layers"]

    def per(total: float, count: int, scale: float = 1e6) -> float:
        return total / count * scale if count else 0.0

    calls = L["invoke"][COUNT]
    switches = d["switches"]
    active = L["thread"][TOTAL_S] - L["kernel.wait"][TOTAL_S]
    handoff = max(L["run"][TOTAL_S] - active, 0.0)
    enc, dec = L["cdr.encode"], L["cdr.decode"]
    fragments = L["courier.insert"][COUNT]
    courier_self = L["courier"][SELF_S] + L["courier.insert"][SELF_S]
    icept_self = L["icept.point"][SELF_S] + L["icept.span"][SELF_S]
    bulk = d["fast_encodes"] + d["fallback_encodes"]
    return {
        "simkernel.switches": (switches // n, "count"),
        "simkernel.switches_per_call": (per(switches, calls, 1.0), "count"),
        "simkernel.threads": (d["threads"] // n, "count"),
        "simkernel.handoff_us": (per(handoff, switches), "us"),
        "netsim.sends": (L["netsim.send"][COUNT] // n, "count"),
        "netsim.bytes": (L["netsim.send"][NBYTES] // n, "B"),
        "netsim.send_us": (per(L["netsim.send"][SELF_S],
                               L["netsim.send"][COUNT]), "us"),
        "cdr.encode_calls": (enc[COUNT] // n, "count"),
        "cdr.decode_calls": (dec[COUNT] // n, "count"),
        "cdr.bytes": ((enc[NBYTES] + dec[NBYTES]) // n, "B"),
        "cdr.encode_ns_per_byte": (per(enc[SELF_S], enc[NBYTES], 1e9), "ns/B"),
        "cdr.decode_ns_per_byte": (per(dec[SELF_S], dec[NBYTES], 1e9), "ns/B"),
        "cdr.bulk_share": (d["fast_encodes"] / bulk if bulk else 0.0, "ratio"),
        "core.pipeline.courier.fragments": (fragments // n, "count"),
        "core.pipeline.courier.fragment_us": (per(courier_self, fragments), "us"),
        "core.transfer.schedule_us": (
            per(L["transfer.schedule"][SELF_S],
                L["transfer.schedule"][COUNT]), "us"),
        "core.pipeline.interceptors.points": (
            L["icept.point"][COUNT] // n, "count"),
        "core.pipeline.interceptors.us_per_call": (per(icept_self, calls), "us"),
        "core.invocation.client_us": (per(L["invoke"][SELF_S], calls), "us"),
        "core.poa.dispatch_us": (per(L["poa.dispatch"][SELF_S],
                                     L["poa.dispatch"][COUNT]), "us"),
        "runtime.collectives": (L["collectives"][COUNT] // n, "count"),
        "runtime.collective_us": (per(L["collectives"][SELF_S],
                                      L["collectives"][COUNT]), "us"),
        "services.admitted": (d["admitted"] // n, "count"),
        "services.shed": (d["shed"] // n, "count"),
        "services.admission_us": (per(L["admission"][SELF_S],
                                      L["admission"][COUNT]), "us"),
        "tools.hook_us_per_call": (per(L["tools"][SELF_S], calls), "us"),
        "servant.us": (per(L["servant"][SELF_S], L["servant"][COUNT]), "us"),
        "idl.compile_s": (compile_s, "s"),
        "trace.overhead_pct": (overhead_pct, "%"),
    }
