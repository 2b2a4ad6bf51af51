"""Direct handoff: OS thread switches are counted, and every way ``run()``
regains control leaves the process as it found it.

``context_switches`` counts resumed events; ``handoffs`` counts the
resumes that had to wake a parked OS thread.  A thread whose own event is
next carries on without one.
"""

import random
import sys
import threading

import pytest

from repro.netsim import Address, Host, LinkProfile, Network, Transport
from repro.simkernel import (
    Channel,
    DeadlockError,
    SimKernel,
    SimThreadFailed,
)

# ---------------------------------------------------------------------------
# handoff counting
# ---------------------------------------------------------------------------


def test_lone_thread_advances_without_handoffs():
    k = SimKernel()

    def body():
        for _ in range(1000):
            k.advance(0.001)

    k.spawn(body)
    k.run()
    assert k.events_processed == 1001
    assert k.context_switches == 1001
    assert k.handoffs == 1          # run() starting the thread


def test_ping_pong_hands_off_on_every_event():
    k = SimKernel()
    ping, pong = Channel(k, "ping"), Channel(k, "pong")
    rounds = 50

    def a():
        for i in range(rounds):
            pong.push(i, arrival=k.now())
            ping.receive()

    def b():
        for _ in range(rounds):
            env = pong.receive()
            ping.push(env.payload, arrival=k.now())

    k.spawn(a, name="a")
    k.spawn(b, name="b")
    k.run()
    assert k.events_processed > 2 * rounds
    assert k.handoffs == k.events_processed


def test_send_while_earliest_adds_no_handoff():
    k = SimKernel()
    net = Network()
    net.add_host(Host("a", nodes=1))
    net.add_host(Host("b", nodes=1))
    net.connect("a", "b", LinkProfile("slow", latency=1e-3, bandwidth=1e6,
                                      cpu_overhead=1e-5))
    tp = Transport(k, net)
    src, dst = Address("a", 0), Address("b", 0)
    seen = {}

    def receiver():
        tp.open(dst).recv()

    def sender():
        ep = tp.open(src)
        k.advance(1e-4)     # the receiver is blocked by now
        before = (k.handoffs, k.events_processed)
        ep.send(dst, b"x" * 100)
        seen["delta"] = (k.handoffs - before[0], k.events_processed - before[1])

    k.spawn(receiver, name="receiver")
    k.spawn(sender, name="sender")
    k.run()
    # CPU overhead and injection are two yields, both to the sender itself.
    assert seen["delta"] == (0, 2)


def test_schedule_survives_a_tiny_gil_switch_interval():
    # The thread that releases the next one's lock must touch no kernel
    # state afterwards; forcing the interpreter to switch threads every
    # few bytecodes would expose a lost update or a reordered resume.
    nthreads, rounds = 16, 10

    def ring():
        k = SimKernel()
        chans = [Channel(k, f"c{i}") for i in range(nthreads)]
        log = []

        def body(me):
            rng = random.Random(me)
            for i in range(rounds):
                k.advance(rng.uniform(0.0, 1e-3))
                chans[(me + 1) % nthreads].push(
                    (me, i), arrival=k.now() + rng.uniform(0.0, 1e-3))
                env = chans[me].receive()
                log.append((me, env.payload, k.now()))

        for i in range(nthreads):
            k.spawn(body, i, name=f"r{i}")
        k.run()
        return log, k.events_processed, k.handoffs

    reference = ring()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        stressed = ring()
    finally:
        sys.setswitchinterval(interval)
    assert stressed == reference
    assert len(reference[0]) == nthreads * rounds


# ---------------------------------------------------------------------------
# run-end cleanliness on every hand-back path
# ---------------------------------------------------------------------------


@pytest.fixture
def no_stray_threads():
    baseline = threading.active_count()
    yield
    assert threading.active_count() == baseline


def test_failure_stops_before_the_next_event(no_stray_threads):
    k = SimKernel()
    log = []
    gate = Channel(k, "gate")

    def ready_peer():
        for _ in range(20):
            k.advance(0.001)
            log.append(("ready_peer", k.now()))

    def blocked_peer():
        gate.receive()
        log.append(("blocked_peer", k.now()))

    def same_time_peer():
        k.advance(0.005)      # scheduled after the failer at the same time
        log.append(("same_time_peer", k.now()))

    def failer():
        k.advance(0.005)
        gate.push("late", arrival=k.now())
        log.append(("failer", k.now()))
        raise RuntimeError("boom")

    k.spawn(ready_peer, name="ready_peer")
    k.spawn(blocked_peer, name="blocked_peer")
    k.spawn(failer, name="failer")
    k.spawn(same_time_peer, name="same_time_peer")
    with pytest.raises(SimThreadFailed) as ei:
        k.run()
    assert ei.value.thread_name == "failer"
    assert "failer" in str(ei.value)
    assert isinstance(ei.value.original, RuntimeError)
    assert log[-1] == ("failer", 0.005)
    assert all(t <= 0.005 for _, t in log)


def test_deadlock_tears_down(no_stray_threads):
    k = SimKernel()
    k.spawn(lambda: k.block("forever"), name="stuck-a")
    k.spawn(lambda: (k.advance(1.0), k.block("later")), name="stuck-b")
    k.spawn(lambda: k.block("serving"), name="daemon", daemon=True)
    with pytest.raises(DeadlockError) as ei:
        k.run()
    assert [t.name for t in ei.value.blocked] == ["stuck-a", "stuck-b"]


def test_only_daemons_left_ends_the_run(no_stray_threads):
    k = SimKernel()
    log = []

    def ticking_daemon():
        while True:
            k.advance(0.3)
            log.append(k.now())

    k.spawn(ticking_daemon, name="ticker", daemon=True)
    k.spawn(lambda: k.block("idle"), name="idle", daemon=True)
    k.spawn(lambda: k.advance(1.0), name="client")
    assert k.run() == 1.0
    assert log and max(log) <= 1.0


def test_run_until_then_run(no_stray_threads):
    k = SimKernel()
    log = []

    def body(step):
        for _ in range(5):
            k.advance(step)
            log.append(round(k.now(), 9))

    k.spawn(body, 1.0)
    k.spawn(body, 1.5)
    before = threading.active_count()
    assert k.run(until=3.2) == 3.2
    assert threading.active_count() == before      # parked, not finished
    assert max(log) <= 3.2
    assert k.run() == 7.5
    assert log == sorted(log) and len(log) == 10


def test_raising_trace_fails_the_thread_that_stepped(no_stray_threads):
    # A finishing thread pops the next event on its way out; an exception
    # there must reach run() rather than strand it waiting for a handback.
    def trace(line):
        if "resume b" in line:
            raise RuntimeError("trace failed")

    k = SimKernel(trace=trace)
    k.spawn(lambda: None, name="a")
    k.spawn(lambda: None, name="b")
    with pytest.raises(SimThreadFailed) as ei:
        k.run()
    assert ei.value.thread_name == "a"
    assert str(ei.value.original) == "trace failed"
