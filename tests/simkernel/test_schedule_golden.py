"""Golden-schedule test: the kernel's exact resume order is pinned.

A mixed workload touches every way a simulated thread yields or is
woken: ``advance``, ``block``/``wake``, ``Channel.receive`` with and
without a deadline (one that expires, one that a message beats), the
four synchronization primitives, ``spawn`` from inside a thread, a
daemon server, and ``run(until=...)`` followed by ``run()``.  The
kernel's ``trace=`` lines, the threads' own notes, every thread's final
clock and the kernel's counters must equal ``schedule_golden.json``.

The golden file was recorded with the semaphore-handoff kernel that
predates direct handoff; a scheduler change that reorders anything fails
here.  Regenerate (only for an intended schedule change) with::

    PYTHONPATH=src python tests/simkernel/test_schedule_golden.py
"""

import json
from pathlib import Path

from repro.simkernel import (
    Channel,
    SimBarrier,
    SimCondition,
    SimKernel,
    SimLock,
    SimSemaphore,
)

GOLDEN = Path(__file__).with_name("schedule_golden.json")
UNTIL = 0.02


def run_workload() -> dict:
    log: list[str] = []
    k = SimKernel(trace=log.append)
    inbox, replies, late = Channel(k, "inbox"), Channel(k, "replies"), Channel(k, "late")
    lock = SimLock(k, "L")
    cond = SimCondition(lock)
    barrier = SimBarrier(k, 3, "B")
    sem = SimSemaphore(k, 1, "S")
    flag = {"ready": False}

    def note(msg: str) -> None:
        log.append(f"  {k.current().name}@{k.now():.6f} {msg}")

    def server():
        while True:
            env = inbox.receive(reason="serve")
            k.advance(0.002)
            replies.push(("re", env.payload), arrival=k.now() + 0.001)
            note(f"served {env.payload}")

    def client(i):
        k.advance(0.001 * (i + 1))
        inbox.push(i, arrival=k.now() + 0.0005)
        env = replies.receive(match=lambda e: e.payload[1] == i)
        note(f"got {env.payload}")
        miss = replies.receive(match=lambda e: False, deadline=k.now() + 0.003)
        note(f"deadline expired, got {miss}")
        sem.acquire()
        k.advance(0.0015)
        note("holds sem")
        sem.release()
        note(f"barrier generation {barrier.wait()}")

    def sleeper():
        k.block("until woken")
        note("woken")

    def waker(target):
        k.advance(0.004)
        k.wake(target, 0.006)
        note("woke sleeper")

    def waiter(tag):
        with lock:
            while not flag["ready"]:
                cond.wait()
            note(f"cond satisfied {tag}")
            k.advance(0.0005)

    def setter():
        k.advance(0.003)
        with lock:
            flag["ready"] = True
            cond.notify_all()
            note("notified")

    def child():
        env = late.receive(deadline=k.now() + 0.01)
        note(f"child got {env.payload}")

    def parent():
        k.advance(0.002)
        k.spawn(child, name="child")
        k.advance(0.001)
        late.push("hello", arrival=k.now() + 0.002)
        note("spawned and sent")

    def long_runner():
        for _ in range(6):
            k.advance(0.007)
            note("tick")

    k.spawn(server, name="server", daemon=True)
    for i in range(3):
        k.spawn(client, i, name=f"client{i}")
    sleeper_th = k.spawn(sleeper, name="sleeper")
    k.spawn(waker, sleeper_th, name="waker")
    k.spawn(waiter, "a", name="waiter-a")
    k.spawn(waiter, "b", name="waiter-b")
    k.spawn(setter, name="setter")
    k.spawn(parent, name="parent")
    k.spawn(long_runner, name="long", start_time=0.001)

    first = k.run(until=UNTIL)
    log.append(f"-- run(until={UNTIL}) returned {first:.6f}")
    second = k.run()
    log.append(f"-- run() returned {second:.6f}")
    return {
        "log": log,
        "now": {t.name: round(t.now, 9) for t in k.threads},
        "events_processed": k.events_processed,
        "context_switches": k.context_switches,
    }


def test_schedule_matches_golden():
    golden = json.loads(GOLDEN.read_text())
    assert run_workload() == golden


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(run_workload(), indent=1) + "\n")
