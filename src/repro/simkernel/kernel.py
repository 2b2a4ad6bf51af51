"""Deterministic cooperative virtual-time kernel.

Every "computing thread" of a PARDIS client or server runs on a
:class:`SimThread`: a real OS thread, of which exactly one runs at any
moment.  Real Python/numpy code executes normally (and instantaneously in
virtual time); simulated durations are charged explicitly with
:meth:`SimKernel.advance`.

Scheduling is a textbook discrete-event loop: the runnable thread with the
earliest ``(wake time, insertion seq)`` runs until it yields by advancing
time, blocking, or finishing.  Because exactly one thread runs at a time
and ties break deterministically, a simulation is reproducible bit-for-bit
— the property every test and benchmark in this repository leans on.

Handoff is direct: the yielding thread runs the scheduler step itself.
It pops the next event; if the event is its own it simply carries on,
otherwise it releases that thread's handoff lock and parks on its own —
one OS switch per resume.  Control returns to :meth:`SimKernel.run` only
when the loop must decide: no non-daemon thread is live, a thread failed,
the queue is empty, or the next event lies past ``until``.
"""

from __future__ import annotations

import enum
import threading
from typing import Any, Callable, Optional

from .errors import DeadlockError, NotInSimThread, SimError, SimKilled, SimThreadFailed
from .events import EventQueue

_current = threading.local()


class ThreadState(enum.Enum):
    NEW = "new"
    READY = "ready"        # has a wake event in the queue
    RUNNING = "running"
    BLOCKED = "blocked"    # waiting to be woken by another thread
    DONE = "done"
    FAILED = "failed"


_FINISHED = (ThreadState.DONE, ThreadState.FAILED)


class SimThread:
    """A simulated computing thread with its own virtual clock.

    ``now`` is the thread's local virtual time; it only moves forward, via
    :meth:`SimKernel.advance` or by being woken at a later time (e.g. when
    a message addressed to it arrives).

    The thread parks on ``_go``, a lock held from creation: whoever pops
    the thread's next event — the thread that yielded, or :meth:`SimKernel.run`
    — releases it, and the thread takes it again to run.  Releasing an
    unheld lock raises, so a double resume is an error, not a lost wake-up.
    """

    __slots__ = (
        "kernel", "name", "fn", "args", "kwargs", "daemon", "now", "state",
        "wait_reason", "result", "exc", "_go", "_os_thread", "_kill",
        "locals", "_wake_event",
    )

    def __init__(self, kernel: "SimKernel", fn: Callable, args, kwargs,
                 name: str, start_time: float, daemon: bool) -> None:
        self.kernel = kernel
        self.name = name
        self.fn = fn
        self.args = args
        self.kwargs = kwargs
        self.daemon = daemon
        self.now = float(start_time)
        self.state = ThreadState.NEW
        self.wait_reason: Optional[str] = None
        self.result: Any = None
        self.exc: Optional[BaseException] = None
        self._go = threading.Lock()
        self._go.acquire()
        self._kill = False
        self._wake_event = None
        self.locals: dict[str, Any] = {}   # scratch space for upper layers
        self._os_thread = threading.Thread(
            target=self._main, name=f"sim:{name}", daemon=True
        )

    # -- lifecycle ---------------------------------------------------------

    def _main(self) -> None:
        _current.thread = self
        try:
            self._park()
            self.result = self.fn(*self.args, **self.kwargs)
            self.state = ThreadState.DONE
        except SimKilled:
            self.state = ThreadState.DONE
            return
        except BaseException as exc:  # noqa: BLE001 - reported to kernel.run
            self.exc = exc
            self.state = ThreadState.FAILED
        self.kernel._exit(self)

    def _park(self) -> None:
        """Wait until resumed; raises :class:`SimKilled` on teardown."""
        self._go.acquire()
        if self._kill:
            raise SimKilled()
        self.state = ThreadState.RUNNING

    def __repr__(self) -> str:
        return f"<SimThread {self.name} t={self.now:.6f} {self.state.value}>"


class SimKernel:
    """Discrete-event scheduler for :class:`SimThread` objects.

    ``context_switches`` (equal to ``events_processed``) counts resumed
    events; ``handoffs`` counts the resumes that released a parked
    thread's lock, i.e. real OS thread switches.  A thread whose own event
    is next continues without one.
    """

    def __init__(self, trace: Callable[[str], None] | None = None) -> None:
        self._events = EventQueue()
        self._threads: list[SimThread] = []
        self._handback = threading.Lock()   # released to wake run()
        self._handback.acquire()
        self._running = False
        self._finished = False
        self._live = 0                      # non-daemon threads not finished
        self._failed: Optional[SimThread] = None
        self._until: Optional[float] = None
        self._last_time = 0.0
        self.trace = trace
        self.context_switches = 0
        self.events_processed = 0
        self.handoffs = 0

    # -- introspection ------------------------------------------------------

    @staticmethod
    def current() -> SimThread:
        """The :class:`SimThread` the caller is running on."""
        t = getattr(_current, "thread", None)
        if t is None:
            raise NotInSimThread("this operation must run inside a simulated thread")
        return t

    @staticmethod
    def current_or_none() -> Optional[SimThread]:
        return getattr(_current, "thread", None)

    def now(self) -> float:
        """Virtual time of the calling thread (0.0 from outside the sim)."""
        t = self.current_or_none()
        return t.now if t is not None else 0.0

    @property
    def threads(self) -> tuple[SimThread, ...]:
        return tuple(self._threads)

    # -- spawning ------------------------------------------------------------

    def spawn(self, fn: Callable, *args, name: str | None = None,
              start_time: float | None = None, daemon: bool = False,
              **kwargs) -> SimThread:
        """Create a simulated thread and schedule its first wake-up.

        May be called before :meth:`run` or from inside a running simulated
        thread (the child starts no earlier than the parent's ``now``).
        """
        if self._finished:
            raise SimError("kernel already finished; create a new SimKernel")
        parent = self.current_or_none()
        base = parent.now if parent is not None else 0.0
        t0 = base if start_time is None else max(base, float(start_time))
        name = name or f"thread-{len(self._threads)}"
        th = SimThread(self, fn, args, kwargs, name, t0, daemon)
        self._threads.append(th)
        if not daemon:
            self._live += 1
        th._os_thread.start()
        self.schedule(th, t0)
        return th

    # -- scheduling primitives (thread- and kernel-side) ----------------------

    def schedule(self, thread: SimThread, time: float) -> None:
        """Enqueue a wake-up for ``thread`` at virtual ``time``.

        If the thread already has a pending wake-up, the earlier one wins
        (the later is cancelled).
        """
        if thread.state in _FINISHED:
            return
        ev = thread._wake_event
        if ev is not None and not ev.cancelled:
            if ev.time <= time:
                return
            ev.cancel()
        thread._wake_event = self._events.push(time, thread)
        if thread.state == ThreadState.BLOCKED:
            thread.state = ThreadState.READY

    def advance(self, dt: float) -> None:
        """Consume ``dt`` seconds of virtual time on the calling thread."""
        if dt < 0:
            raise ValueError(f"cannot advance by negative time {dt!r}")
        th = self.current()
        if dt == 0.0:
            return
        self.schedule(th, th.now + dt)
        th.state = ThreadState.READY
        self._switch(th)

    def sleep_until(self, time: float) -> None:
        """Block the calling thread until virtual ``time`` (no-op if past)."""
        th = self.current()
        if time > th.now:
            self.advance(time - th.now)

    def block(self, reason: str = "") -> None:
        """Suspend the calling thread until :meth:`wake` is called on it.

        Used by channels, futures and synchronization primitives; user code
        should prefer those higher-level operations.
        """
        th = self.current()
        th.state = ThreadState.BLOCKED
        th.wait_reason = reason
        self._switch(th)
        th.wait_reason = None

    def wake(self, thread: SimThread, time: float | None = None) -> None:
        """Schedule ``thread`` to resume, no earlier than ``time``.

        The thread's clock jumps to ``max(thread.now, time)`` when it runs —
        e.g. a receiver woken by a message in flight resumes at the message's
        arrival time.
        """
        waker = self.current_or_none()
        t = time if time is not None else (waker.now if waker else thread.now)
        self.schedule(thread, max(t, 0.0))

    # -- the scheduler step, run by whichever thread yields ---------------------

    def _step(self) -> Optional[SimThread]:
        """Pop the next event and return the thread to resume, or ``None``
        when :meth:`run` must decide: a thread failed, no non-daemon thread
        is live, the queue is empty, or the next event is past ``until``."""
        if self._failed is not None or not self._live:
            return None
        events, until = self._events, self._until
        while True:
            ev = events.peek()
            if ev is None or (until is not None and ev.time > until):
                return None
            events.pop()
            th = ev.thread
            if th.state not in _FINISHED:
                break
        th._wake_event = None
        if ev.time > self._last_time:
            self._last_time = ev.time
        if ev.time > th.now:
            th.now = ev.time
        self.events_processed += 1
        self.context_switches += 1
        if self.trace is not None:
            self.trace(f"[{th.now:.6f}] resume {th.name}")
        return th

    def _resume(self, nxt: Optional[SimThread]) -> None:
        """Hand the CPU to ``nxt``, or back to :meth:`run` if ``None``.
        The caller must touch no kernel state afterwards."""
        if nxt is None:
            self._handback.release()
        else:
            self.handoffs += 1
            nxt._go.release()

    def _switch(self, th: SimThread) -> None:
        """Yield the running thread ``th`` and return once it is resumed."""
        if th._kill:
            raise SimKilled()
        nxt = self._step()
        if nxt is th:
            th.state = ThreadState.RUNNING
            return
        self._resume(nxt)
        th._park()

    def _exit(self, th: SimThread) -> None:
        """Last act of a finished (DONE or FAILED) thread's OS thread."""
        if not th.daemon:
            self._live -= 1
        if th.state is ThreadState.FAILED:
            self._failed = th
        try:
            nxt = self._step()
        except BaseException as exc:  # noqa: BLE001 - e.g. a raising trace callback
            th.exc, th.state, self._failed, nxt = exc, ThreadState.FAILED, th, None
        self._resume(nxt)

    # -- main loop -------------------------------------------------------------

    def run(self, until: float | None = None) -> float:
        """Drive the simulation; returns the final virtual time reached.

        Raises :class:`SimThreadFailed` if any simulated thread raised, and
        :class:`DeadlockError` if non-daemon threads remain blocked with no
        pending events.  Daemon threads (e.g. server request loops) are
        killed cleanly once all non-daemon threads have finished.
        """
        if self._running:
            raise SimError("kernel.run() is not reentrant")
        self._running = True
        self._until = until
        self._last_time = 0.0
        try:
            nxt = self._step()
            if nxt is not None:
                self._resume(nxt)
                self._handback.acquire()
            failed = self._failed
            if failed is not None:
                self._failed = None
                failed.state = ThreadState.DONE
                self._teardown()
                raise SimThreadFailed(failed.name, failed.exc) from failed.exc
            if not self._live:
                return self._last_time
            if self._events.peek() is None:
                raise DeadlockError(
                    t for t in self._threads
                    if not t.daemon and t.state not in _FINISHED
                )
            return until
        finally:
            self._running = False
            if until is None:
                self._teardown()

    def _teardown(self) -> None:
        """Kill every still-live simulated thread and join its OS thread."""
        self._finished = True
        for t in self._threads:
            if t.state not in _FINISHED and not t._kill:
                t._kill = True
                t._go.release()
        for t in self._threads:
            t._os_thread.join(timeout=5.0)
