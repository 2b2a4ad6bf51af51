"""Virtual-time synchronization primitives.

These mirror ``threading``'s lock/condition/barrier/semaphore but operate
on simulated threads and virtual time.  All waits are deterministic: FIFO
wake order, ties resolved by the kernel's event sequence numbers.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from .errors import SimError
from .kernel import SimKernel, SimThread


class SimLock:
    """Non-reentrant mutual-exclusion lock in virtual time."""

    def __init__(self, kernel: SimKernel, name: str = "lock") -> None:
        self.kernel = kernel
        self.name = name
        self._owner: Optional[SimThread] = None
        self._waiters: deque[SimThread] = deque()

    def acquire(self) -> None:
        th = self.kernel.current()
        if self._owner is th:
            raise SimError(f"{self.name}: non-reentrant lock re-acquired by {th.name}")
        while self._owner is not None:
            self._waiters.append(th)
            self.kernel.block(f"acquire {self.name}")
        self._owner = th

    def release(self) -> None:
        th = self.kernel.current()
        if self._owner is not th:
            raise SimError(f"{self.name}: released by non-owner {th.name}")
        self._owner = None
        if self._waiters:
            nxt = self._waiters.popleft()
            self.kernel.wake(nxt, th.now)

    def __enter__(self):
        self.acquire()
        return self

    def __exit__(self, *exc):
        self.release()
        return False


class SimCondition:
    """Condition variable bound to a :class:`SimLock`."""

    def __init__(self, lock: SimLock) -> None:
        self.lock = lock
        self.kernel = lock.kernel
        self._waiters: deque[SimThread] = deque()

    def wait(self) -> None:
        th = self.kernel.current()
        if self.lock._owner is not th:
            raise SimError("condition.wait() without holding the lock")
        self._waiters.append(th)
        self.lock.release()
        self.kernel.block(f"cond wait on {self.lock.name}")
        self.lock.acquire()

    def notify(self, n: int = 1) -> None:
        th = self.kernel.current()
        for _ in range(min(n, len(self._waiters))):
            self.kernel.wake(self._waiters.popleft(), th.now)

    def notify_all(self) -> None:
        self.notify(len(self._waiters))


class SimBarrier:
    """Reusable N-party barrier.

    All parties leave the barrier at the virtual time of the *last* arrival
    — exactly the semantics of a synchronizing collective on a parallel
    machine.
    """

    def __init__(self, kernel: SimKernel, parties: int, name: str = "barrier") -> None:
        if parties < 1:
            raise ValueError("barrier needs at least one party")
        self.kernel = kernel
        self.parties = parties
        self.name = name
        self._waiting: list[SimThread] = []
        self._generation = 0

    def wait(self) -> int:
        """Block until all parties arrive; returns the barrier generation."""
        th = self.kernel.current()
        gen = self._generation
        self._waiting.append(th)
        if len(self._waiting) == self.parties:
            self._generation += 1
            release_time = max(w.now for w in self._waiting)
            waiters, self._waiting = self._waiting, []
            for w in waiters:
                if w is not th:
                    self.kernel.wake(w, release_time)
            # Last arrival proceeds immediately at the release time.
            self.kernel.sleep_until(release_time)
            return gen
        self.kernel.block(f"barrier {self.name} gen {gen}")
        return gen


class SimSemaphore:
    """Counting semaphore in virtual time."""

    def __init__(self, kernel: SimKernel, value: int = 1, name: str = "sem") -> None:
        if value < 0:
            raise ValueError("semaphore value must be >= 0")
        self.kernel = kernel
        self.name = name
        self._value = value
        self._waiters: deque[SimThread] = deque()

    @property
    def value(self) -> int:
        return self._value

    def acquire(self) -> None:
        th = self.kernel.current()
        while self._value == 0:
            self._waiters.append(th)
            self.kernel.block(f"sem acquire {self.name}")
        self._value -= 1

    def release(self) -> None:
        self._value += 1
        if self._waiters:
            waker = self.kernel.current_or_none()
            t = waker.now if waker else None
            self.kernel.wake(self._waiters.popleft(), t)
