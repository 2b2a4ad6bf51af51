"""Deterministic cooperative virtual-time kernel.

This package is the execution substrate for the whole PARDIS
reproduction: simulated "computing threads" (real OS threads scheduled one
at a time, each handing off directly to the next), timestamped message channels, and virtual-time synchronization
primitives.  See DESIGN.md §6 for the rationale.
"""

from .channel import Channel, Envelope
from .errors import (
    DeadlockError,
    NotInSimThread,
    SimError,
    SimKilled,
    SimThreadFailed,
)
from .events import Event, EventQueue
from .kernel import SimKernel, SimThread, ThreadState
from .sync import SimBarrier, SimCondition, SimLock, SimSemaphore

__all__ = [
    "Channel",
    "DeadlockError",
    "Envelope",
    "Event",
    "EventQueue",
    "NotInSimThread",
    "SimBarrier",
    "SimCondition",
    "SimError",
    "SimKernel",
    "SimKilled",
    "SimLock",
    "SimSemaphore",
    "SimThread",
    "SimThreadFailed",
    "ThreadState",
]
