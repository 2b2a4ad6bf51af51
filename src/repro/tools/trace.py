"""Packet tracing for simulated PARDIS deployments.

Attach a :class:`PacketTrace` to a world's transport to record every
message (send time, arrival, endpoints, tag class, bytes), then query per
link/tag summaries or render a text timeline — the observability layer a
1997 paper collected with printf.

Record storage is a bounded :class:`RingBuffer` (default 64k records):
long simulations keep the most recent window instead of growing without
bound, and the ``dropped`` counter says how much history was lost.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from ..netsim import Packet, Transport
from ..runtime.tags import (
    PARDIS_TAG_BASE,
    TAG_ARG_FRAGMENT,
    TAG_COLLECTIVE_BASE,
    TAG_REPLY_HEADER,
    TAG_REQUEST_HEADER,
    TAG_RESULT_FRAGMENT,
)

_TAG_CLASSES = {
    TAG_REQUEST_HEADER: "request",
    TAG_REPLY_HEADER: "reply",
    TAG_ARG_FRAGMENT: "arg-fragment",
    TAG_RESULT_FRAGMENT: "result-fragment",
}


def tag_class(tag: int) -> str:
    """Human-readable class of a message tag."""
    named = _TAG_CLASSES.get(tag)
    if named:
        return named
    if tag >= TAG_COLLECTIVE_BASE:
        return "collective"
    if tag >= PARDIS_TAG_BASE:
        return "pardis-internal"
    return "user"


#: default capacity of the bounded record stores (packets and spans)
DEFAULT_CAPACITY = 65536


class RingBuffer:
    """Append-only bounded store that sheds its *oldest* records.

    A drop-in replacement for the unbounded lists the observability
    layer used to keep: supports ``append``, ``len``, iteration, and
    indexing, and counts evictions in ``dropped``.  ``capacity=None``
    means unbounded.
    """

    __slots__ = ("_records", "capacity", "dropped")

    def __init__(self, capacity: Optional[int] = DEFAULT_CAPACITY) -> None:
        self.capacity = capacity
        self._records: deque = deque(maxlen=capacity)
        self.dropped = 0

    def append(self, record) -> None:
        if self.capacity is not None and len(self._records) == self.capacity:
            self.dropped += 1
        self._records.append(record)

    def extend(self, records) -> None:
        for record in records:
            self.append(record)

    def clear(self) -> None:
        self._records.clear()

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self):
        return iter(self._records)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(self._records)[index]
        return self._records[index]

    def __repr__(self) -> str:
        return (f"<RingBuffer {len(self._records)}/{self.capacity} "
                f"dropped={self.dropped}>")


class TraceRecord(NamedTuple):
    """One packet a transport moved (an immutable named tuple: one is
    built per packet)."""

    send_time: float
    arrival: float
    src: str
    dst: str
    tag: int
    kind: str
    nbytes: int

    @property
    def latency(self) -> float:
        return self.arrival - self.send_time


@dataclass
class PacketTrace:
    """Recorder of every packet a transport moves (bounded: once
    ``capacity`` records accumulate, the oldest are shed and counted in
    ``records.dropped``)."""

    records: RingBuffer = field(
        default_factory=lambda: RingBuffer(DEFAULT_CAPACITY))
    #: Address -> str(Address), formatted once per distinct address
    _names: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    @property
    def dropped(self) -> int:
        return self.records.dropped

    def __call__(self, pkt: Packet) -> None:
        names = self._names
        src = names.get(pkt.src)
        if src is None:
            src = names[pkt.src] = str(pkt.src)
        dst = names.get(pkt.dst)
        if dst is None:
            dst = names[pkt.dst] = str(pkt.dst)
        self.records.append(TraceRecord(
            pkt.send_time, pkt.arrival, src, dst, pkt.tag,
            tag_class(pkt.tag), pkt.nbytes))

    def __len__(self) -> int:
        return len(self.records)

    # -- queries --------------------------------------------------------------

    def by_kind(self, kind: str) -> list[TraceRecord]:
        return [r for r in self.records if r.kind == kind]

    def bytes_by_kind(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for r in self.records:
            out[r.kind] = out.get(r.kind, 0) + r.nbytes
        return out

    def bytes_between_hosts(self) -> dict[tuple[str, str], int]:
        out: dict[tuple[str, str], int] = {}
        for r in self.records:
            key = (r.src.split(":")[0], r.dst.split(":")[0])
            out[key] = out.get(key, 0) + r.nbytes
        return out

    def summary(self) -> str:
        head = (f"{len(self.records)} packets, "
                f"{sum(r.nbytes for r in self.records)} bytes")
        if self.dropped:
            head += f" ({self.dropped} oldest records dropped)"
        lines = [head]
        for kind, nbytes in sorted(self.bytes_by_kind().items()):
            count = len(self.by_kind(kind))
            lines.append(f"  {kind:>16}: {count:6d} packets {nbytes:10d} bytes")
        return "\n".join(lines)

    def timeline(self, limit: int = 40, kinds: Optional[set] = None) -> str:
        """Text timeline of the first ``limit`` matching packets."""
        lines = []
        for r in self.records:
            if kinds is not None and r.kind not in kinds:
                continue
            lines.append(
                f"{r.send_time * 1e3:10.3f}ms -> {r.arrival * 1e3:10.3f}ms "
                f"{r.kind:>16} {r.src} -> {r.dst} ({r.nbytes} B)"
            )
            if len(lines) >= limit:
                lines.append("...")
                break
        return "\n".join(lines)


def attach_tracer(transport: Transport) -> PacketTrace:
    """Install a :class:`PacketTrace` on a transport; returns it."""
    trace = PacketTrace()
    transport.observers.append(trace)
    return trace
