"""Message transport over the simulated network.

This is the reproduction's stand-in for NexusLite: endpoints addressed by
``(host, node, port)``, framed packets with source/tag metadata, and
synchronous ("not oneway") vs. asynchronous ("oneway") send semantics.

Send cost model (see DESIGN.md):

* the sender always pays the link's fixed per-message CPU overhead;
* a **synchronous** send additionally occupies the sender until the
  message has been fully injected into the link (serialization time, plus
  any wait for a shared link to drain) — this is the effect behind the
  paper's Fig. 5 observation that "the time of send began to approach the
  execution time";
* a **oneway** send returns after the CPU overhead; the message still
  arrives at the physically-correct time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from ..cdr.buffers import BufferPool, PooledBuffer
from ..simkernel import Channel, SimKernel
from .topology import Network


class _AnyType:
    """Wildcard for tag/source matching (like MPI's ANY_SOURCE/ANY_TAG)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "ANY"


ANY = _AnyType()


@dataclass(frozen=True, order=True)
class Address:
    """Endpoint address: a port on a node of a host."""

    host: str
    node: int
    port: int = 0

    def __str__(self) -> str:
        return f"{self.host}:{self.node}:{self.port}"


@dataclass
class Packet:
    """A framed message as seen by the receiver."""

    src: Address
    dst: Address
    tag: int
    body: Any
    nbytes: int
    send_time: float = 0.0
    arrival: float = 0.0


def estimate_nbytes(obj: Any) -> int:
    """Rough wire size of a payload, used when the caller does not pass an
    explicit byte count (headers, control messages)."""
    if obj is None:
        return 16
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return len(obj)
    if isinstance(obj, PooledBuffer):
        return len(obj)
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, str):
        return 16 + len(obj)
    if isinstance(obj, (int, float, bool)):
        return 8
    if isinstance(obj, (list, tuple)):
        return 16 + sum(estimate_nbytes(x) for x in obj)
    if isinstance(obj, dict):
        return 16 + sum(
            estimate_nbytes(k) + estimate_nbytes(v) for k, v in obj.items()
        )
    return 64


class Endpoint:
    """A receive queue bound to an :class:`Address`."""

    def __init__(self, transport: "Transport", address: Address) -> None:
        self.transport = transport
        self.address = address
        self.channel = Channel(transport.kernel, name=f"ep:{address}")

    # -- receiving -----------------------------------------------------------

    @staticmethod
    def _match(src, tag):
        def match(env) -> bool:
            pkt: Packet = env.payload
            if tag is not ANY and pkt.tag != tag:
                return False
            if src is not ANY and pkt.src != src:
                return False
            return True

        return match

    def recv(self, src=ANY, tag=ANY) -> Packet:
        """Blocking tag/source-matched receive."""
        env = self.channel.receive(self._match(src, tag), reason=f"recv@{self.address}")
        return env.payload

    def poll(self, src=ANY, tag=ANY) -> Optional[Packet]:
        """Non-blocking receive; ``None`` if nothing has arrived."""
        env = self.channel.poll(self._match(src, tag))
        return env.payload if env else None

    def iprobe(self, src=ANY, tag=ANY) -> bool:
        """True if a matching message has arrived (does not consume it)."""
        return self.channel.peek(self._match(src, tag)) is not None

    # -- sending --------------------------------------------------------------

    def send(self, dst: Address, body: Any, tag: int = 0,
             nbytes: int | None = None, oneway: bool = False) -> Packet:
        return self.transport.send(self.address, dst, body, tag=tag,
                                   nbytes=nbytes, oneway=oneway)


class Transport:
    """Routes packets between endpoints over a :class:`Network`."""

    def __init__(self, kernel: SimKernel, network: Network) -> None:
        self.kernel = kernel
        self.network = network
        self._endpoints: dict[Address, Endpoint] = {}
        self.packets_sent = 0
        self.bytes_sent = 0
        #: packet observers, each called with every delivered Packet (see
        #: repro.tools.trace.attach_tracer and repro.tools.observe); an
        #: empty list keeps the send path at one truthiness check
        self.observers: list = []
        #: this world's marshal meter (``on_encode``/``on_decode``/
        #: ``on_schedule``), fed by the ORB's call sites; see attach_observer
        self.meter = None
        #: per-world pool the fragment courier leases payload buffers
        #: from (see repro.cdr.buffers); world-scoped so concurrent
        #: simulations never share (or skew the stats of) a pool
        self.buffer_pool = BufferPool()

    def snapshot(self) -> dict:
        """Current counters (the shape ``repro.tools.registry`` collects)."""
        return {"packets_sent": self.packets_sent,
                "bytes_sent": self.bytes_sent}

    def open(self, address: Address) -> Endpoint:
        """Create (or return) the endpoint bound to ``address``."""
        ep = self._endpoints.get(address)
        if ep is None:
            # Validate host/node against the topology up front.
            host = self.network.host(address.host)
            if not (0 <= address.node < host.nodes):
                raise ValueError(
                    f"node {address.node} out of range for host {address.host!r} "
                    f"({host.nodes} nodes)"
                )
            ep = Endpoint(self, address)
            self._endpoints[address] = ep
        return ep

    def endpoint(self, address: Address) -> Endpoint:
        try:
            return self._endpoints[address]
        except KeyError:
            raise KeyError(f"no endpoint open at {address}") from None

    def send(self, src: Address, dst: Address, body: Any, tag: int = 0,
             nbytes: int | None = None, oneway: bool = False) -> Packet:
        """Send ``body`` from ``src`` to ``dst``; see module docstring for
        the cost model.  Returns the :class:`Packet` as delivered."""
        dst_ep = self.endpoint(dst)
        th = self.kernel.current()
        profile = self.network.profile_between(src.host, dst.host)
        n = estimate_nbytes(body) if nbytes is None else int(nbytes)

        if profile.cpu_overhead:
            self.kernel.advance(profile.cpu_overhead)
        injection_done, arrival = self.network.reserve(
            src.host, dst.host, n, th.now
        )
        pkt = Packet(src=src, dst=dst, tag=tag, body=body, nbytes=n,
                     send_time=th.now, arrival=arrival)
        dst_ep.channel.push(pkt, arrival)
        self.packets_sent += 1
        self.bytes_sent += n
        if self.observers:
            for cb in self.observers:
                cb(pkt)
        if not oneway:
            self.kernel.sleep_until(injection_done)
        return pkt
