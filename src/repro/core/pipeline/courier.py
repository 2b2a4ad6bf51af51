"""The fragment courier: the ORB's one implementation of distributed-
argument fragment movement.

Before this package existed, the schedule→extract→fragment→send half and
the receive→insert half of distributed-argument transfer were each
implemented twice (client in-args and server out-args; server in-args
and client out-args).  The courier owns all four:

* :meth:`FragmentCourier.send_fragments` — the send loop, used for
  client "in" arguments and server "out" results alike;
* :meth:`FragmentCourier.receive_fragments` — the blocking
  receive/insert loop, used for server "in" arguments;
* :meth:`FragmentCourier.insert_fragment` — the single-fragment insert
  step the client's progress engine pumps for "out" results (fragments
  are matched, not ordered, so the client inserts them as they arrive);
* :func:`redistribute_exchange` — the same extract/insert engine over a
  run-time-system channel, backing
  :meth:`~repro.core.dsequence.DistributedSequence.redistribute`.

``transfer.extract`` and ``transfer.insert`` are called from nowhere
else in the tree.

Fragment payloads travel on one of two lanes, chosen by the element
type alone.  Numeric elements, whatever their container (ndarray or
list), take the zero-copy lane: the wire bytes are written once into a
:class:`PooledBuffer` leased from the world transport's
:class:`~repro.cdr.buffers.BufferPool` and decoded by aliasing, not
copying.  Any other element (structs, strings, ``char``, nested
sequences) is CDR-encoded as ``sequence<element>`` into a fresh
``bytes``.  The lease rides the :class:`~repro.core.request.Fragment`;
whoever consumes (or discards) the fragment must call
:func:`release_fragment`.
"""

from __future__ import annotations

from ...cdr import CdrDecoder, CdrEncoder, SequenceTC, TypeCode
from ...cdr.buffers import BufferPool
from ...cdr.decoder import decode_bulk_payload
from ...cdr.encoder import encode_bulk_payload
from ...cdr.typecodes import PrimitiveTC
from ..distribution import Distribution
from ..request import Fragment
from .. import transfer as _transfer

__all__ = ["FragmentCourier", "fragment_payload", "fragment_values",
           "redistribute_exchange", "release_fragment"]


def fragment_payload(element: TypeCode, values, pool: BufferPool,
                     meter=None):
    """Encode one fragment's element run (``sequence<element>``).

    Returns a ``PooledBuffer`` lease from ``pool`` for numeric elements
    (the caller owns it), else ``bytes``.  ``meter`` is the world's
    marshal meter (``Transport.meter``), or ``None``.
    """
    # Inlined is_numeric_primitive(): this dispatch runs once per
    # fragment, squarely on the hot path.
    if isinstance(element, PrimitiveTC) and element.name != "char":
        data = encode_bulk_payload(element, values, pool)
    else:
        data = CdrEncoder().encode(SequenceTC(element), values).getvalue()
        pool.stats.fallback_encodes += 1
    if meter is not None:
        meter.on_encode(len(data))
    return data


def fragment_values(element: TypeCode, payload, pool: BufferPool,
                    meter=None):
    """Decode one fragment's element run.

    Numeric payloads come back as a read-only ndarray aliasing the
    payload storage — consume it before releasing the buffer.
    """
    stats = pool.stats
    if isinstance(element, PrimitiveTC) and element.name != "char":
        stats.fast_decodes += 1
        values = decode_bulk_payload(element, payload)
    else:
        stats.fallback_decodes += 1
        values = CdrDecoder(payload).decode(SequenceTC(element))
    if meter is not None:
        meter.on_decode(len(payload))
    return values


def _metered_schedule(src_dist: Distribution, dst_dist: Distribution, meter):
    """The memoized transfer schedule, counted on the world's meter on
    hits and misses alike (the count is of logical schedules)."""
    sched = _transfer.cached_schedule(src_dist, dst_dist)
    if meter is not None:
        meter.on_schedule(len(sched), sum(t.size for t in sched))
    return sched


def release_fragment(frag) -> None:
    """Return a fragment's pooled payload, if it has one (else no-op).

    Safe on ``bytes`` payloads and on already-released leases; every
    fragment consumer and every drain path funnels through here.
    """
    release = getattr(getattr(frag, "payload", None), "release", None)
    if release is not None:
        release()


class FragmentCourier:
    """Per-thread fragment mover bound to one :class:`PardisContext`."""

    __slots__ = ("ctx", "transport")

    def __init__(self, ctx) -> None:
        self.ctx = ctx
        self.transport = ctx.orb.world.transport

    # -- sending -----------------------------------------------------------

    def send_fragments(self, *, src_dist: Distribution, dst_dist: Distribution,
                       rank: int, local_data, element: TypeCode, req_id,
                       param: str, endpoints, tag: int,
                       oneway: bool = False) -> int:
        """Ship this thread's overlap of ``src_dist -> dst_dist`` directly
        to the destination threads; returns the bytes injected."""
        transport = self.transport
        meter = transport.meter
        sched = _metered_schedule(src_dist, dst_dist, meter)
        src_addr = self.ctx.endpoint.address
        pool = transport.buffer_pool
        nbytes = 0
        for item in sched:
            if item.src_rank != rank:
                continue
            values = _transfer.extract(src_dist, rank, local_data,
                                       item.intervals)
            frag = Fragment(req_id, param, rank, item.intervals,
                            fragment_payload(element, values, pool, meter))
            frag_nb = frag.nbytes()
            transport.send(src_addr, endpoints[item.dst_rank], frag,
                                tag=tag, nbytes=frag_nb, oneway=oneway)
            nbytes += frag_nb
        return nbytes

    # -- receiving ---------------------------------------------------------

    @staticmethod
    def expected_fragments(src_dist: Distribution, dst_dist: Distribution,
                           rank: int, meter=None) -> int:
        """How many fragments of ``src_dist -> dst_dist`` target ``rank``."""
        sched = _metered_schedule(src_dist, dst_dist, meter)
        return sum(1 for t in sched if t.dst_rank == rank)

    def receive_fragments(self, *, dist: Distribution, rank: int, local_data,
                          element: TypeCode, req_id, param: str,
                          expected: int, tag: int, reason: str) -> None:
        """Blocking receive/insert loop: collect exactly ``expected``
        fragments of ``param`` and insert them by global index."""
        channel = self.ctx.endpoint.channel

        def match(env):
            pkt = env.payload
            return (pkt.tag == tag and pkt.body.req_id == req_id
                    and pkt.body.param == param)

        for _ in range(expected):
            frag = channel.receive(match, reason=reason).payload.body
            self.insert_fragment(dist, rank, local_data, element, frag)

    def insert_fragment(self, dist: Distribution, rank: int, local_data,
                        element: TypeCode, frag: Fragment) -> None:
        """Insert one received fragment into local storage, then return
        its pooled payload (also on decode/insert failure)."""
        transport = self.transport
        try:
            values = fragment_values(element, frag.payload,
                                     transport.buffer_pool, transport.meter)
            _transfer.insert(dist, rank, local_data, tuple(frag.intervals),
                             values)
        finally:
            release_fragment(frag)


# ---------------------------------------------------------------------------
# RTS-channel exchange (redistribution)
# ---------------------------------------------------------------------------


def redistribute_exchange(element: TypeCode, src_dist: Distribution,
                          dst_dist: Distribution, rank: int, src_data,
                          dst_data, rts) -> None:
    """Collective fragment exchange over the program's run-time system:
    every thread ships its overlaps of ``src_dist -> dst_dist`` and
    collects what lands on it (the engine behind
    ``DistributedSequence.redistribute``)."""
    from ...runtime.collectives import _next_tag

    transport = rts.program.world.transport
    pool = transport.buffer_pool
    meter = transport.meter
    sched = _metered_schedule(src_dist, dst_dist, meter)
    tag = _next_tag(rts)
    for item in _transfer.outgoing(sched, rank):
        values = _transfer.extract(src_dist, rank, src_data, item.intervals)
        payload = fragment_payload(element, values, pool, meter)
        rts.send_reserved(item.dst_rank, (item.intervals, payload), tag,
                          nbytes=len(payload))
    for item in _transfer.local_items(sched, rank):
        values = _transfer.extract(src_dist, rank, src_data, item.intervals)
        _transfer.insert(dst_dist, rank, dst_data, item.intervals, values)
    for _ in range(len(_transfer.incoming(sched, rank))):
        msg = rts.recv(tag=tag)
        intervals, payload = msg.payload
        try:
            values = fragment_values(element, payload, pool, meter)
            _transfer.insert(dst_dist, rank, dst_data, tuple(intervals),
                             values)
        finally:
            release = getattr(payload, "release", None)
            if release is not None:
                release()
