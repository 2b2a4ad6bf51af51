"""Reusable buffers for the CDR zero-copy fragment lane.

The marshaling hot path of a distributed invocation is fragment movement:
every request encodes each thread-to-thread fragment of every distributed
argument, and every reply does the same for distributed results.  A
fragment of numeric elements is written **once**, directly into a buffer
borrowed from its world's :class:`BufferPool` (each simulated world's
transport owns one, so runs stay isolated), and the resulting
:class:`PooledBuffer` lease travels through transfer and decode as a view
(see ``docs/PROTOCOL.md``, "Zero-copy fragment lane").

Lifetime rules (enforced by the courier/POA/request-state code):

* the **encoder** (sending side) acquires the lease; ownership travels
  with the :class:`~repro.core.request.Fragment` that carries it;
* the **consumer** releases it — normally right after the fragment's
  values are inserted into local storage, otherwise whichever drain
  discards the fragment (the POA dead-letter sweep, or the client's
  failed-request drain);
* :meth:`PooledBuffer.release` is idempotent, and a lease that is never
  released is simply reclaimed by the garbage collector — the pool is an
  allocation-rate optimization, never a correctness requirement.

The pool is size-bucketed (powers of two) with a bounded free list per
bucket, so steady-state fragment traffic of a given shape recycles the
same few buffers instead of allocating per request.
"""

from __future__ import annotations

__all__ = [
    "BufferPool",
    "PooledBuffer",
    "ZeroCopyStats",
]

#: Smallest bucket capacity; sub-256-byte payloads share one bucket.
_MIN_BUCKET = 256

#: Buffers kept per bucket.  SPMD traffic needs roughly (threads in
#: flight x fragments per thread) concurrent leases of one size; beyond
#: the bound, releases simply drop the buffer for the GC.
_MAX_FREE_PER_BUCKET = 16


class ZeroCopyStats:
    """Counters for the zero-copy lane and its pool.

    ``fast_encodes``/``fast_decodes`` count fragments of numeric elements,
    which take the bulk lane; ``fallback_encodes``/``fallback_decodes``
    count fragments of any other element type (structs, strings, ``char``,
    nested sequences), which use the element-wise CDR stream.
    ``borrows``/``returns`` track lease balance — they must match once all
    in-flight fragments are consumed, which is what the exception-path
    regression tests assert.
    """

    __slots__ = ("fast_encodes", "fast_decodes", "fallback_encodes",
                 "fallback_decodes", "bytes_fast", "borrows", "returns",
                 "pool_hits", "pool_misses")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        for name in self.__slots__:
            setattr(self, name, 0)

    @property
    def outstanding(self) -> int:
        """Leases borrowed but not yet returned."""
        return self.borrows - self.returns

    def snapshot(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self) -> str:
        return (f"<ZeroCopyStats fast={self.fast_encodes}/"
                f"{self.fast_decodes} fallback={self.fallback_encodes}/"
                f"{self.fallback_decodes} leases={self.borrows}/"
                f"{self.returns}>")


class PooledBuffer:
    """One borrowed buffer: ``data[:length]`` is the wire payload.

    Supports ``len()`` and the parts of the ``bytes`` protocol the
    transport and the fragment consumers need.  ``release()`` returns the
    backing storage to the pool; any view taken before release must not
    be read afterwards (the storage may be re-leased and overwritten).
    """

    __slots__ = ("pool", "data", "length", "released", "views")

    def __init__(self, pool: "BufferPool", data: bytearray,
                 length: int, views: dict) -> None:
        self.pool = pool
        self.data = data
        self.length = length
        self.released = False
        #: per-dtype (writable, readonly) full-buffer ndarray views,
        #: created lazily by the CDR bulk lanes and recycled with the
        #: backing bytearray — steady-state traffic never re-runs
        #: ``np.frombuffer``
        self.views = views

    def __len__(self) -> int:
        return self.length

    def view(self) -> memoryview:
        """Writable view of the payload (encode side)."""
        if self.released:
            raise ValueError("view of a released PooledBuffer")
        return memoryview(self.data)[:self.length]

    def readonly(self) -> memoryview:
        """Read-only view of the payload (decode side)."""
        if self.released:
            raise ValueError("view of a released PooledBuffer")
        return memoryview(self.data).toreadonly()[:self.length]

    def tobytes(self) -> bytes:
        """Copy out the payload (escape hatch for code that must own it)."""
        if self.released:
            raise ValueError("copy of a released PooledBuffer")
        return bytes(self.data[:self.length])

    def release(self) -> bool:
        """Return the storage to the pool; idempotent (False on repeat)."""
        if self.released:
            return False
        self.released = True
        self.pool._give_back(self)
        return True

    def __repr__(self) -> str:
        state = "released" if self.released else "live"
        return f"<PooledBuffer {self.length}B/{len(self.data)}B {state}>"


class BufferPool:
    """Size-bucketed (power-of-two) pool of reusable ``bytearray`` s."""

    __slots__ = ("_free", "max_free_per_bucket", "stats")

    def __init__(self, max_free_per_bucket: int = _MAX_FREE_PER_BUCKET) -> None:
        #: capacity -> [(bytearray, views dict), ...]
        self._free: dict[int, list] = {}
        self.max_free_per_bucket = max_free_per_bucket
        self.stats = ZeroCopyStats()

    @staticmethod
    def bucket_of(nbytes: int) -> int:
        """Capacity of the bucket serving an ``nbytes`` payload."""
        if nbytes <= _MIN_BUCKET:
            return _MIN_BUCKET
        return 1 << (nbytes - 1).bit_length()

    def acquire(self, nbytes: int) -> PooledBuffer:
        """Borrow a buffer with capacity >= ``nbytes``; its payload length
        is exactly ``nbytes``."""
        if nbytes < 0:
            raise ValueError(f"cannot lease {nbytes} bytes")
        cap = self.bucket_of(nbytes)
        stats = self.stats
        stats.borrows += 1
        free = self._free.get(cap)
        if free:
            stats.pool_hits += 1
            data, views = free.pop()
        else:
            stats.pool_misses += 1
            data, views = bytearray(cap), {}
        return PooledBuffer(self, data, nbytes, views)

    def _give_back(self, buf: "PooledBuffer") -> None:
        self.stats.returns += 1
        free = self._free.setdefault(len(buf.data), [])
        if len(free) < self.max_free_per_bucket:
            free.append((buf.data, buf.views))

    def free_buffers(self) -> int:
        return sum(len(v) for v in self._free.values())

    def clear(self) -> None:
        """Drop all pooled storage (counters are kept)."""
        self._free.clear()

    def __repr__(self) -> str:
        return (f"<BufferPool {self.free_buffers()} free, "
                f"{self.stats.outstanding} outstanding>")
