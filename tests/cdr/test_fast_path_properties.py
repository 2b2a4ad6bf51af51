"""Generative wire-parity tests for the zero-copy marshaling lane.

The zero-copy lane (`encode_bulk_payload`/`decode_bulk_payload`) must be
byte-for-byte indistinguishable from the classic CDR stream for every
numeric element type, every value pattern (including NaN payloads and
denormals, generated here from raw bytes), and every input layout
(non-contiguous slices, reversed strides, empty arrays).  The properties
hold at the courier level too, where the element type picks the lane:
every numeric run, ndarray or list, goes through the pooled lane.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cdr import (
    BufferPool,
    CdrEncoder,
    SequenceTC,
    TC_BOOLEAN,
    TC_DOUBLE,
    TC_FLOAT,
    TC_LONG,
    TC_LONGLONG,
    TC_OCTET,
    TC_SHORT,
    TC_ULONG,
    TC_ULONGLONG,
    TC_USHORT,
    decode,
    decode_bulk_payload,
    encode_bulk_payload,
)
from repro.cdr.buffers import PooledBuffer
from repro.core.pipeline.courier import fragment_payload, fragment_values

NUMERIC_TCS = [TC_OCTET, TC_BOOLEAN, TC_SHORT, TC_USHORT, TC_LONG,
               TC_ULONG, TC_LONGLONG, TC_ULONGLONG, TC_FLOAT, TC_DOUBLE]


@st.composite
def tc_and_array(draw, max_bytes=512):
    """A numeric typecode plus an array reinterpreted from raw bytes —
    covers NaN bit patterns, denormals, and extreme integers for free."""
    tc = draw(st.sampled_from(NUMERIC_TCS))
    raw = draw(st.binary(min_size=0, max_size=max_bytes))
    n = len(raw) // tc.size
    return tc, np.frombuffer(raw[:n * tc.size], dtype=tc.dtype)


@st.composite
def tc_and_strided(draw):
    """Like :func:`tc_and_array` but sliced non-contiguously: arbitrary
    offset, step up to 4, optionally reversed (negative strides)."""
    tc, base = draw(tc_and_array(max_bytes=1024))
    offset = draw(st.integers(min_value=0, max_value=max(0, base.size)))
    step = draw(st.integers(min_value=1, max_value=4))
    arr = base[offset::step]
    if draw(st.booleans()):
        arr = arr[::-1]
    return tc, arr


def slow_wire(tc, arr) -> bytes:
    return CdrEncoder().encode(SequenceTC(tc), arr).getvalue()


def fast_wire(tc, arr, pool) -> bytes:
    buf = encode_bulk_payload(tc, arr, pool)
    try:
        return bytes(buf.view())
    finally:
        buf.release()


@given(tc_and_array())
def test_fast_encode_matches_slow_wire_bytes(case):
    tc, arr = case
    pool = BufferPool()
    assert fast_wire(tc, arr, pool) == slow_wire(tc, arr)
    assert pool.stats.outstanding == 0


@given(tc_and_strided())
def test_fast_encode_matches_slow_on_non_contiguous_input(case):
    tc, arr = case
    pool = BufferPool()
    assert fast_wire(tc, arr, pool) == slow_wire(tc, arr)


@given(tc_and_array())
def test_fast_decode_roundtrips_exactly(case):
    """fast-decode(fast-encode(x)) is byte-identical to x, and the
    decoded array is a read-only alias, not a copy."""
    tc, arr = case
    pool = BufferPool()
    buf = encode_bulk_payload(tc, arr, pool)
    out = decode_bulk_payload(tc, buf)
    assert out.dtype == arr.dtype
    assert out.tobytes() == arr.tobytes()
    assert not out.flags.writeable
    assert not out.flags.owndata
    buf.release()


@given(tc_and_array())
def test_lanes_decode_each_other(case):
    """Cross-lane: slow decode of a fast payload and fast decode of a
    slow payload both reproduce the values."""
    tc, arr = case
    pool = BufferPool()
    buf = encode_bulk_payload(tc, arr, pool)
    via_slow = decode(SequenceTC(tc), buf.tobytes())
    assert np.asarray(via_slow).tobytes() == arr.tobytes()
    buf.release()
    via_fast = decode_bulk_payload(tc, slow_wire(tc, arr))
    assert via_fast.tobytes() == arr.tobytes()


@given(tc_and_array(), st.booleans())
def test_courier_pools_numeric_lists_and_arrays(case, as_list):
    """The dispatch point itself: fragment_payload leases a PooledBuffer
    for a numeric run in either container, its bytes equal the classic
    CDR stream, and fragment_values round-trips it."""
    tc, arr = case
    values = arr.tolist() if as_list else arr
    pool = BufferPool()
    buf = fragment_payload(tc, values, pool)
    assert type(buf) is PooledBuffer
    assert bytes(buf.view()) == slow_wire(tc, values)
    out = fragment_values(tc, buf, pool)
    assert out.tobytes() == np.asarray(values, dtype=tc.dtype).tobytes()
    buf.release()
    assert pool.stats.fast_encodes == 1 and pool.stats.fallback_encodes == 0
    assert pool.stats.outstanding == 0


@settings(max_examples=25)
@given(st.sampled_from(NUMERIC_TCS),
       st.lists(st.floats(min_value=-100, max_value=100,
                          allow_nan=False), max_size=32))
def test_casting_parity_from_float_arrays(tc, values):
    """Both lanes apply numpy's (unsafe) cast identically when the array
    dtype differs from the element type."""
    arr = np.array(values, dtype="f8")
    pool = BufferPool()
    assert fast_wire(tc, arr, pool) == slow_wire(tc, arr)


@given(st.sampled_from(NUMERIC_TCS))
def test_empty_array_parity(tc):
    pool = BufferPool()
    arr = np.array([], dtype=tc.dtype)
    wire = fast_wire(tc, arr, pool)
    assert wire == slow_wire(tc, arr)
    out = decode_bulk_payload(tc, wire)
    assert out.size == 0


@given(tc_and_array(max_bytes=96))
def test_pool_reuse_does_not_leak_stale_bytes(case):
    """A recycled bucket may hold stale bytes past the payload length;
    the payload region itself must always be freshly written."""
    tc, arr = case
    pool = BufferPool()
    # Dirty a bucket with a larger payload first.
    big = np.arange(64, dtype=tc.dtype)
    encode_bulk_payload(tc, big, pool).release()
    assert fast_wire(tc, arr, pool) == slow_wire(tc, arr)
