"""Parity of the ``struct`` scalar codec with the numpy reference.

Scalar primitives encode through each typecode's precompiled
little-endian ``struct.Struct``.  These properties pin that it writes
exactly the bytes ``np.array([int(v)], dtype=tc.fmt).tobytes()`` writes,
with the same alignment padding, and decodes back to a Python ``int``.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.cdr import (
    TC_DOUBLE,
    TC_FLOAT,
    TC_LONG,
    TC_LONGLONG,
    TC_OCTET,
    TC_SHORT,
    TC_ULONG,
    TC_ULONGLONG,
    TC_USHORT,
    CdrDecoder,
    CdrEncoder,
)
from repro.cdr.typecodes import INT_RANGES

INT_TCS = [TC_OCTET, TC_SHORT, TC_USHORT, TC_LONG, TC_ULONG, TC_LONGLONG,
           TC_ULONGLONG]
LEAD = 0x5A   # an octet before the field, so alignment padding runs


def _after_octet(tc, value) -> bytes:
    return CdrEncoder().encode(TC_OCTET, LEAD).encode(tc, value).getvalue()


def _reference(tc, value) -> bytes:
    pad = (-1) % tc.size
    return (bytes([LEAD]) + b"\0" * pad
            + np.array([int(value)], dtype=tc.fmt).tobytes())


def _check(tc, value) -> None:
    wire = _after_octet(tc, value)
    assert wire == _reference(tc, value)
    dec = CdrDecoder(wire)
    assert dec.decode(TC_OCTET) == LEAD
    out = dec.decode(tc)
    assert type(out) is int
    assert out == value
    assert dec.done()


@pytest.mark.parametrize("tc", INT_TCS, ids=lambda tc: tc.name)
def test_integer_bounds_and_zero_match_numpy(tc):
    lo, hi = INT_RANGES[tc.name]
    for value in (lo, hi, 0):
        _check(tc, value)
        _check(tc, np.dtype(tc.fmt).type(value))


@given(st.sampled_from(INT_TCS), st.data())
def test_random_integers_match_numpy(tc, data):
    lo, hi = INT_RANGES[tc.name]
    value = data.draw(st.integers(lo, hi))
    _check(tc, value)
    _check(tc, np.dtype(tc.fmt).type(value))


@given(st.floats(allow_nan=False, width=32))
def test_floats_match_numpy(value):
    for tc in (TC_FLOAT, TC_DOUBLE):
        wire = _after_octet(tc, value)
        pad = (-1) % tc.size
        assert wire == (bytes([LEAD]) + b"\0" * pad
                        + np.array([value], dtype=tc.fmt).tobytes())
        dec = CdrDecoder(wire)
        dec.decode(TC_OCTET)
        out = dec.decode(tc)
        assert type(out) is float
        assert out == value
