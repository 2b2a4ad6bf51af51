"""Marshaling microbenchmarks (real wall-clock, not virtual time).

The IDL compiler generates marshaling automatically, including for
dynamically-sized nested types (§4.1); these benchmarks measure the CDR
layer's actual throughput so regressions in the hot encode/decode paths
are visible.
"""

import numpy as np
import pytest

from repro.cdr import (
    SequenceTC,
    StringTC,
    StructTC,
    TC_DOUBLE,
    TC_LONG,
    decode,
    encode,
)

FLAT = SequenceTC(TC_DOUBLE)
NESTED = SequenceTC(SequenceTC(TC_DOUBLE))
RECORDS = SequenceTC(StructTC("rec", (
    ("id", TC_LONG), ("name", StringTC()), ("values", SequenceTC(TC_DOUBLE)),
)))


@pytest.mark.benchmark(group="marshal-flat")
@pytest.mark.parametrize("n", [1_000, 100_000])
def test_encode_flat_doubles(benchmark, n):
    data = np.arange(n, dtype=float)
    out = benchmark(encode, FLAT, data)
    benchmark.extra_info["wire_bytes"] = len(out)


@pytest.mark.benchmark(group="marshal-flat")
@pytest.mark.parametrize("n", [1_000, 100_000])
def test_decode_flat_doubles(benchmark, n):
    wire = encode(FLAT, np.arange(n, dtype=float))
    out = benchmark(decode, FLAT, wire)
    assert len(out) == n


@pytest.mark.benchmark(group="marshal-nested")
@pytest.mark.parametrize("rows", [10, 200])
def test_encode_matrix_of_rows(benchmark, rows):
    """The §4.1 matrix shape: dynamically-sized rows."""
    data = [np.arange(rows, dtype=float) for _ in range(rows)]
    out = benchmark(encode, NESTED, data)
    benchmark.extra_info["wire_bytes"] = len(out)


@pytest.mark.benchmark(group="marshal-nested")
@pytest.mark.parametrize("rows", [10, 200])
def test_decode_matrix_of_rows(benchmark, rows):
    wire = encode(NESTED, [np.arange(rows, dtype=float) for _ in range(rows)])
    out = benchmark(decode, NESTED, wire)
    assert len(out) == rows


@pytest.mark.benchmark(group="marshal-records")
def test_roundtrip_heterogeneous_records(benchmark):
    data = [
        {"id": i, "name": f"record-{i}", "values": np.arange(i % 7, dtype=float)}
        for i in range(200)
    ]

    def roundtrip():
        return decode(RECORDS, encode(RECORDS, data))

    out = benchmark(roundtrip)
    assert len(out) == 200


@pytest.mark.benchmark(group="marshal-fastpath")
def test_bulk_fast_path_speedup(benchmark):
    """The numpy fast path must beat element-wise encoding by a wide
    margin — that is why it exists."""
    import time

    from repro.cdr import CdrEncoder

    data = np.arange(50_000, dtype=float)

    def fast():
        return encode(FLAT, data)

    def slow():
        enc = CdrEncoder()
        enc.put_ulong(len(data))
        for v in data:
            enc.put_primitive(TC_DOUBLE, float(v))
        return enc.getvalue()

    wire_fast = benchmark(fast)
    t0 = time.perf_counter()
    wire_slow = slow()
    slow_s = time.perf_counter() - t0
    assert wire_fast == wire_slow
    benchmark.extra_info["elementwise_s"] = round(slow_s, 4)


def _race(fn_a, fn_b, repeats=15, inner=8):
    """Min-of-N timing of two functions with the rounds interleaved, so
    both see the same machine conditions; returns (best_a, best_b) in
    seconds per call."""
    import time

    best_a = best_b = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(inner):
            fn_a()
        best_a = min(best_a, (time.perf_counter() - t0) / inner)
        t0 = time.perf_counter()
        for _ in range(inner):
            fn_b()
        best_b = min(best_b, (time.perf_counter() - t0) / inner)
    return best_a, best_b


@pytest.mark.benchmark(group="marshal-zerocopy")
@pytest.mark.parametrize("nbytes", [64 * 1024, 1024 * 1024],
                         ids=["64KiB", "1MiB"])
def test_zero_copy_fragment_roundtrip_speedup(benchmark, nbytes):
    """A numeric fragment's encode→decode round trip through the courier
    (one pooled write, aliasing decode) vs the element-wise CDR reference
    (three encode copies + a decode copy) must be at least 2x faster at
    >= 64 KiB — the acceptance bar for the pooled lane's existence."""
    from repro.cdr import BufferPool, CdrDecoder, CdrEncoder, SequenceTC
    from repro.core.pipeline.courier import fragment_payload, fragment_values

    n = nbytes // 8
    data = np.arange(n, dtype=float)
    pool = BufferPool()
    seq = SequenceTC(TC_DOUBLE)

    def pooled():
        payload = fragment_payload(TC_DOUBLE, data, pool)
        s = float(fragment_values(TC_DOUBLE, payload, pool)[-1])
        payload.release()
        return s

    def reference():
        wire = CdrEncoder().encode(seq, data).getvalue()
        return float(CdrDecoder(wire).decode(seq)[-1])

    assert pooled() == reference() == float(n - 1)
    # Wire parity with the reference, byte for byte.
    buf = fragment_payload(TC_DOUBLE, data, pool)
    assert bytes(buf.view()) == CdrEncoder().encode(seq, data).getvalue()
    buf.release()

    fast_s, slow_s = _race(pooled, reference)
    speedup = slow_s / fast_s
    benchmark.extra_info["fast_s"] = round(fast_s, 7)
    benchmark.extra_info["slow_s"] = round(slow_s, 7)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    benchmark(pooled)
    assert speedup >= 2.0, (
        f"pooled lane only {speedup:.2f}x faster at {nbytes} bytes "
        f"(pooled {fast_s * 1e6:.1f} us, reference {slow_s * 1e6:.1f} us)"
    )
