"""Round-trip and layout tests for the CDR marshaling layer."""

import re

import numpy as np
import pytest

from repro.cdr import (
    CdrEncoder,
    DSequenceTC,
    EnumTC,
    MarshalError,
    SequenceTC,
    StringTC,
    StructTC,
    TC_BOOLEAN,
    TC_CHAR,
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
    encode,
    wire_size,
)


class TestPrimitives:
    @pytest.mark.parametrize("tc,value", [
        (TC_OCTET, 255), (TC_SHORT, -12345), (TC_USHORT, 54321),
        (TC_LONG, -2**31), (TC_ULONG, 2**32 - 1),
        (TC_LONGLONG, -2**63), (TC_ULONGLONG, 2**64 - 1),
    ])
    def test_integer_roundtrip(self, tc, value):
        assert decode(tc, encode(tc, value)) == value

    @pytest.mark.parametrize("tc,value", [
        (TC_FLOAT, 1.5), (TC_DOUBLE, 3.14159265358979),
        (TC_DOUBLE, -0.0), (TC_DOUBLE, 1e300),
    ])
    def test_float_roundtrip(self, tc, value):
        assert decode(tc, encode(tc, value)) == value

    def test_float_single_precision_truncates(self):
        out = decode(TC_FLOAT, encode(TC_FLOAT, 1.0 / 3.0))
        assert out == pytest.approx(1.0 / 3.0, abs=1e-7)
        assert out != 1.0 / 3.0

    def test_boolean_roundtrip(self):
        assert decode(TC_BOOLEAN, encode(TC_BOOLEAN, True)) is True
        assert decode(TC_BOOLEAN, encode(TC_BOOLEAN, False)) is False

    def test_char_roundtrip(self):
        assert decode(TC_CHAR, encode(TC_CHAR, "Q")) == "Q"

    def test_char_rejects_multichar(self):
        with pytest.raises(MarshalError):
            encode(TC_CHAR, "ab")

    @pytest.mark.parametrize("tc,bad", [
        (TC_OCTET, 256), (TC_OCTET, -1), (TC_SHORT, 2**15),
        (TC_ULONG, -1), (TC_ULONG, 2**32),
    ])
    def test_integer_range_enforced(self, tc, bad):
        with pytest.raises(MarshalError):
            encode(tc, bad)

    @pytest.mark.parametrize("tc,bad", [
        (TC_FLOAT, 1e300), (TC_FLOAT, -3.5e38), (TC_DOUBLE, 10**400),
        (TC_LONG, float("inf")),
    ], ids=["float-1e300", "float-neg-3.5e38", "double-10e400", "long-inf"])
    def test_unrepresentable_value_raises_marshal_error(self, tc, bad):
        # float32 overflow used to escape as a bare OverflowError.
        with pytest.raises(MarshalError,
                           match=re.escape(f"{bad!r} out of range for {tc.name}")):
            CdrEncoder().encode(tc, bad)

    def test_float_infinities_still_encode(self):
        for v in (float("inf"), float("-inf")):
            assert decode(TC_FLOAT, encode(TC_FLOAT, v)) == v

    def test_primitive_sizes_on_wire(self):
        assert len(encode(TC_OCTET, 1)) == 1
        assert len(encode(TC_SHORT, 1)) == 2
        assert len(encode(TC_LONG, 1)) == 4
        assert len(encode(TC_DOUBLE, 1.0)) == 8


class TestAlignment:
    def test_struct_padding_matches_cdr(self):
        # octet (1) + pad(3) + long (4) + pad(0) + double (8) = 16
        tc = StructTC("s", (("a", TC_OCTET), ("b", TC_LONG), ("c", TC_DOUBLE)))
        data = encode(tc, {"a": 1, "b": 2, "c": 3.0})
        assert len(data) == 16
        assert data[1:4] == b"\0\0\0"

    def test_no_padding_when_naturally_aligned(self):
        tc = StructTC("s", (("a", TC_LONG), ("b", TC_LONG)))
        assert len(encode(tc, {"a": 1, "b": 2})) == 8


class TestStrings:
    @pytest.mark.parametrize("s", ["", "hello", "ünïcødé", "a" * 1000])
    def test_roundtrip(self, s):
        assert decode(StringTC(), encode(StringTC(), s)) == s

    def test_wire_layout_length_prefix_and_nul(self):
        data = encode(StringTC(), "hi")
        assert data[:4] == (3).to_bytes(4, "little")
        assert data[4:7] == b"hi\0"

    def test_bound_enforced_on_encode(self):
        with pytest.raises(MarshalError):
            encode(StringTC(bound=3), "toolong")

    def test_bound_boundary_ok(self):
        tc = StringTC(bound=3)
        assert decode(tc, encode(tc, "abc")) == "abc"


class TestSequences:
    def test_double_sequence_roundtrip_numpy(self):
        tc = SequenceTC(TC_DOUBLE)
        arr = np.linspace(0, 1, 17)
        out = decode(tc, encode(tc, arr))
        np.testing.assert_array_equal(out, arr)
        assert isinstance(out, np.ndarray)

    def test_double_sequence_accepts_python_list(self):
        tc = SequenceTC(TC_DOUBLE)
        out = decode(tc, encode(tc, [1.0, 2.0, 3.0]))
        np.testing.assert_array_equal(out, [1.0, 2.0, 3.0])

    def test_empty_sequence(self):
        tc = SequenceTC(TC_LONG)
        out = decode(tc, encode(tc, []))
        assert out.size == 0

    def test_string_sequence(self):
        tc = SequenceTC(StringTC())
        vals = ["alpha", "", "gamma"]
        assert decode(tc, encode(tc, vals)) == vals

    def test_nested_dynamically_sized(self):
        """The §4.1 matrix case: a sequence of variable-length rows."""
        row = SequenceTC(TC_DOUBLE)
        matrix = SequenceTC(row)
        rows = [np.arange(3, dtype=float), np.arange(5, dtype=float),
                np.array([], dtype=float)]
        out = decode(matrix, encode(matrix, rows))
        assert len(out) == 3
        for got, want in zip(out, rows):
            np.testing.assert_array_equal(got, want)

    def test_bound_enforced(self):
        tc = SequenceTC(TC_DOUBLE, bound=4)
        with pytest.raises(MarshalError):
            encode(tc, np.zeros(5))

    def test_bulk_fast_path_matches_element_wise(self):
        """Numpy fast path must produce the identical byte stream as
        element-by-element encoding."""
        from repro.cdr import CdrEncoder

        arr = np.array([1.0, -2.5, 3e10])
        fast = encode(SequenceTC(TC_DOUBLE), arr)
        slow = CdrEncoder()
        slow.put_ulong(3)
        for v in arr:
            slow.put_primitive(TC_DOUBLE, float(v))
        assert fast == slow.getvalue()

    def test_multidimensional_array_rejected(self):
        with pytest.raises(MarshalError):
            encode(SequenceTC(TC_DOUBLE), np.zeros((2, 2)))

    def test_ndarray_of_structs_takes_element_path(self):
        """An ndarray input must only take the numpy bulk path for numeric
        primitive elements; an object array of structs encodes
        element-wise (this used to crash in put_bulk)."""
        inner = StructTC("inner", (("v", TC_LONG),))
        tc = SequenceTC(inner)
        vals = np.array([{"v": 1}, {"v": 2}], dtype=object)
        assert decode(tc, encode(tc, vals)) == [{"v": 1}, {"v": 2}]

    def test_ndarray_of_strings_takes_element_path(self):
        tc = SequenceTC(StringTC())
        vals = np.array(["a", "bc"], dtype=object)
        assert decode(tc, encode(tc, vals)) == ["a", "bc"]

    def test_ndarray_of_wrong_elements_raises_marshal_error(self):
        inner = StructTC("inner", (("v", TC_LONG),))
        with pytest.raises(MarshalError):
            encode(SequenceTC(inner), np.arange(3, dtype=float))

    def test_ndarray_bound_still_enforced_on_element_path(self):
        tc = SequenceTC(StringTC(), bound=1)
        with pytest.raises(MarshalError):
            encode(tc, np.array(["a", "b"], dtype=object))


class TestEnums:
    def test_roundtrip_by_index_and_name(self):
        # Either input form decodes to the canonical member name.
        tc = EnumTC("status", ("OK", "PENDING", "FAILED"))
        assert decode(tc, encode(tc, 2)) == "FAILED"
        assert decode(tc, encode(tc, "PENDING")) == "PENDING"

    def test_bad_index_on_the_wire_rejected(self):
        tc = EnumTC("status", ("OK", "PENDING"))
        wide = EnumTC("wider", ("A", "B", "C", "D", "E"))
        with pytest.raises(MarshalError):
            decode(tc, encode(wide, 4))

    def test_unknown_member_rejected(self):
        tc = EnumTC("status", ("OK",))
        with pytest.raises(MarshalError):
            encode(tc, 5)
        with pytest.raises(ValueError):
            encode(tc, "NOPE")


class TestStructs:
    TC = StructTC("point", (("x", TC_DOUBLE), ("y", TC_DOUBLE),
                            ("label", StringTC())))

    def test_roundtrip_dict(self):
        v = {"x": 1.0, "y": -2.0, "label": "p1"}
        assert decode(self.TC, encode(self.TC, v)) == v

    def test_roundtrip_object_with_attrs(self):
        class P:
            x, y, label = 3.0, 4.0, "obj"

        out = decode(self.TC, encode(self.TC, P()))
        assert out == {"x": 3.0, "y": 4.0, "label": "obj"}

    def test_missing_field_rejected(self):
        with pytest.raises(MarshalError, match="label"):
            encode(self.TC, {"x": 1.0, "y": 2.0})

    def test_nested_struct(self):
        inner = StructTC("inner", (("v", TC_LONG),))
        outer = StructTC("outer", (("a", inner), ("b", SequenceTC(inner))))
        v = {"a": {"v": 1}, "b": [{"v": 2}, {"v": 3}]}
        assert decode(outer, encode(outer, v)) == v


class TestDSequence:
    def test_local_encoding_is_fragment_form(self):
        dtc = DSequenceTC(TC_DOUBLE, bound=1024)
        stc = SequenceTC(TC_DOUBLE)
        arr = np.arange(8, dtype=float)
        assert encode(dtc, arr) == encode(stc, arr)

    def test_distribution_attributes(self):
        dtc = DSequenceTC(TC_DOUBLE, bound=1024,
                          client_dist="BLOCK", server_dist="CONCENTRATED")
        assert dtc.client_dist == "BLOCK"
        assert dtc.server_dist == "CONCENTRATED"

    def test_default(self):
        assert DSequenceTC(TC_DOUBLE).default() == []


class TestErrors:
    def test_trailing_bytes_detected(self):
        data = encode(TC_LONG, 1) + b"junk"
        with pytest.raises(MarshalError, match="trailing"):
            decode(TC_LONG, data)

    def test_underrun_detected(self):
        with pytest.raises(MarshalError, match="underrun"):
            decode(TC_DOUBLE, b"\0\0")

    def test_wrong_type_for_string(self):
        with pytest.raises(MarshalError):
            encode(StringTC(), 42)

    def test_corrupt_string_terminator(self):
        data = bytearray(encode(StringTC(), "hi"))
        data[-1] = 7
        with pytest.raises(MarshalError, match="NUL"):
            decode(StringTC(), bytes(data))


class TestWireSize:
    def test_matches_actual_encoding(self):
        tc = SequenceTC(StringTC())
        v = ["abc", "defgh"]
        assert wire_size(tc, v) == len(encode(tc, v))
