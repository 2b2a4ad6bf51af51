"""Unit tests for marshal helpers (scalar streams, container adaptation,
out-distribution requests)."""

import numpy as np
import pytest

from repro.cdr import DSequenceTC, StringTC, TC_DOUBLE, TC_LONG
from repro.core.distribution import Distribution
from repro.core.dsequence import DistributedSequence
from repro.core.errors import BadOperation
from repro.core.interfacedef import OpDef, ParamDef
from repro.core.marshal import (
    as_distributed,
    decode_scalars,
    encode_out_request,
    encode_scalars,
    resolve_out_dist,
)

DS = DSequenceTC(TC_DOUBLE)

OP = OpDef("f", TC_LONG, [
    ParamDef("in", "a", TC_DOUBLE),
    ParamDef("in", "v", DS),
    ParamDef("inout", "b", TC_LONG),
    ParamDef("out", "s", StringTC()),
    ParamDef("out", "w", DS),
])


class TestParamPartitions:
    def test_scalar_in_specs_include_inout(self):
        assert [n for n, _ in OP.scalar_in_specs] == ["a", "b"]

    def test_scalar_result_specs_lead_with_return(self):
        assert [n for n, _ in OP.scalar_result_specs] == \
            ["__return", "b", "s"]

    def test_void_no_scalar_outs(self):
        op = OpDef("g", None, [ParamDef("out", "w", DS)])
        assert op.scalar_result_specs == ()

    def test_dseq_partitions(self):
        assert [p.name for p in OP.dseq_in_params] == ["v"]
        assert [p.name for p in OP.dseq_out_params] == ["w"]
        assert OP.has_distributed_args


class TestScalarStreams:
    def test_roundtrip(self):
        specs = [("a", TC_DOUBLE), ("b", TC_LONG), ("s", StringTC())]
        data = encode_scalars(specs, {"a": 1.5, "b": -2, "s": "hey"})
        assert decode_scalars(specs, data) == {"a": 1.5, "b": -2, "s": "hey"}

    def test_empty(self):
        assert decode_scalars([], encode_scalars([], {})) == {}


class TestAsDistributed:
    def test_accepts_matching_dsequence(self):
        ds = DistributedSequence.create(10, TC_DOUBLE, rank=0, nprocs=2)
        p = ParamDef("in", "v", DS)
        assert as_distributed(p, ds, nthreads=2, rank=0) is ds

    def test_rejects_thread_count_mismatch(self):
        ds = DistributedSequence.create(10, TC_DOUBLE, rank=0, nprocs=2)
        p = ParamDef("in", "v", DS)
        with pytest.raises(ValueError, match="threads"):
            as_distributed(p, ds, nthreads=3, rank=0)

    def test_plain_array_for_single_invocation(self):
        p = ParamDef("in", "v", DS)
        out = as_distributed(p, np.arange(4.0), nthreads=1, rank=0)
        assert isinstance(out, DistributedSequence)
        assert out.dist.kind == "CONCENTRATED"

    def test_plain_array_rejected_for_spmd(self):
        p = ParamDef("in", "v", DS)
        with pytest.raises(TypeError, match="DistributedSequence"):
            as_distributed(p, np.arange(4.0), nthreads=2, rank=0)


class TestOutRequests:
    def test_none(self):
        assert encode_out_request(None) is None

    def test_kind_string(self):
        assert encode_out_request("CYCLIC") == ("KIND", "CYCLIC")

    def test_template_list(self):
        assert encode_out_request([3, 1]) == ("TEMPLATE", (3.0, 1.0))

    def test_exact_distribution(self):
        d = Distribution.block(8, 2)
        tag, descr = encode_out_request(d)
        assert tag == "EXACT"

    def test_garbage_rejected(self):
        with pytest.raises(TypeError):
            encode_out_request(object())


class TestResolveOutDist:
    def test_default_kind(self):
        d = resolve_out_dist(None, "BLOCK", 10, 2)
        assert d.kind == "BLOCK" and d.n == 10 and d.p == 2

    def test_kind_request(self):
        d = resolve_out_dist(("KIND", "CYCLIC"), "BLOCK", 9, 3)
        assert d.kind == "CYCLIC"

    def test_template_request(self):
        d = resolve_out_dist(("TEMPLATE", (3.0, 1.0)), "BLOCK", 40, 2)
        assert d.counts == [30, 10]

    def test_template_wrong_arity(self):
        with pytest.raises(BadOperation, match="weights"):
            resolve_out_dist(("TEMPLATE", (1.0,)), "BLOCK", 10, 2)

    def test_exact_mismatch_rejected(self):
        from repro.core.request import describe

        d = Distribution.block(8, 2)
        with pytest.raises(BadOperation, match="does not match"):
            resolve_out_dist(("EXACT", describe(d)), "BLOCK", 9, 2)

    def test_unknown_tag(self):
        with pytest.raises(BadOperation):
            resolve_out_dist(("WAT", 1), "BLOCK", 4, 2)
