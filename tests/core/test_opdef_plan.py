"""The cached per-operation marshal plan on :class:`OpDef`.

Each plan piece is compared with the list-comprehension code that used
to rebuild it on every invocation (kept here as the reference), for the
shapes that stress it: attribute accessors (a fresh ``OpDef`` per call),
``inout`` parameters, and a return value mixed with scalar and
distributed outs.  An end-to-end run checks the result order.
"""

import numpy as np
import pytest

from repro.cdr import (
    DSequenceTC,
    ObjectRefTC,
    StringTC,
    TC_DOUBLE,
    TC_LONG,
)
from repro.core import Simulation
from repro.core.interfacedef import OpDef, ParamDef
from repro.idl import compile_idl

DS = DSequenceTC(TC_DOUBLE)


# -- the uncached reference ---------------------------------------------------


def ref_in(op):
    return [p for p in op.params if p.direction in ("in", "inout")]


def ref_out(op):
    return [p for p in op.params if p.direction in ("out", "inout")]


def dist(p) -> bool:
    return isinstance(p.tc, DSequenceTC)


def ref_plan(op) -> dict:
    result_specs = []
    if op.ret_tc is not None and not isinstance(op.ret_tc, DSequenceTC):
        result_specs.append(("__return", op.ret_tc))
    result_specs.extend((p.name, p.tc) for p in ref_out(op) if not dist(p))
    return {
        "in_params": ref_in(op),
        "out_params": ref_out(op),
        "in_names": [p.name for p in ref_in(op)],
        "scalar_in_params": [p for p in ref_in(op) if not dist(p)],
        "dseq_in_params": [p for p in ref_in(op) if dist(p)],
        "scalar_out_params": [p for p in ref_out(op) if not dist(p)],
        "dseq_out_params": [p for p in ref_out(op) if dist(p)],
        "has_distributed_args": bool(
            [p for p in op.params if dist(p)]) or isinstance(op.ret_tc,
                                                             DSequenceTC),
        "scalar_in_specs": [(p.name, p.tc) for p in ref_in(op)
                            if not dist(p)],
        "scalar_result_specs": result_specs,
        "result_names": ([] if op.ret_tc is None else ["__return"])
        + [p.name for p in ref_out(op)],
    }


def attr_ops(tc):
    """The accessors exactly as the client stub and the POA build them."""
    return [OpDef("_get_level", tc, []),
            OpDef("_set_level", None, [ParamDef("in", "value", tc)])]


MIXED = OpDef("mixed", TC_DOUBLE, [
    ParamDef("in", "a", TC_DOUBLE),
    ParamDef("in", "v", DS),
    ParamDef("inout", "b", TC_LONG),
    ParamDef("out", "s", StringTC()),
    ParamDef("inout", "u", DS),
    ParamDef("out", "w", DS),
    ParamDef("out", "r", ObjectRefTC()),
])

CASES = {
    "mixed": MIXED,
    "dseq-return": OpDef("spread", DS, [ParamDef("inout", "k", TC_LONG)]),
    "void-oneway": OpDef("note", None, [ParamDef("in", "x", TC_LONG)],
                         oneway=True),
    "get-attr": attr_ops(TC_LONG)[0],
    "set-attr": attr_ops(TC_LONG)[1],
    "set-dseq-attr": attr_ops(DS)[1],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_plan_matches_uncached_code(name):
    op = CASES[name]
    for attr, want in ref_plan(op).items():
        got = getattr(op, attr)
        if isinstance(want, list):
            assert list(got) == want, attr
        else:
            assert got == want, attr


def test_mixed_partitions_and_orders():
    assert MIXED.in_names == ("a", "v", "b", "u")
    assert [n for n, _ in MIXED.scalar_in_specs] == ["a", "b"]
    assert [p.name for p in MIXED.dseq_in_params] == ["v", "u"]
    assert [n for n, _ in MIXED.scalar_result_specs] == \
        ["__return", "b", "s", "r"]
    assert [p.name for p in MIXED.dseq_out_params] == ["u", "w"]
    assert MIXED.result_names == ("__return", "b", "s", "u", "w", "r")


def test_plan_is_computed_once_and_leaves_fields_alone():
    op = OpDef("f", TC_LONG, [ParamDef("inout", "b", TC_LONG)])
    twin = OpDef("f", TC_LONG, [ParamDef("inout", "b", TC_LONG)])
    before = repr(op)
    specs = op.scalar_result_specs
    assert op.scalar_result_specs is specs
    assert op.in_params is op.in_params
    assert repr(op) == before
    assert op == twin               # twin has read no plan yet
    with pytest.raises(TypeError):  # params is a list: unhashable as before
        hash(op)


def test_each_accessor_opdef_gets_its_own_plan():
    get_long, set_long = attr_ops(TC_LONG)
    _, set_str = attr_ops(StringTC())
    assert set_long.scalar_in_specs == (("value", TC_LONG),)
    assert set_str.scalar_in_specs == (("value", StringTC()),)
    assert get_long.scalar_result_specs == (("__return", TC_LONG),)
    assert get_long.in_names == ()


IDL = """
    typedef dsequence<double> vec;
    interface planned {
        attribute long level;
        double mixed(in double a, in vec v, inout long b, out string s,
                     out vec w);
    };
"""


def test_end_to_end_result_order_and_attributes():
    mod = compile_idl(IDL, module_name="opdef_plan_stubs")
    sim = Simulation()

    def server_main(ctx):
        class Impl(mod.planned_skel):
            def __init__(self):
                self.level = 3

            def _get_level(self):
                return self.level

            def _set_level(self, value):
                self.level = value

            def mixed(self, a, v, b):
                total = float(np.sum(np.asarray(v.owned_data)))
                w = ctx.dseq(np.arange(4.0) * a)
                return total + a, b * 2, f"b={b}", w

        ctx.poa.activate(Impl(), "planned", kind="spmd")
        ctx.poa.impl_is_ready()

    out = {}

    def client_main(ctx):
        prx = mod.planned._bind("planned")
        out["level0"] = prx._get_level()
        prx._set_level(11)
        out["level1"] = prx._get_level()
        ret, b, s, w = prx.mixed(2.0, np.arange(5.0), 7)
        out["mixed"] = (ret, b, s, list(np.asarray(w.owned_data)))

    sim.server(server_main, host="HOST_2", nprocs=1)
    sim.client(client_main, host="HOST_1")
    sim.run()
    assert out["level0"] == 3
    assert out["level1"] == 11
    assert out["mixed"] == (12.0, 14, "b=7", [0.0, 2.0, 4.0, 6.0])
