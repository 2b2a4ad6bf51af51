"""Runtime interface metadata emitted by the IDL compiler.

Generated stub modules build these structures once per interface; both the
client engine (:mod:`repro.core.invocation`) and the server dispatcher
(:mod:`repro.core.poa`) drive marshaling and scheduling from them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Optional

from ..cdr import DSequenceTC, TypeCode


@dataclass(frozen=True)
class ParamDef:
    direction: str                  # "in" | "out" | "inout"
    name: str
    tc: TypeCode
    #: container adapter for package-native dsequence mappings (§3.4)
    adapter: Any = None

    @cached_property
    def is_distributed(self) -> bool:
        return isinstance(self.tc, DSequenceTC)


@dataclass(frozen=True)
class AttrDef:
    name: str
    tc: TypeCode
    readonly: bool = False


@dataclass(frozen=True)
class OpDef:
    """One operation and its marshal plan.

    The plan (parameter partitions, scalar CDR specs, result order) is
    what a generated stub compiles in once (§4.1).  Each piece is
    derived from ``params``/``ret_tc`` on first use and kept in the
    instance dict (``cached_property``), outside the dataclass fields,
    so equality, hash and repr are those of the fields alone.  Pieces
    are tuples; ``params`` must not change once the plan is read.
    """

    name: str
    ret_tc: Optional[TypeCode]
    params: list
    oneway: bool = False
    raises: list = field(default_factory=list)   # exception repo ids

    @cached_property
    def in_params(self) -> tuple:
        return tuple(p for p in self.params
                     if p.direction in ("in", "inout"))

    @cached_property
    def out_params(self) -> tuple:
        return tuple(p for p in self.params
                     if p.direction in ("out", "inout"))

    @cached_property
    def in_names(self) -> tuple:
        return tuple(p.name for p in self.in_params)

    @cached_property
    def scalar_in_params(self) -> tuple:
        return tuple(p for p in self.in_params if not p.is_distributed)

    @cached_property
    def dseq_in_params(self) -> tuple:
        return tuple(p for p in self.in_params if p.is_distributed)

    @cached_property
    def scalar_out_params(self) -> tuple:
        return tuple(p for p in self.out_params if not p.is_distributed)

    @cached_property
    def dseq_out_params(self) -> tuple:
        return tuple(p for p in self.out_params if p.is_distributed)

    @cached_property
    def has_distributed_args(self) -> bool:
        return bool(self.dseq_in_params or self.dseq_out_params) or isinstance(
            self.ret_tc, DSequenceTC
        )

    @cached_property
    def scalar_in_specs(self) -> tuple:
        """``(name, tc)`` of the in-arguments the request header's CDR
        stream carries, in order."""
        return tuple((p.name, p.tc) for p in self.scalar_in_params)

    @cached_property
    def scalar_result_specs(self) -> tuple:
        """``(name, tc)`` of the reply header's CDR stream: the return
        value (as ``"__return"``, unless distributed), then scalar outs."""
        specs = ()
        if self.ret_tc is not None and not isinstance(self.ret_tc,
                                                      DSequenceTC):
            specs = (("__return", self.ret_tc),)
        return specs + tuple((p.name, p.tc) for p in self.scalar_out_params)

    @cached_property
    def result_names(self) -> tuple:
        """The slots a servant's return value fills, in order: the return
        value (``"__return"``) if any, then every out parameter."""
        ret = () if self.ret_tc is None else ("__return",)
        return ret + tuple(p.name for p in self.out_params)


@dataclass(frozen=True)
class InterfaceDef:
    name: str
    repo_id: str
    ops: dict
    attrs: list = field(default_factory=list)

    def op(self, name: str) -> OpDef:
        return self.ops[name]

    def attr(self, name: str) -> Optional[AttrDef]:
        for a in self.attrs:
            if a.name == name:
                return a
        return None

    @property
    def has_distributed_ops(self) -> bool:
        return any(op.has_distributed_args for op in self.ops.values())
