"""Marshaling helpers shared by the client engine and the server POA.

Scalar (non-distributed) arguments travel inside the request/reply header
as one concatenated CDR stream; distributed arguments travel as per-thread
fragments.  Container adaptation converts between user-facing containers
(DistributedSequence, or package-native structures behind an adapter) and
the (distribution, local data) pairs the transfer engine works with.
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from ..cdr import (
    CdrDecoder,
    CdrEncoder,
    DSequenceTC,
    TypeCode,
)
from ..cdr import encoder as _cdr_encoder
from .distribution import Distribution
from .dsequence import DistributedSequence
from .errors import BadOperation
from .interfacedef import OpDef, ParamDef
from .request import build as build_dist
from .request import describe as describe_dist

# ---------------------------------------------------------------------------
# Scalar streams
# ---------------------------------------------------------------------------


def encode_scalars(specs: list[tuple[str, TypeCode]], values: dict) -> bytes:
    enc = CdrEncoder()
    for name, tc in specs:
        enc.encode(tc, values[name])
    data = enc.getvalue()
    meter = _cdr_encoder._MARSHAL_METER
    if meter is not None:
        meter.on_encode(len(data))
    return data


def decode_scalars(specs: list[tuple[str, TypeCode]], data: bytes) -> dict:
    dec = CdrDecoder(data)
    meter = _cdr_encoder._MARSHAL_METER
    if meter is not None:
        meter.on_decode(len(data))
    return {name: dec.decode(tc) for name, tc in specs}


def materialize_objrefs(specs: list[tuple[str, TypeCode]], values: dict,
                        ctx) -> dict:
    """Replace decoded ObjectRefs with live proxies (in place)."""
    from ..cdr.typecodes import ObjectRefTC
    from .stubapi import proxy_for

    for name, tc in specs:
        if isinstance(tc, ObjectRefTC):
            values[name] = proxy_for(values[name], ctx)
    return values


def scalar_in_specs(op: OpDef) -> list[tuple[str, TypeCode]]:
    return [(p.name, p.tc) for p in op.scalar_in_params]


def scalar_result_specs(op: OpDef) -> list[tuple[str, TypeCode]]:
    specs = []
    if op.ret_tc is not None and not isinstance(op.ret_tc, DSequenceTC):
        specs.append(("__return", op.ret_tc))
    specs.extend((p.name, p.tc) for p in op.scalar_out_params)
    return specs


# ---------------------------------------------------------------------------
# Container adaptation
# ---------------------------------------------------------------------------


def as_distributed(param: ParamDef, value: Any, nthreads: int,
                   rank: int) -> DistributedSequence:
    """Normalize an argument for a distributed parameter to a
    :class:`DistributedSequence` (no copy where possible).

    Accepts a DistributedSequence, a package container behind the param's
    adapter, or — for single (non-SPMD) invocations — a plain array/list,
    treated as the whole sequence concentrated on this thread.
    """
    tc: DSequenceTC = param.tc  # type: ignore[assignment]
    if param.adapter is not None and param.adapter.handles(value):
        return param.adapter.unwrap(value, tc.element)
    if isinstance(value, DistributedSequence):
        if value.dist.p != nthreads:
            raise ValueError(
                f"argument {param.name!r} is distributed over {value.dist.p} "
                f"threads but the invocation spans {nthreads}"
            )
        return value
    if nthreads == 1 and isinstance(value, (list, np.ndarray)):
        dist = Distribution.concentrated(len(value), 1)
        return DistributedSequence.adopt(value, dist, 0, tc.element)
    raise TypeError(
        f"argument {param.name!r} must be a DistributedSequence"
        + (" or adapted container" if param.adapter is not None else "")
        + f", got {type(value).__name__}"
    )


def wrap_out(param: ParamDef, dseq: DistributedSequence) -> Any:
    """Present a received distributed out-argument to user code (through
    the package adapter when one is configured)."""
    if param.adapter is not None:
        return param.adapter.wrap(dseq)
    return dseq


# ---------------------------------------------------------------------------
# Out-distribution requests
# ---------------------------------------------------------------------------


def encode_out_request(req: Any) -> Optional[tuple]:
    """Normalize a client's requested out-distribution (a kind name,
    proportions, or a full Distribution) to a wire descriptor."""
    if req is None:
        return None
    if isinstance(req, str):
        return ("KIND", req)
    if isinstance(req, Distribution):
        return ("EXACT", describe_dist(req))
    if isinstance(req, (list, tuple)):
        return ("TEMPLATE", tuple(float(w) for w in req))
    raise TypeError(f"cannot interpret out-distribution request {req!r}")


def resolve_out_dist(request: Optional[tuple], default_kind: str, n: int,
                     p: int) -> Distribution:
    """Instantiate the client-side layout of a distributed out argument
    once its length ``n`` is known.  Client and server both run this with
    identical inputs, so their schedules agree."""
    if request is None:
        return Distribution.of_kind(default_kind, n, p)
    tag = request[0]
    if tag == "KIND":
        return Distribution.of_kind(request[1], n, p)
    if tag == "TEMPLATE":
        if len(request[1]) != p:
            raise BadOperation(
                f"out-distribution template has {len(request[1])} weights "
                f"for {p} client threads"
            )
        return Distribution.template(n, request[1])
    if tag == "EXACT":
        d = build_dist(request[1])
        if d.n != n or d.p != p:
            raise BadOperation(
                f"requested out distribution {d} does not match the "
                f"result (n={n}, p={p})"
            )
        return d
    raise BadOperation(f"bad out-distribution request {request!r}")
