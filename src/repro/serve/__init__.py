"""The always-on authorisation service plane (``repro serve``).

Everything before this package runs on the simulated clock inside one
process; this package is where the framework meets real deployments: an
:mod:`asyncio` daemon (:mod:`repro.serve.server`) fronts the full policy
plane (:mod:`repro.serve.plane`) over a newline-delimited-JSON TCP protocol
(:mod:`repro.serve.protocol`), with an asyncio client
(:mod:`repro.serve.client`), admission control and brownout
(:mod:`repro.serve.admission`) and a PID-file singleton guard
(:mod:`repro.serve.pidfile`).  The simulated path is untouched: both share
the :class:`~repro.util.clock.Clock` abstraction, so the same stack,
session, KeyCom service and durable store run under either timescale.
"""

from repro.serve.client import ServeCallError, ServeClient
from repro.serve.pidfile import PidFile
from repro.serve.plane import ServePolicyPlane, decision_to_dict
from repro.serve.protocol import (
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    classify,
    decode_frame,
    encode_frame,
    error_response,
    make_event,
    make_request,
    ok_response,
)
from repro.serve.server import PeerInfo, ReproServer

__all__ = [
    "MAX_LINE_BYTES",
    "PROTOCOL_VERSION",
    "PeerInfo",
    "PidFile",
    "ReproServer",
    "ServeCallError",
    "ServeClient",
    "ServePolicyPlane",
    "classify",
    "decision_to_dict",
    "decode_frame",
    "encode_frame",
    "error_response",
    "make_event",
    "make_request",
    "ok_response",
]
