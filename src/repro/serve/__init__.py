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

from repro._lazy import lazy_facade

#: public name -> the submodule defining it, imported on first read
_EXPORTS = {
    "MAX_LINE_BYTES": "protocol",
    "PROTOCOL_VERSION": "protocol",
    "PeerInfo": "server",
    "PidFile": "pidfile",
    "ReproServer": "server",
    "ServeCallError": "client",
    "ServeClient": "client",
    "ServePolicyPlane": "plane",
    "classify": "protocol",
    "decision_to_dict": "plane",
    "decode_frame": "protocol",
    "encode_frame": "protocol",
    "error_response": "protocol",
    "make_event": "protocol",
    "make_request": "protocol",
    "ok_response": "protocol",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_facade(__name__, _EXPORTS)
