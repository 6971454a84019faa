"""WebCom: the distributed metacomputing substrate and Secure WebCom on top.

WebCom applications are condensed graphs [21] whose nodes are middleware
components; a master schedules fireable nodes to clients across a (simulated)
network, and Secure WebCom mediates every scheduling decision through the
trust-management layer in both directions (Figure 3).

Modules:

- :mod:`repro.webcom.graph` — condensed graphs: nodes, ports, condensation.
- :mod:`repro.webcom.engine` — the graph execution engine
  (availability-, coercion- and control-driven firing).
- :mod:`repro.webcom.network` — deterministic simulated network with latency
  and fault injection.
- :mod:`repro.webcom.faults` — seeded fault plans (drop/duplicate/reorder/
  jitter/crash windows) for chaos testing.
- :mod:`repro.webcom.node` — WebCom masters and clients.
- :mod:`repro.webcom.secure` — the KeyNote handshake of Figure 3.
- :mod:`repro.webcom.keycom` — the KeyCOM administration service (Figure 8).
- :mod:`repro.webcom.stack` — stacked authorisation L0-L3 (Figure 10).
- :mod:`repro.webcom.ide` — IDE interrogation and placement (Figure 11).
- :mod:`repro.webcom.scenario` — a fully observed Figure-3 run (one
  correlated trace through master, network, client and stack; the substrate
  of ``repro trace`` / ``repro metrics``).
"""

from repro._lazy import lazy_facade

#: public name -> the submodule defining it, imported on first read
_EXPORTS = {
    "AuthorisationStack": "stack",
    "ComponentPalette": "ide",
    "CondensedGraph": "graph",
    "CrashWindow": "faults",
    "EvaluationMode": "engine",
    "FaultInjector": "faults",
    "FaultPlan": "faults",
    "FaultRule": "faults",
    "FrozenAttributes": "stack",
    "GraphCheckpoint": "failover",
    "GraphEngine": "engine",
    "GraphNode": "graph",
    "KeyComService": "keycom",
    "Layer": "stack",
    "MasterGroup": "failover",
    "MediationRequest": "stack",
    "Message": "network",
    "ObservedRun": "scenario",
    "PlacementSpec": "ide",
    "PolicyUpdateRequest": "keycom",
    "SecureWebComEnvironment": "secure",
    "SimulatedNetwork": "network",
    "WebComClient": "node",
    "WebComIDE": "ide",
    "WebComMaster": "node",
    "WorkflowGuard": "workflow",
    "WorkflowPolicy": "workflow",
    "run_observed_scenario": "scenario",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_facade(__name__, _EXPORTS)
