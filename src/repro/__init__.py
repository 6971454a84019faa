"""Reproduction of *A Framework for Heterogeneous Middleware Security*
(Foley, Quillinan, O'Connor, Mulcahy, Morrison — IPPS 2004).

Secure WebCom coordinates middleware components across CORBA, EJB and
COM+/.NET, using the KeyNote trust-management system (with SPKI/SDSI as an
alternative) to give heterogeneous middleware a single, interoperable view of
RBAC authorisation.  This package rebuilds the whole system in Python:

- :mod:`repro.crypto` — Schnorr signatures and the PKI,
- :mod:`repro.rbac` — the Section-2 extended RBAC model,
- :mod:`repro.keynote` — the RFC-2704 trust-management engine,
- :mod:`repro.spki` — SPKI/SDSI certificates and chain reduction,
- :mod:`repro.os_sec` — simulated Unix and Windows security (L0),
- :mod:`repro.middleware` — CORBA / EJB / COM+ simulators (L1),
- :mod:`repro.translate` — the bidirectional policy translations,
- :mod:`repro.webcom` — condensed graphs, the metacomputer, Secure WebCom,
  KeyCOM, stacked authorisation and the IDE analysis,
- :mod:`repro.core` — the framework facade and the paper's scenarios.

Quickstart::

    from repro import HeterogeneousSecurityFramework, salaries_policy

    framework = HeterogeneousSecurityFramework()
    framework.configure(salaries_policy())
    assert framework.check_access_by_key(
        "Kbob", "Finance", "Manager", "SalariesDB", "read")
"""

from repro._lazy import lazy_facade

__version__ = "1.0.0"

#: public name -> the submodule defining it; each loads on first read, so
#: ``import repro.serve`` does not pay for the framework facade
_EXPORTS = {
    "AuthorisationStack": "webcom.stack",
    "CondensedGraph": "webcom.graph",
    "Credential": "keynote.credential",
    "GraphEngine": "webcom.engine",
    "HeterogeneousSecurityFramework": "core.framework",
    "KeyNoteSession": "keynote.api",
    "KeyPair": "crypto.keys",
    "Keystore": "crypto.keystore",
    "RBACPolicy": "rbac.policy",
    "SecureWebComEnvironment": "webcom.secure",
    "SimulatedNetwork": "webcom.network",
    "WebComClient": "webcom.node",
    "WebComIDE": "webcom.ide",
    "WebComMaster": "webcom.node",
    "build_figure9_network": "core.scenarios",
    "salaries_policy": "core.scenarios",
}

__all__ = [*_EXPORTS, "__version__"]

__getattr__, __dir__ = lazy_facade(__name__, _EXPORTS)
