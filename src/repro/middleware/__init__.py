"""Middleware simulators (the L1 layer): CORBA, EJB and COM+/.NET.

The paper interprets each middleware's native security configuration into the
extended RBAC model of Section 2.  Each simulator here provides:

- a *native* policy store shaped like the real technology (deployment
  descriptors for EJB, required-rights tables for CORBA, the COM+ catalogue
  over NT domains for COM+),
- invocation mediation (``check_invocation``) against that native store,
- ``extract_rbac()`` — the Section-2 interpretation used by Policy
  Comprehension, and
- ``apply_rbac()`` / ``apply_assignment()`` — used by Policy Configuration
  and the KeyCOM service to push credentials down into the native store.
"""

from repro._lazy import lazy_facade

#: public name -> the submodule defining it, imported on first read
_EXPORTS = {
    "ComPlusCatalogue": "complus",
    "CorbaOrb": "corba",
    "EJBServer": "ejb",
    "Invocation": "base",
    "Middleware": "base",
    "MiddlewareComponent": "base",
    "MiddlewareRegistry": "registry",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_facade(__name__, _EXPORTS)
