"""The paper's primary contribution: a framework for heterogeneous
middleware security.

:class:`~repro.core.framework.HeterogeneousSecurityFramework` is the facade a
deployment uses; it wires the substrates together and exposes the five policy
services of Section 4:

- **configuration** (4.1) — commission a global policy across every
  registered middleware, and accept credential-backed updates (KeyCOM);
- **comprehension** (4.2) — synthesise the disparate native policies into one
  RBAC view and encode it as KeyNote credentials;
- **migration** (4.3) — move policies between middleware technologies;
- **maintenance** (4.4) — apply changes at the trust-management level and
  propagate them down the stack, checking global consistency;
- **decentralisation** (4.5) — delegation of authority between user keys
  without a human administrator.

:mod:`repro.core.scenarios` builds the paper's running examples (the
Figure-1 Salaries Database and the Figure-9 four-system network).
"""

from repro._lazy import lazy_facade

#: public name -> the submodule defining it, imported on first read
_EXPORTS = {
    "DelegationService": "decentralisation",
    "Figure9Network": "scenarios",
    "GlobalNameService": "naming",
    "HeterogeneousSecurityFramework": "framework",
    "SPKIDelegationService": "spki_backend",
    "build_figure9_network": "scenarios",
    "salaries_policy": "scenarios",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_facade(__name__, _EXPORTS)
