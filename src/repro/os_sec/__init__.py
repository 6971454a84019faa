"""Simulated operating-system security (the L0 layer of Figure 10).

Two substrates, matching the platforms in the paper's Figure 9:

- :mod:`repro.os_sec.unixlike` — ``OS(U)``: users, groups and rwx permission
  bits on named objects.
- :mod:`repro.os_sec.windows` — ``OS(W)``: NT domains, SIDs, groups and
  discretionary ACLs with allow/deny ACEs; COM+'s RBAC model (Section 2) is
  "an extension of the Windows security model", so the COM+ simulator builds
  on this module.

Both implement :class:`repro.os_sec.base.OperatingSystemSecurity`, the
interface the stacked-authorisation layer mediates through.
"""

from repro._lazy import lazy_facade

#: public name -> the submodule defining it, imported on first read
_EXPORTS = {
    "AccessControlEntry": "windows",
    "AccessRequest": "base",
    "OperatingSystemSecurity": "base",
    "UnixSecurity": "unixlike",
    "WindowsSecurity": "windows",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_facade(__name__, _EXPORTS)
