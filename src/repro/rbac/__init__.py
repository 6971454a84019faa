"""The paper's extended RBAC model (Section 2).

RBAC extended with ``Domain`` and ``ObjectType``::

    HasPermission  ⊆ Domain × Role × ObjectType × Permission
    UserAssignment ⊆ User × Domain × Role

where ``HasPermission(d, r, t, p)`` means role ``r`` in domain ``d`` holds
permission ``p`` on objects of type ``t``, and ``UserAssignment(u, d, r)``
means user ``u`` is assigned to the domain-role pair ``(d, r)``.

This package also provides the standard RBAC machinery the paper's middleware
substrates rely on: role hierarchies, sessions, separation-of-duty
constraints, and policy diff/merge for maintenance.
"""

from repro._lazy import lazy_facade

#: public name -> the submodule defining it, imported on first read
_EXPORTS = {
    "Assignment": "model",
    "DomainRole": "model",
    "Grant": "model",
    "ObjectType": "model",
    "Permission": "model",
    "PolicyDelta": "diff",
    "RBACPolicy": "policy",
    "RoleHierarchy": "hierarchy",
    "Session": "sessions",
    "SessionManager": "sessions",
    "SoDConstraint": "constraints",
    "diff_policies": "diff",
    "merge_policies": "diff",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_facade(__name__, _EXPORTS)
