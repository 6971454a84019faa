"""The RBAC policy: the two relations of Section 2 plus queries.

An :class:`RBACPolicy` is the paper's canonical policy form — the common
format every middleware policy is interpreted into and translated out of.

Every query is answered by a lazily built
:class:`~repro.rbac.engine.RBACEngine` that interns users/roles/
permissions into dense ids and answers each decision with bitmask
operations, maintained incrementally by the mutators below (O(delta) per
grant/assign/revoke, no rebuild).  The reference semantics live only in
:class:`~repro.oracle.rbac_oracle.RBACOracle`; the conformance differ and
the engine test suites require identical answers from both.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator

from repro.errors import UnknownRoleError
from repro.rbac.hierarchy import RoleHierarchy
from repro.rbac.model import Assignment, DomainRole, Grant
from repro.util.text import format_table

if TYPE_CHECKING:  # pragma: no cover
    from repro.rbac.engine import RBACEngine


class RBACPolicy:
    """HasPermission + UserAssignment relations with query support.

    >>> p = RBACPolicy()
    >>> p.grant("Finance", "Clerk", "SalariesDB", "write")
    >>> p.assign("Alice", "Finance", "Clerk")
    >>> p.check_access("Alice", "SalariesDB", "write")
    True
    >>> p.check_access("Alice", "SalariesDB", "read")
    False
    """

    def __init__(self, name: str = "policy",
                 hierarchy: RoleHierarchy | None = None) -> None:
        self.name = name
        self._grants: set[Grant] = set()
        self._assignments: set[Assignment] = set()
        self.hierarchy = hierarchy if hierarchy is not None else RoleHierarchy()
        #: optional durability hook ``journal(kind, **payload)`` — when
        #: bound (see :mod:`repro.store.durable`), every relation delta is
        #: written ahead to the store *before* it mutates the in-memory
        #: sets, so a crashed node replays exactly its acknowledged facts
        self.journal = None
        self._engine: "RBACEngine | None" = None

    # -- engine plumbing ---------------------------------------------------

    def engine(self) -> "RBACEngine":
        """The live engine, built on first query and kept in sync with the
        (possibly externally mutated) hierarchy."""
        if self._engine is None:
            from repro.rbac.engine import RBACEngine
            self._engine = RBACEngine.from_relations(
                self._grants, self._assignments, self.hierarchy)
        else:
            self._engine.sync_hierarchy(self.hierarchy)
        return self._engine

    def engine_stats(self) -> "dict[str, int] | None":
        """Interning/maintenance counters of the live engine (None when
        not yet built) — no build is forced."""
        if self._engine is None:
            return None
        return self._engine.stats()

    # -- mutation ----------------------------------------------------------

    def _log(self, kind: str, **payload: str) -> None:
        if self.journal is not None:
            self.journal(kind, **payload)

    def grant(self, domain: str, role: str, object_type: str,
              permission: str) -> None:
        """Add a ``HasPermission`` fact."""
        g = Grant(domain, role, object_type, permission)
        if g not in self._grants:
            self._log("rbac.grant", domain=domain, role=role,
                      object_type=object_type, permission=permission)
            self._grants.add(g)
            if self._engine is not None:
                self._engine.add_grant(g)

    def revoke_grant(self, domain: str, role: str, object_type: str,
                     permission: str) -> bool:
        """Remove a ``HasPermission`` fact; return True if it was present."""
        g = Grant(domain, role, object_type, permission)
        if g in self._grants:
            self._log("rbac.revoke_grant", domain=domain, role=role,
                      object_type=object_type, permission=permission)
            self._grants.remove(g)
            if self._engine is not None:
                self._engine.remove_grant(g)
            return True
        return False

    def assign(self, user: str, domain: str, role: str) -> None:
        """Add a ``UserAssignment`` fact."""
        a = Assignment(user, domain, role)
        if a not in self._assignments:
            self._log("rbac.assign", user=user, domain=domain, role=role)
            self._assignments.add(a)
            if self._engine is not None:
                self._engine.add_assignment(a)

    def unassign(self, user: str, domain: str, role: str) -> bool:
        """Remove a ``UserAssignment`` fact; return True if it was present."""
        a = Assignment(user, domain, role)
        if a in self._assignments:
            self._log("rbac.unassign", user=user, domain=domain, role=role)
            self._assignments.remove(a)
            if self._engine is not None:
                self._engine.remove_assignment(a)
            return True
        return False

    def revoke_user(self, user: str) -> int:
        """Remove every assignment of ``user``; return how many were dropped.

        This is the RBAC administrator operation the paper highlights:
        revoking a user's rights without touching object permissions.
        """
        doomed = {a for a in self._assignments if a.user == user}
        if doomed:
            self._log("rbac.revoke_user", user=user)
            self._assignments -= doomed
            if self._engine is not None:
                self._engine.remove_user(user)
        return len(doomed)

    def add_grant(self, grant: Grant) -> None:
        """Add a pre-built :class:`Grant`."""
        if grant not in self._grants:
            self._log("rbac.grant", domain=grant.domain, role=grant.role,
                      object_type=grant.object_type,
                      permission=grant.permission)
            self._grants.add(grant)
            if self._engine is not None:
                self._engine.add_grant(grant)

    def add_assignment(self, assignment: Assignment) -> None:
        """Add a pre-built :class:`Assignment`."""
        if assignment not in self._assignments:
            self._log("rbac.assign", user=assignment.user,
                      domain=assignment.domain, role=assignment.role)
            self._assignments.add(assignment)
            if self._engine is not None:
                self._engine.add_assignment(assignment)

    # -- relations ---------------------------------------------------------

    @property
    def grants(self) -> frozenset[Grant]:
        """The ``HasPermission`` relation."""
        return frozenset(self._grants)

    @property
    def assignments(self) -> frozenset[Assignment]:
        """The ``UserAssignment`` relation."""
        return frozenset(self._assignments)

    def sorted_grants(self) -> list[Grant]:
        """Grants in deterministic order (for tables and serialisation)."""
        return sorted(self._grants)

    def sorted_assignments(self) -> list[Assignment]:
        """Assignments in deterministic order."""
        return sorted(self._assignments)

    # -- vocabulary --------------------------------------------------------

    def domains(self) -> set[str]:
        """All domains mentioned anywhere in the policy."""
        return ({g.domain for g in self._grants}
                | {a.domain for a in self._assignments})

    def domain_roles(self) -> set[DomainRole]:
        """All (domain, role) pairs mentioned anywhere in the policy."""
        return ({g.domain_role for g in self._grants}
                | {a.domain_role for a in self._assignments})

    def users(self) -> set[str]:
        """All users with at least one assignment."""
        return {a.user for a in self._assignments}

    def object_types(self) -> set[str]:
        """All object types mentioned in grants."""
        return {g.object_type for g in self._grants}

    def permissions_of(self, domain: str, role: str) -> set[Grant]:
        """Grants held by (domain, role), directly or via the role
        hierarchy."""
        return self.engine().permissions_of(domain, role)

    def roles_of(self, user: str) -> set[DomainRole]:
        """Domain-roles ``user`` is a member of (direct plus inherited)."""
        return self.engine().roles_of(user)

    def members_of(self, domain: str, role: str) -> set[str]:
        """Users assigned to (domain, role), including via senior roles."""
        return self.engine().members_of(domain, role)

    # -- decisions ---------------------------------------------------------

    def role_has_permission(self, domain: str, role: str, object_type: str,
                            permission: str) -> bool:
        """True if (domain, role) holds ``permission`` on ``object_type``."""
        return self.engine().role_has_permission(
            domain, role, object_type, permission)

    def check_access(self, user: str, object_type: str,
                     permission: str) -> bool:
        """The fundamental RBAC decision: may ``user`` exercise
        ``permission`` on objects of ``object_type``?"""
        return self.engine().check_access(user, object_type, permission)

    def authorised_users(self, object_type: str, permission: str) -> set[str]:
        """All users who may exercise ``permission`` on ``object_type``."""
        return self.engine().authorised_users(object_type, permission)

    def require_role(self, domain: str, role: str) -> DomainRole:
        """Return the (domain, role) pair, raising if unknown.

        :raises UnknownRoleError: if the pair appears nowhere in the policy.
        """
        dr = DomainRole(domain, role)
        if dr not in self.domain_roles():
            raise UnknownRoleError(f"unknown domain-role {dr}")
        return dr

    # -- set-like behaviour --------------------------------------------------

    def copy(self, name: str | None = None) -> "RBACPolicy":
        """Deep copy (hierarchy included)."""
        other = RBACPolicy(name or self.name, hierarchy=self.hierarchy.copy())
        other._grants = set(self._grants)
        other._assignments = set(self._assignments)
        return other

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RBACPolicy):
            return NotImplemented
        return (self._grants == other._grants
                and self._assignments == other._assignments)

    def __hash__(self) -> int:  # policies are mutable; identity hash
        return id(self)

    def __len__(self) -> int:
        return len(self._grants) + len(self._assignments)

    def __iter__(self) -> Iterator[Grant | Assignment]:
        yield from self.sorted_grants()
        yield from self.sorted_assignments()

    def is_empty(self) -> bool:
        """True if both relations are empty."""
        return not self._grants and not self._assignments

    # -- bulk construction ---------------------------------------------------

    @classmethod
    def from_relations(cls, name: str,
                       grants: Iterable[tuple[str, str, str, str]],
                       assignments: Iterable[tuple[str, str, str]],
                       ) -> "RBACPolicy":
        """Build a policy from plain tuples (as the paper's tables read)."""
        policy = cls(name)
        for domain, role, object_type, permission in grants:
            policy.grant(domain, role, object_type, permission)
        for user, domain, role in assignments:
            policy.assign(user, domain, role)
        return policy

    # -- presentation --------------------------------------------------------

    def has_permission_table(self) -> str:
        """Render the ``HasPermission`` relation as a Figure-1 style table."""
        return format_table(
            ["Domain", "Role", "ObjectType", "Permission"],
            [(g.domain, g.role, g.object_type, g.permission)
             for g in self.sorted_grants()])

    def user_assignment_table(self) -> str:
        """Render the ``UserAssignment`` relation as a Figure-1 style table."""
        return format_table(
            ["Domain", "Role", "User"],
            [(a.domain, a.role, a.user) for a in self.sorted_assignments()])

    def __repr__(self) -> str:
        return (f"RBACPolicy({self.name!r}, grants={len(self._grants)}, "
                f"assignments={len(self._assignments)})")
