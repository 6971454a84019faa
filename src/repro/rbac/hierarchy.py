"""Role hierarchies (RBAC1).

A senior role inherits the permissions of its juniors, and a member of a
senior role is implicitly a member of the juniors.  The paper's middleware
models are flat, but hierarchies are part of the standard RBAC machinery
([26]) that the framework's comprehension layer can target, and the COM+
simulator uses a small hierarchy for its built-in Administrators role.

Both edge directions are indexed: ``_juniors`` (senior → junior, as
declared) and ``_seniors`` (the transpose, maintained alongside), so both
:meth:`RoleHierarchy.juniors` and :meth:`RoleHierarchy.seniors` are a single
BFS over an adjacency map rather than a repeated-scan fixpoint, and
:meth:`RoleHierarchy.dominates` stops the walk as soon as the target is
reached instead of materialising the full closure.  A :attr:`version`
counter is bumped on every edge change (a re-declared edge changes
nothing and bumps nothing); the compiled RBAC engine
(:mod:`repro.rbac.engine`) keys its cached hierarchy closure on it and
rebuilds that closure when it moves.
"""

from __future__ import annotations

from typing import Iterable

from repro.errors import HierarchyError
from repro.rbac.model import DomainRole


def _bfs(adjacency: dict[DomainRole, set[DomainRole]],
         start: DomainRole) -> set[DomainRole]:
    """Transitive closure of ``start`` over ``adjacency`` (exclusive)."""
    seen: set[DomainRole] = set()
    stack = list(adjacency.get(start, ()))
    while stack:
        current = stack.pop()
        if current in seen:
            continue
        seen.add(current)
        stack.extend(adjacency.get(current, ()))
    return seen


class RoleHierarchy:
    """A DAG over :class:`DomainRole` where edges point senior → junior."""

    def __init__(self) -> None:
        self._juniors: dict[DomainRole, set[DomainRole]] = {}
        self._seniors: dict[DomainRole, set[DomainRole]] = {}
        self._version = 0

    @property
    def version(self) -> int:
        """Bumped on every edge that is added or removed (closure-cache
        key)."""
        return self._version

    def add_inheritance(self, senior: DomainRole, junior: DomainRole) -> None:
        """Declare that ``senior`` inherits from (dominates) ``junior``.

        Declaring an edge that is already present is a no-op.

        :raises HierarchyError: if the edge would create a cycle or a
            self-loop.
        """
        if senior == junior:
            raise HierarchyError(f"role {senior} cannot inherit from itself")
        if junior in self._juniors.get(senior, ()):
            return
        if self.dominates(junior, senior):
            raise HierarchyError(
                f"edge {senior} -> {junior} would create a cycle")
        self._juniors.setdefault(senior, set()).add(junior)
        self._seniors.setdefault(junior, set()).add(senior)
        self._version += 1

    def remove_inheritance(self, senior: DomainRole, junior: DomainRole) -> bool:
        """Remove a direct edge; return True if it existed."""
        juniors = self._juniors.get(senior)
        if juniors and junior in juniors:
            juniors.remove(junior)
            if not juniors:
                del self._juniors[senior]
            seniors = self._seniors[junior]
            seniors.remove(senior)
            if not seniors:
                del self._seniors[junior]
            self._version += 1
            return True
        return False

    def direct_juniors(self, role: DomainRole) -> frozenset[DomainRole]:
        """Roles directly dominated by ``role``."""
        return frozenset(self._juniors.get(role, frozenset()))

    def direct_seniors(self, role: DomainRole) -> frozenset[DomainRole]:
        """Roles directly dominating ``role``."""
        return frozenset(self._seniors.get(role, frozenset()))

    def juniors(self, role: DomainRole) -> set[DomainRole]:
        """Transitive closure of roles dominated by ``role`` (exclusive)."""
        return _bfs(self._juniors, role)

    def seniors(self, role: DomainRole) -> set[DomainRole]:
        """Transitive closure of roles that dominate ``role`` (exclusive)."""
        return _bfs(self._seniors, role)

    def dominates(self, senior: DomainRole, junior: DomainRole) -> bool:
        """True if ``senior`` equals or transitively dominates ``junior``.

        Early-exit search: stops as soon as ``junior`` is reached rather
        than materialising the full downward closure of ``senior``.
        """
        if senior == junior:
            return True
        seen: set[DomainRole] = set()
        stack = list(self._juniors.get(senior, ()))
        while stack:
            current = stack.pop()
            if current == junior:
                return True
            if current in seen:
                continue
            seen.add(current)
            stack.extend(self._juniors.get(current, ()))
        return False

    def edges(self) -> Iterable[tuple[DomainRole, DomainRole]]:
        """All direct (senior, junior) edges in deterministic order."""
        for senior in sorted(self._juniors):
            for junior in sorted(self._juniors[senior]):
                yield senior, junior

    def is_empty(self) -> bool:
        """True if no inheritance edges exist."""
        return not self._juniors

    def copy(self) -> "RoleHierarchy":
        """Deep copy."""
        other = RoleHierarchy()
        other._juniors = {k: set(v) for k, v in self._juniors.items()}
        other._seniors = {k: set(v) for k, v in self._seniors.items()}
        other._version = self._version
        return other

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RoleHierarchy):
            return NotImplemented
        return self._juniors == other._juniors

    def __repr__(self) -> str:
        return f"RoleHierarchy(edges={sum(len(v) for v in self._juniors.values())})"
