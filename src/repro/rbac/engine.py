"""A compiled, columnar RBAC engine (bitset evaluation).

Scanning the raw ``HasPermission`` / ``UserAssignment`` relations per
decision — ``roles_of`` walking every assignment, ``check_access`` every
grant — is the executable spec (:class:`~repro.oracle.rbac_oracle.
RBACOracle` does exactly that), but it caps cold-path throughput at large
universes.  Every :class:`~repro.rbac.policy.RBACPolicy` query routes here
instead: the *service interface stays stable* while the representation
underneath is columnar:

- users, domain-roles and ``(object_type, permission)`` pairs are interned
  into dense integer ids (interning is append-only — ids never move);
- each relation row becomes one set bit: ``_role_direct_perms[rid]`` is an
  int bitmask over permission ids, ``_user_direct_roles[uid]`` and
  ``_role_members[rid]`` bitmasks over role/user ids;
- the RBAC1 hierarchy closure is two bitmask columns (``_down`` /``_up``,
  inclusive) computed in topological order (O(edges) big-int ORs, no
  per-bit iteration), and computed again whenever the hierarchy changes:
  hierarchies arrive with the policy and are not edited under traffic,
  so one closure path serves every edge change;
- the derived column ``_role_closed_perms[rid]`` — the permissions a role
  holds *including its juniors* — is maintained **incrementally**: a grant
  delta ORs/rebuilds only the rows of the affected role's senior cone, an
  assignment delta touches two bitmasks, and every mutation evicts only
  the cached user masks of users holding an affected role.

Every decision is then bitwise: ``check_access`` is one AND+shift over a
memoised per-user effective mask, and ``authorised_users`` ORs the member
masks of the qualifying roles instead of re-deriving ``roles_of`` per
user.

The engine is *decision-identical* to the relational spec by construction
and by test: the PR 5 oracle differ and the hypothesis churn suite compare
it with the naive oracle answer by answer.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.rbac.hierarchy import RoleHierarchy
from repro.rbac.model import Assignment, DomainRole, Grant


def _iter_bits(mask: int) -> Iterator[int]:
    """Yield the indices of the set bits of ``mask`` (ascending)."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class RBACEngine:
    """Bitset-compiled view of one policy's relations and hierarchy.

    Built lazily by :class:`~repro.rbac.policy.RBACPolicy` on first
    compiled query, then kept in sync by O(delta) mutation calls.  The
    hierarchy is owned by the policy and may be mutated (or replaced)
    behind the engine's back, so every query entry point goes through
    :meth:`sync_hierarchy`, which recomputes the closure columns only when
    the hierarchy object or its :attr:`~RoleHierarchy.version` changed.
    """

    def __init__(self) -> None:
        # -- interning tables (append-only: ids are stable) ---------------
        self._role_ids: dict[DomainRole, int] = {}
        self._roles: list[DomainRole] = []
        self._user_ids: dict[str, int] = {}
        self._users: list[str] = []
        self._perm_ids: dict[tuple[str, str], int] = {}
        self._perms: list[tuple[str, str]] = []
        # -- relation columns (index = interned id) -----------------------
        self._role_direct_perms: list[int] = []   # rid -> perm-id bitmask
        self._user_direct_roles: list[int] = []   # uid -> role-id bitmask
        self._role_members: list[int] = []        # rid -> user-id bitmask
        # -- hierarchy closure columns (inclusive of the role itself) -----
        self._down: list[int] = []                # rid -> dominated cone
        self._up: list[int] = []                  # rid -> dominating cone
        # -- derived column: direct perms ORed over the downward cone -----
        self._role_closed_perms: list[int] = []
        self._hierarchy: RoleHierarchy | None = None
        self._hierarchy_version = -1
        #: per-user effective permission mask; mutations evict only the
        #: masks of users holding an affected role — the warm path of a
        #: Zipfian request mix is one dict hit + one AND, and it survives
        #: unrelated churn
        self._user_perm_cache: dict[int, int] = {}
        # -- observability -------------------------------------------------
        self.builds = 0
        self.hierarchy_rebuilds = 0
        self.deltas = 0
        self.mask_evictions = 0

    # -- construction ------------------------------------------------------

    @classmethod
    def from_relations(cls, grants: Iterable[Grant],
                       assignments: Iterable[Assignment],
                       hierarchy: RoleHierarchy) -> "RBACEngine":
        """Compile a relation snapshot (one pass, no closure yet)."""
        engine = cls()
        engine.builds += 1
        for grant in grants:
            engine._set_grant_bit(grant.domain_role,
                                  (grant.object_type, grant.permission))
        for assignment in assignments:
            engine._set_assignment_bits(assignment.user,
                                        assignment.domain_role)
        engine.sync_hierarchy(hierarchy)
        return engine

    # -- interning ---------------------------------------------------------

    def _role_id(self, role: DomainRole) -> int:
        rid = self._role_ids.get(role)
        if rid is None:
            rid = len(self._roles)
            self._role_ids[role] = rid
            self._roles.append(role)
            self._role_direct_perms.append(0)
            self._role_members.append(0)
            # A fresh role has no edges yet: its cones are itself.
            self._down.append(1 << rid)
            self._up.append(1 << rid)
            self._role_closed_perms.append(0)
        return rid

    def _user_id(self, user: str) -> int:
        uid = self._user_ids.get(user)
        if uid is None:
            uid = len(self._users)
            self._user_ids[user] = uid
            self._users.append(user)
            self._user_direct_roles.append(0)
        return uid

    def _perm_id(self, perm: tuple[str, str]) -> int:
        pid = self._perm_ids.get(perm)
        if pid is None:
            pid = len(self._perms)
            self._perm_ids[perm] = pid
            self._perms.append(perm)
        return pid

    # -- raw bit plumbing (no closure maintenance) -------------------------

    def _set_grant_bit(self, role: DomainRole, perm: tuple[str, str]) -> None:
        rid = self._role_id(role)
        self._role_direct_perms[rid] |= 1 << self._perm_id(perm)

    def _set_assignment_bits(self, user: str, role: DomainRole) -> None:
        uid = self._user_id(user)
        rid = self._role_id(role)
        self._user_direct_roles[uid] |= 1 << rid
        self._role_members[rid] |= 1 << uid

    # -- hierarchy compilation ---------------------------------------------

    def sync_hierarchy(self, hierarchy: RoleHierarchy) -> None:
        """Bring the closure columns up to date with the hierarchy.

        Cheap in the common case: one identity check plus one integer
        compare.  When the hierarchy object was swapped out or its version
        moved, the closure is rebuilt in topological order — O(edges)
        big-int ORs, every cached user mask dropped; the relation columns
        are untouched.
        """
        if (self._hierarchy is hierarchy
                and self._hierarchy_version == hierarchy.version):
            return
        self._hierarchy = hierarchy
        self._hierarchy_version = hierarchy.version
        self.hierarchy_rebuilds += 1
        # Roles mentioned only in hierarchy edges still shape closures
        # (roles_of must surface junior roles that hold no grants), so
        # they are interned before the columns are sized.
        edges = [(self._role_id(senior), self._role_id(junior))
                 for senior, junior in hierarchy.edges()]
        n = len(self._roles)
        down = [1 << rid for rid in range(n)]
        up = [1 << rid for rid in range(n)]
        closed = list(self._role_direct_perms)
        children: list[list[int]] = [[] for _ in range(n)]
        parents: list[list[int]] = [[] for _ in range(n)]
        for s, j in edges:
            children[s].append(j)
            parents[j].append(s)
        for rid in self._topological(children):
            for child in children[rid]:
                down[rid] |= down[child]
                closed[rid] |= closed[child]
        for rid in self._topological(parents):
            for parent in parents[rid]:
                up[rid] |= up[parent]
        self._down = down
        self._up = up
        self._role_closed_perms = closed
        self._user_perm_cache.clear()

    @staticmethod
    def _topological(successors: list[list[int]]) -> list[int]:
        """Reverse-post-order over a DAG, iterative (hierarchies can be
        deep chains; recursion would overflow)."""
        n = len(successors)
        order: list[int] = []
        state = bytearray(n)  # 0 unvisited, 1 on stack, 2 done
        for root in range(n):
            if state[root]:
                continue
            stack: list[tuple[int, int]] = [(root, 0)]
            state[root] = 1
            while stack:
                node, index = stack[-1]
                if index < len(successors[node]):
                    stack[-1] = (node, index + 1)
                    succ = successors[node][index]
                    if not state[succ]:
                        state[succ] = 1
                        stack.append((succ, 0))
                else:
                    stack.pop()
                    state[node] = 2
                    order.append(node)
        return order  # successors of a node always precede it

    def _evict_user_masks(self, role_mask: int) -> None:
        """Selective `_user_perm_cache` eviction: only users directly
        assigned to a role whose closed row changed can have a stale
        mask.  Iterates whichever side is smaller — the affected-user
        bitset or the cache itself."""
        cache = self._user_perm_cache
        if not cache:
            return
        affected = 0
        members = self._role_members
        for rid in _iter_bits(role_mask):
            affected |= members[rid]
        if not affected:
            return
        evicted = 0
        if affected.bit_count() < len(cache):
            for uid in _iter_bits(affected):
                if cache.pop(uid, None) is not None:
                    evicted += 1
        else:
            stale = [uid for uid in cache if (affected >> uid) & 1]
            for uid in stale:
                del cache[uid]
            evicted = len(stale)
        self.mask_evictions += evicted

    # -- incremental mutation (O(delta)) -----------------------------------

    def add_grant(self, grant: Grant) -> None:
        """One new ``HasPermission`` bit: OR it into the affected role and
        every role in its senior cone (monotone — no recompute)."""
        rid = self._role_id(grant.domain_role)
        bit = 1 << self._perm_id((grant.object_type, grant.permission))
        self._role_direct_perms[rid] |= bit
        for senior in _iter_bits(self._up[rid]):
            self._role_closed_perms[senior] |= bit
        self._evict_user_masks(self._up[rid])
        self.deltas += 1

    def remove_grant(self, grant: Grant) -> None:
        """Revocation is not monotone: re-derive the closed column for the
        senior cone of the affected role only (everything else is
        untouched)."""
        rid = self._role_ids.get(grant.domain_role)
        pid = self._perm_ids.get((grant.object_type, grant.permission))
        if rid is None or pid is None:
            return
        self._role_direct_perms[rid] &= ~(1 << pid)
        direct = self._role_direct_perms
        down = self._down
        for senior in _iter_bits(self._up[rid]):
            mask = 0
            for member in _iter_bits(down[senior]):
                mask |= direct[member]
            self._role_closed_perms[senior] = mask
        self._evict_user_masks(self._up[rid])
        self.deltas += 1

    def add_assignment(self, assignment: Assignment) -> None:
        """One new ``UserAssignment`` bit (two bitmask ORs)."""
        self._set_assignment_bits(assignment.user, assignment.domain_role)
        uid = self._user_ids[assignment.user]
        self._user_perm_cache.pop(uid, None)
        self.deltas += 1

    def remove_assignment(self, assignment: Assignment) -> None:
        """Clear one ``UserAssignment`` bit."""
        uid = self._user_ids.get(assignment.user)
        rid = self._role_ids.get(assignment.domain_role)
        if uid is None or rid is None:
            return
        self._user_direct_roles[uid] &= ~(1 << rid)
        self._role_members[rid] &= ~(1 << uid)
        self._user_perm_cache.pop(uid, None)
        self.deltas += 1

    def remove_user(self, user: str) -> None:
        """Drop every assignment of ``user`` (the paper's revocation op)."""
        uid = self._user_ids.get(user)
        if uid is None:
            return
        mask = self._user_direct_roles[uid]
        for rid in _iter_bits(mask):
            self._role_members[rid] &= ~(1 << uid)
        self._user_direct_roles[uid] = 0
        self._user_perm_cache.pop(uid, None)
        self.deltas += 1

    # -- queries -----------------------------------------------------------

    def _user_perm_mask(self, uid: int) -> int:
        """Effective permission mask of a user (memoised per mutation
        epoch): OR of the closed columns of the directly assigned roles."""
        cached = self._user_perm_cache.get(uid)
        if cached is not None:
            return cached
        mask = 0
        closed = self._role_closed_perms
        for rid in _iter_bits(self._user_direct_roles[uid]):
            mask |= closed[rid]
        self._user_perm_cache[uid] = mask
        return mask

    def check_access(self, user: str, object_type: str,
                     permission: str) -> bool:
        """The fundamental decision as one AND+shift."""
        uid = self._user_ids.get(user)
        pid = self._perm_ids.get((object_type, permission))
        if uid is None or pid is None:
            return False
        return (self._user_perm_mask(uid) >> pid) & 1 == 1

    def roles_of(self, user: str) -> set[DomainRole]:
        """Direct assignments closed downward."""
        uid = self._user_ids.get(user)
        if uid is None:
            return set()
        mask = 0
        down = self._down
        for rid in _iter_bits(self._user_direct_roles[uid]):
            mask |= down[rid]
        roles = self._roles
        return {roles[rid] for rid in _iter_bits(mask)}

    def permissions_of(self, domain: str, role: str) -> set[Grant]:
        """Grant rows held by (domain, role), directly or via juniors.

        Rows keep their *own* domain/role (a senior sees the junior's
        grant as the junior's row), matching the relational semantics.
        """
        rid = self._role_ids.get(DomainRole(domain, role))
        if rid is None:
            return set()
        grants: set[Grant] = set()
        roles = self._roles
        perms = self._perms
        direct = self._role_direct_perms
        for member in _iter_bits(self._down[rid]):
            holder = roles[member]
            for pid in _iter_bits(direct[member]):
                object_type, permission = perms[pid]
                grants.add(Grant(holder.domain, holder.role,
                                 object_type, permission))
        return grants

    def role_has_permission(self, domain: str, role: str, object_type: str,
                            permission: str) -> bool:
        """Single-bit probe of the closed role-permission column."""
        rid = self._role_ids.get(DomainRole(domain, role))
        pid = self._perm_ids.get((object_type, permission))
        if rid is None or pid is None:
            return False
        return (self._role_closed_perms[rid] >> pid) & 1 == 1

    def members_of(self, domain: str, role: str) -> set[str]:
        """Users assigned to (domain, role) or to a senior of it."""
        rid = self._role_ids.get(DomainRole(domain, role))
        if rid is None:
            return set()
        mask = 0
        members = self._role_members
        for senior in _iter_bits(self._up[rid]):
            mask |= members[senior]
        users = self._users
        return {users[uid] for uid in _iter_bits(mask)}

    def authorised_users(self, object_type: str, permission: str) -> set[str]:
        """All users allowed (object_type, permission): OR the member masks
        of every role whose closed column holds the bit — one pass over
        roles, no per-user closure."""
        pid = self._perm_ids.get((object_type, permission))
        if pid is None:
            return set()
        mask = 0
        members = self._role_members
        for rid, closed in enumerate(self._role_closed_perms):
            if (closed >> pid) & 1:
                mask |= members[rid]
        users = self._users
        return {users[uid] for uid in _iter_bits(mask)}

    # -- observability -----------------------------------------------------

    def stats(self) -> dict[str, int]:
        """Interning sizes and maintenance counters (for ``status`` and
        the bench artifact)."""
        return {
            "users": len(self._users),
            "roles": len(self._roles),
            "perms": len(self._perms),
            "builds": self.builds,
            "hierarchy_rebuilds": self.hierarchy_rebuilds,
            "deltas": self.deltas,
            "mask_evictions": self.mask_evictions,
            "cached_user_masks": len(self._user_perm_cache),
        }
