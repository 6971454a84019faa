"""Shared assertion: an :class:`RBACPolicy` answers exactly as the oracle.

With the hierarchy, every surface is compared against
:meth:`RBACOracle.from_policy`; without it (``use_hierarchy=False``),
against an oracle built from the same grants and assignments but no
edges.
"""

from repro.oracle.rbac_oracle import RBACOracle
from repro.rbac.policy import RBACPolicy


def assert_agrees_with_oracle(policy: RBACPolicy, users, roles, objects,
                              perms) -> None:
    oracle = RBACOracle.from_policy(policy)
    flat = RBACOracle(oracle.grants, oracle.assignments)
    vocabulary = {(g.object_type, g.permission) for g in policy.grants}
    requests = [(u, o, p) for u in users for o in objects for p in perms]
    for reference, use_hierarchy in ((oracle, True), (flat, False)):
        expected = [reference.check_access(u, o, p) for u, o, p in requests]
        assert policy.check_access_many(
            requests, use_hierarchy=use_hierarchy) == expected
        assert [policy.check_access(u, o, p, use_hierarchy=use_hierarchy)
                for u, o, p in requests] == expected
        for user in users:
            roles_of = policy.roles_of(user, use_hierarchy=use_hierarchy)
            assert ({(dr.domain, dr.role) for dr in roles_of}
                    == reference.roles_of(user))
        for role in roles:
            assert (policy.members_of(role.domain, role.role,
                                      use_hierarchy=use_hierarchy)
                    == reference.members_of(role.domain, role.role))
            held = {(g.object_type, g.permission)
                    for g in policy.permissions_of(
                        role.domain, role.role, use_hierarchy=use_hierarchy)}
            assert held == {(obj, perm) for obj, perm in vocabulary
                            if reference.role_has_permission(
                                role.domain, role.role, obj, perm)}
    for obj in objects:
        for perm in perms:
            assert (policy.authorised_users(obj, perm)
                    == oracle.authorised_users(obj, perm))
