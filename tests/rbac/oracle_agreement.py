"""Shared assertion: an :class:`RBACPolicy` answers exactly as the oracle.

Every query surface is compared against :meth:`RBACOracle.from_policy`
over the same grants, assignments and hierarchy, and against a policy
whose engine is built from scratch over them.
"""

from repro.oracle.rbac_oracle import RBACOracle
from repro.rbac.policy import RBACPolicy


def rebuilt_policy(policy: RBACPolicy) -> RBACPolicy:
    """A fresh policy over ``policy``'s relations and a copy of its
    hierarchy (its engine is built on first query)."""
    rebuilt = RBACPolicy("rebuilt", hierarchy=policy.hierarchy.copy())
    for grant in policy.grants:
        rebuilt.add_grant(grant)
    for assignment in policy.assignments:
        rebuilt.add_assignment(assignment)
    return rebuilt


def _answers(policy: RBACPolicy, users, roles, objects, perms) -> tuple:
    """Every query surface of ``policy`` over the given vocabulary."""
    return ([policy.check_access(u, o, p)
             for u in users for o in objects for p in perms],
            [policy.roles_of(user) for user in users],
            [policy.members_of(r.domain, r.role) for r in roles],
            [policy.permissions_of(r.domain, r.role) for r in roles],
            [policy.role_has_permission(r.domain, r.role, o, p)
             for r in roles for o in objects for p in perms],
            [policy.authorised_users(o, p) for o in objects for p in perms])


def assert_agrees_with_oracle(policy: RBACPolicy, users, roles, objects,
                              perms) -> None:
    answers = _answers(policy, users, roles, objects, perms)
    assert answers == _answers(rebuilt_policy(policy), users, roles,
                               objects, perms)
    (access, roles_of, members_of, permissions_of, role_has_permission,
     authorised_users) = answers
    oracle = RBACOracle.from_policy(policy)
    assert access == [oracle.check_access(u, o, p)
                      for u in users for o in objects for p in perms]
    assert [{(dr.domain, dr.role) for dr in held} for held in roles_of] \
        == [oracle.roles_of(user) for user in users]
    assert members_of == [oracle.members_of(r.domain, r.role)
                          for r in roles]
    vocabulary = {(g.object_type, g.permission) for g in policy.grants}
    assert [{(g.object_type, g.permission) for g in held}
            for held in permissions_of] == [
        {(obj, perm) for obj, perm in vocabulary
         if oracle.role_has_permission(r.domain, r.role, obj, perm)}
        for r in roles]
    assert role_has_permission == [
        oracle.role_has_permission(r.domain, r.role, o, p)
        for r in roles for o in objects for p in perms]
    assert authorised_users == [oracle.authorised_users(o, p)
                                for o in objects for p in perms]
