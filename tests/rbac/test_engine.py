"""Tests for the compiled bitset RBAC engine (PR 8).

Every query is cross-checked three ways: the engine behind
:class:`RBACPolicy`, the naive :class:`RBACOracle` over the same
relations, and an engine built from scratch over the same final
relations and hierarchy — under deterministic churn sequences including
hierarchy edge removal.
"""

import random

import pytest

from repro.errors import HierarchyError
from repro.rbac.engine import RBACEngine
from repro.rbac.hierarchy import RoleHierarchy
from repro.rbac.model import Assignment, DomainRole, Grant
from repro.rbac.policy import RBACPolicy
from tests.rbac.oracle_agreement import assert_agrees_with_oracle

USERS = [f"u{i}" for i in range(12)]
ROLES = [DomainRole("d", f"r{i}") for i in range(8)]
OBJECTS = ["invoice", "ledger", "queue"]
PERMS = ["read", "write"]


def _churn_policy(seed: int, steps: int = 60) -> RBACPolicy:
    """Drive a policy through seeded mutations, checking the three-way
    agreement after every step."""
    rng = random.Random(seed)
    policy = RBACPolicy("churn")
    # Touch the engine early so every later mutation exercises the
    # incremental delta paths rather than a fresh build.
    policy.check_access(USERS[0], OBJECTS[0], PERMS[0])
    for _ in range(steps):
        action = rng.randrange(7)
        role = rng.choice(ROLES)
        if action == 0:
            policy.grant(role.domain, role.role, rng.choice(OBJECTS),
                         rng.choice(PERMS))
        elif action == 1:
            policy.revoke_grant(role.domain, role.role, rng.choice(OBJECTS),
                                rng.choice(PERMS))
        elif action == 2:
            policy.assign(rng.choice(USERS), role.domain, role.role)
        elif action == 3:
            policy.unassign(rng.choice(USERS), role.domain, role.role)
        elif action == 4:
            policy.revoke_user(rng.choice(USERS))
        elif action == 5:
            senior, junior = rng.sample(ROLES, 2)
            try:
                policy.hierarchy.add_inheritance(senior, junior)
            except HierarchyError:
                pass
        else:
            senior, junior = rng.sample(ROLES, 2)
            policy.hierarchy.remove_inheritance(senior, junior)
        assert_agrees_with_oracle(policy, USERS, ROLES, OBJECTS, PERMS)
    return policy


class TestChurnEquivalence:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_three_way_agreement_under_churn(self, seed):
        policy = _churn_policy(seed)
        stats = policy.engine_stats()
        assert stats is not None
        assert stats["builds"] == 1  # mutations were deltas, not rebuilds
        assert stats["deltas"] > 0

    def test_hierarchy_removal_rebuilds_the_closure(self):
        policy = RBACPolicy("h")
        senior, junior = ROLES[0], ROLES[1]
        policy.hierarchy.add_inheritance(senior, junior)
        policy.grant(junior.domain, junior.role, "invoice", "read")
        policy.assign("alice", senior.domain, senior.role)
        assert policy.check_access("alice", "invoice", "read")
        rebuilds = policy.engine_stats()["hierarchy_rebuilds"]
        policy.hierarchy.remove_inheritance(senior, junior)
        # The revoked inheritance takes effect...
        assert not policy.check_access("alice", "invoice", "read")
        stats = policy.engine_stats()
        # ...through one closure rebuild of the same engine.
        assert stats["hierarchy_rebuilds"] == rebuilds + 1
        assert stats["builds"] == 1

    def test_redeclared_edge_is_a_no_op(self):
        policy = RBACPolicy("h")
        senior, junior = ROLES[0], ROLES[1]
        policy.hierarchy.add_inheritance(senior, junior)
        policy.grant(junior.domain, junior.role, "invoice", "read")
        policy.assign("alice", senior.domain, senior.role)
        assert policy.check_access("alice", "invoice", "read")
        version = policy.hierarchy.version
        rebuilds = policy.engine_stats()["hierarchy_rebuilds"]
        policy.hierarchy.add_inheritance(senior, junior)
        assert policy.hierarchy.version == version
        assert policy.check_access("alice", "invoice", "read")
        assert policy.engine_stats()["hierarchy_rebuilds"] == rebuilds


class TestEngineDirect:
    def test_from_relations_matches_incremental(self):
        grants = [Grant("d", "r0", "invoice", "read"),
                  Grant("d", "r1", "ledger", "write")]
        assignments = [Assignment("alice", "d", "r0"),
                       Assignment("bob", "d", "r1")]
        hierarchy = RoleHierarchy()
        hierarchy.add_inheritance(ROLES[0], ROLES[1])
        bulk = RBACEngine.from_relations(grants, assignments, hierarchy)
        incremental = RBACEngine()
        for grant in grants:
            incremental.add_grant(grant)
        for assignment in assignments:
            incremental.add_assignment(assignment)
        incremental.sync_hierarchy(hierarchy)
        for user in ("alice", "bob", "nobody"):
            for obj in ("invoice", "ledger"):
                for perm in ("read", "write"):
                    assert (bulk.check_access(user, obj, perm)
                            == incremental.check_access(user, obj, perm))
        assert bulk.authorised_users("ledger", "write") \
            == incremental.authorised_users("ledger", "write") \
            == {"alice", "bob"}

    def test_unknown_names_deny_cleanly(self):
        engine = RBACEngine()
        assert not engine.check_access("ghost", "invoice", "read")
        assert engine.roles_of("ghost") == set()
        assert engine.permissions_of("d", "missing") == set()
        assert engine.authorised_users("invoice", "read") == set()

    def test_external_hierarchy_mutation_is_picked_up(self):
        hierarchy = RoleHierarchy()
        engine = RBACEngine.from_relations(
            [Grant("d", "r1", "invoice", "read")],
            [Assignment("alice", "d", "r0")], hierarchy)
        assert not engine.check_access("alice", "invoice", "read")
        hierarchy.add_inheritance(ROLES[0], ROLES[1])
        engine.sync_hierarchy(hierarchy)
        assert engine.check_access("alice", "invoice", "read")


class TestCompiledFlag:
    def test_copy_preserves_flag_and_rebuilds_lazily(self):
        """A copy answers through its own engine, built on first query."""
        policy = RBACPolicy("p")
        policy.grant("d", "r0", "invoice", "read")
        policy.assign("alice", "d", "r0")
        assert policy.check_access("alice", "invoice", "read")
        clone = policy.copy()
        assert clone.engine_stats() is None  # engine not yet built
        assert clone.check_access("alice", "invoice", "read")
        assert clone.engine_stats() is not None
        assert clone.engine() is not policy.engine()
