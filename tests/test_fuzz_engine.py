"""Property-based churn fuzzing of the compiled RBAC engine (PR 8).

Hypothesis drives arbitrary interleavings of grant/assign/revoke and
hierarchy edge addition/removal against a policy, then asserts the
bitset engine agrees with the naive :class:`RBACOracle` and with an
engine built from scratch — both at the end of the interleaving and
after EVERY single operation — while one engine absorbs the whole
interleaving: relation changes as O(delta) updates, and each hierarchy
edge change as one closure rebuild.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import HierarchyError
from repro.oracle.rbac_oracle import RBACOracle
from repro.rbac.model import DomainRole
from repro.rbac.policy import RBACPolicy
from tests.rbac.oracle_agreement import (assert_agrees_with_oracle,
                                         rebuilt_policy)

_USERS = [f"u{i}" for i in range(6)]
_ROLES = [DomainRole("d", f"r{i}") for i in range(5)]
_OBJECTS = ["invoice", "queue"]
_PERMS = ["read", "write"]

_OPS = st.one_of(
    st.tuples(st.just("grant"), st.sampled_from(_ROLES),
              st.sampled_from(_OBJECTS), st.sampled_from(_PERMS)),
    st.tuples(st.just("revoke_grant"), st.sampled_from(_ROLES),
              st.sampled_from(_OBJECTS), st.sampled_from(_PERMS)),
    st.tuples(st.just("assign"), st.sampled_from(_USERS),
              st.sampled_from(_ROLES)),
    st.tuples(st.just("unassign"), st.sampled_from(_USERS),
              st.sampled_from(_ROLES)),
    st.tuples(st.just("revoke_user"), st.sampled_from(_USERS)),
    st.tuples(st.just("add_edge"), st.sampled_from(_ROLES),
              st.sampled_from(_ROLES)),
    st.tuples(st.just("remove_edge"), st.sampled_from(_ROLES),
              st.sampled_from(_ROLES)),
)


def _apply(policy: RBACPolicy, op: tuple) -> None:
    kind = op[0]
    if kind == "grant":
        policy.grant(op[1].domain, op[1].role, op[2], op[3])
    elif kind == "revoke_grant":
        policy.revoke_grant(op[1].domain, op[1].role, op[2], op[3])
    elif kind == "assign":
        policy.assign(op[1], op[2].domain, op[2].role)
    elif kind == "unassign":
        policy.unassign(op[1], op[2].domain, op[2].role)
    elif kind == "revoke_user":
        policy.revoke_user(op[1])
    elif kind == "add_edge":
        try:
            policy.hierarchy.add_inheritance(op[1], op[2])
        except HierarchyError:
            pass  # self-loop or cycle: legitimately rejected
    else:
        policy.hierarchy.remove_inheritance(op[1], op[2])


class TestEngineChurnProperties:
    @given(ops=st.lists(_OPS, max_size=30))
    @settings(max_examples=80, deadline=None)
    def test_three_way_agreement(self, ops):
        """Engine vs oracle vs a from-scratch engine, on every surface."""
        policy = RBACPolicy("fuzz")
        policy.check_access(_USERS[0], _OBJECTS[0], _PERMS[0])  # build early
        for op in ops:
            _apply(policy, op)
        assert_agrees_with_oracle(policy, _USERS, _ROLES, _OBJECTS, _PERMS)
        stats = policy.engine_stats()
        assert stats is not None and stats["builds"] == 1

    @given(ops=st.lists(_OPS, max_size=20))
    @settings(max_examples=40, deadline=None)
    def test_incremental_equals_rebuilt(self, ops):
        """A policy maintained by deltas answers like one rebuilt from
        scratch over the same final relations."""
        policy = RBACPolicy("fuzz")
        policy.check_access(_USERS[0], _OBJECTS[0], _PERMS[0])
        for op in ops:
            _apply(policy, op)
        rebuilt = rebuilt_policy(policy)
        for user in _USERS:
            assert policy.roles_of(user) == rebuilt.roles_of(user)
            for obj in _OBJECTS:
                for perm in _PERMS:
                    assert (policy.check_access(user, obj, perm)
                            == rebuilt.check_access(user, obj, perm))

    @given(ops=st.lists(_OPS, max_size=15))
    @settings(max_examples=25, deadline=None)
    def test_every_intermediate_state_agrees_without_rebuilds(self, ops):
        """The incremental-maintenance property: after EVERY mutation —
        including hierarchy edge add/remove — the engine agrees with a
        from-scratch rebuild and with the naive oracle, without a single
        engine rebuild (``builds`` stays 1).  The closure is rebuilt
        exactly once per hierarchy version change and never for a grant
        or assignment change."""
        policy = RBACPolicy("fuzz")
        policy.check_access(_USERS[0], _OBJECTS[0], _PERMS[0])  # build
        stats = policy.engine_stats()
        assert stats is not None
        rebuilds = stats["hierarchy_rebuilds"]
        requests = [(u, o, p)
                    for u in _USERS for o in _OBJECTS for p in _PERMS]
        for op in ops:
            version = policy.hierarchy.version
            _apply(policy, op)
            if policy.hierarchy.version != version:
                rebuilds += 1
            answers = [policy.check_access(u, o, p) for u, o, p in requests]
            rebuilt = rebuilt_policy(policy)
            assert answers == [rebuilt.check_access(u, o, p)
                               for u, o, p in requests]
            oracle = RBACOracle.from_policy(policy)
            assert answers == [oracle.check_access(u, o, p)
                               for u, o, p in requests]
            assert policy.engine_stats()["hierarchy_rebuilds"] == rebuilds
        stats = policy.engine_stats()
        assert stats is not None
        assert stats["builds"] == 1
