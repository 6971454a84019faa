"""Tests for role hierarchies, sessions and separation-of-duty constraints."""

import pytest

from repro.errors import ConstraintViolationError, HierarchyError, SessionError
from repro.rbac.constraints import ConstraintSet, SoDConstraint
from repro.rbac.hierarchy import RoleHierarchy
from repro.rbac.model import DomainRole
from repro.rbac.policy import RBACPolicy
from repro.rbac.sessions import SessionManager

FM = DomainRole("Finance", "Manager")
FC = DomainRole("Finance", "Clerk")
FA = DomainRole("Finance", "Auditor")


@pytest.fixture
def policy() -> RBACPolicy:
    p = RBACPolicy("h")
    p.grant("Finance", "Clerk", "SalariesDB", "write")
    p.grant("Finance", "Manager", "SalariesDB", "read")
    p.grant("Finance", "Auditor", "SalariesDB", "audit")
    p.assign("Bob", "Finance", "Manager")
    p.assign("Alice", "Finance", "Clerk")
    p.hierarchy.add_inheritance(FM, FC)
    return p


class TestRoleHierarchy:
    def test_juniors_transitive(self):
        h = RoleHierarchy()
        a, b, c = DomainRole("D", "a"), DomainRole("D", "b"), DomainRole("D", "c")
        h.add_inheritance(a, b)
        h.add_inheritance(b, c)
        assert h.juniors(a) == {b, c}
        assert h.seniors(c) == {a, b}

    def test_dominates(self):
        h = RoleHierarchy()
        h.add_inheritance(FM, FC)
        assert h.dominates(FM, FC)
        assert h.dominates(FM, FM)
        assert not h.dominates(FC, FM)

    def test_self_loop_rejected(self):
        h = RoleHierarchy()
        with pytest.raises(HierarchyError):
            h.add_inheritance(FM, FM)

    def test_cycle_rejected(self):
        h = RoleHierarchy()
        h.add_inheritance(FM, FC)
        with pytest.raises(HierarchyError):
            h.add_inheritance(FC, FM)

    def test_remove_edge(self):
        h = RoleHierarchy()
        h.add_inheritance(FM, FC)
        assert h.remove_inheritance(FM, FC)
        assert not h.remove_inheritance(FM, FC)
        assert h.is_empty()

    def test_edges_deterministic(self):
        h = RoleHierarchy()
        h.add_inheritance(FM, FC)
        h.add_inheritance(FM, FA)
        assert list(h.edges()) == [(FM, FA), (FM, FC)]

    def test_copy_independent(self):
        h = RoleHierarchy()
        h.add_inheritance(FM, FC)
        clone = h.copy()
        clone.add_inheritance(FM, FA)
        assert h != clone


class TestHierarchyInPolicy:
    def test_senior_inherits_permissions(self, policy):
        # Manager inherits Clerk's write via the hierarchy.
        assert policy.check_access("Bob", "SalariesDB", "write")
        assert policy.check_access("Bob", "SalariesDB", "read")

    def test_members_of_includes_seniors(self, policy):
        assert policy.members_of("Finance", "Clerk") == {"Alice", "Bob"}
        assert policy.members_of("Finance", "Manager") == {"Bob"}


class TestSessions:
    def test_activate_and_check(self, policy):
        mgr = SessionManager(policy)
        sess = mgr.open_session("Bob", roles=(("Finance", "Manager"),))
        assert sess.check_access("SalariesDB", "read")
        # Hierarchy applies inside the session too.
        assert sess.check_access("SalariesDB", "write")

    def test_no_roles_no_access(self, policy):
        sess = SessionManager(policy).open_session("Bob")
        assert not sess.check_access("SalariesDB", "read")

    def test_cannot_activate_unassigned_role(self, policy):
        sess = SessionManager(policy).open_session("Alice")
        with pytest.raises(SessionError):
            sess.activate("Finance", "Manager")

    def test_can_activate_inherited_role(self, policy):
        # Bob holds Manager which dominates Clerk, so Clerk is activatable.
        sess = SessionManager(policy).open_session("Bob")
        sess.activate("Finance", "Clerk")
        assert sess.check_access("SalariesDB", "write")
        assert not sess.check_access("SalariesDB", "read")

    def test_deactivate(self, policy):
        mgr = SessionManager(policy)
        sess = mgr.open_session("Bob", roles=(("Finance", "Manager"),))
        sess.deactivate("Finance", "Manager")
        assert not sess.check_access("SalariesDB", "read")

    def test_closed_session_rejects_operations(self, policy):
        mgr = SessionManager(policy)
        sess = mgr.open_session("Bob")
        sess.close()
        with pytest.raises(SessionError):
            sess.check_access("SalariesDB", "read")
        with pytest.raises(SessionError):
            sess.activate("Finance", "Manager")

    def test_manager_lookup_and_close_all(self, policy):
        mgr = SessionManager(policy)
        s1 = mgr.open_session("Bob")
        s2 = mgr.open_session("Alice")
        assert mgr.get(s1.session_id) is s1
        assert len(mgr.open_sessions()) == 2
        assert mgr.close_all("Bob") == 1
        assert len(mgr.open_sessions()) == 1
        assert mgr.close_all() == 1
        with pytest.raises(SessionError):
            mgr.get("sess-999")
        assert s2.closed


class TestSoDConstraints:
    def test_static_violation_detection(self, policy):
        policy.assign("Alice", "Finance", "Auditor")
        sod = SoDConstraint.exclusive(
            "clerk-auditor", [("Finance", "Clerk"), ("Finance", "Auditor")])
        assert sod.violations(policy) == ["Alice"]

    def test_static_ok_when_disjoint(self, policy):
        sod = SoDConstraint.exclusive(
            "clerk-auditor", [("Finance", "Clerk"), ("Finance", "Auditor")])
        assert sod.violations(policy) == []

    def test_dynamic_constraint_blocks_activation(self, policy):
        policy.assign("Alice", "Finance", "Auditor")
        sod = SoDConstraint.exclusive(
            "dyn", [("Finance", "Clerk"), ("Finance", "Auditor")], dynamic=True)
        mgr = SessionManager(policy, constraints=(sod,))
        sess = mgr.open_session("Alice", roles=(("Finance", "Clerk"),))
        with pytest.raises(ConstraintViolationError):
            sess.activate("Finance", "Auditor")

    def test_dynamic_constraint_ignored_statically(self, policy):
        policy.assign("Alice", "Finance", "Auditor")
        sod = SoDConstraint.exclusive(
            "dyn", [("Finance", "Clerk"), ("Finance", "Auditor")], dynamic=True)
        assert sod.violations(policy) == []

    def test_cardinality_validation(self):
        with pytest.raises(ValueError):
            SoDConstraint("bad", frozenset({FC, FA}), cardinality=0)
        with pytest.raises(ValueError):
            SoDConstraint("bad", frozenset({FC}))

    def test_cardinality_two(self, policy):
        policy.assign("Alice", "Finance", "Auditor")
        sod = SoDConstraint("loose", frozenset({FC, FA, FM}), cardinality=2)
        assert sod.violations(policy) == []

    def test_constraint_set_report(self, policy):
        policy.assign("Alice", "Finance", "Auditor")
        cs = ConstraintSet()
        cs.add(SoDConstraint.exclusive(
            "clerk-auditor", [("Finance", "Clerk"), ("Finance", "Auditor")]))
        cs.add(SoDConstraint.exclusive(
            "dyn-only", [("Finance", "Clerk"), ("Finance", "Manager")], dynamic=True))
        report = cs.check(policy)
        assert report == {"clerk-auditor": ["Alice"]}
        assert len(cs.dynamic_constraints()) == 1

    def test_str_representation(self):
        sod = SoDConstraint.exclusive(
            "x", [("Finance", "Clerk"), ("Finance", "Auditor")])
        assert "static" in str(sod)
