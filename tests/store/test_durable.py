"""The durable store facade, component restores and the full node."""

import pytest

from repro.errors import KeyNoteSyntaxError, WebComError
from repro.keynote.credential import Credential
from repro.middleware.ejb import EJBServer
from repro.rbac.diff import PolicyDelta, delta_from_dict, delta_to_dict
from repro.rbac.model import Assignment, Grant
from repro.store.durable import (DurablePolicyNode, DurableStore,
                                 restore_checkpoint, restore_keycom)
from repro.store.harness import (DOMAIN_A, KEYCOM_DOMAIN, _recover_node,
                                 apply_op)
from repro.webcom.failover import GraphCheckpoint
from repro.webcom.keycom import PolicyUpdateRequest

POLICY = ('Authorizer: POLICY\nLicensees: "Kroot"\n'
          'Conditions: app_domain=="db";')


def _credential(key: str) -> str:
    return Credential.build(authorizer="Kroot", licensees=f'"{key}"',
                            conditions='app_domain=="db"').to_text()


class TestDurableStore:
    def test_append_and_reopen(self, tmp_path):
        store = DurableStore(tmp_path / "node")
        store.open()
        store.append("rbac.grant", domain="D", role="R",
                     object_type="O", permission="read")
        store.close()
        again = DurableStore(tmp_path / "node")
        recovered = again.open()
        assert recovered.tail == [{"kind": "rbac.grant", "domain": "D",
                                   "role": "R", "object_type": "O",
                                   "permission": "read"}]
        again.close()

    def test_snapshot_compacts_to_retained_floor(self, tmp_path):
        store = DurableStore(tmp_path / "node", keep=2)
        store.open()
        for i in range(6):
            store.append("checkpoint.mark", graph="g", node_id=f"n{i}",
                         result=i)
        store.snapshot({"gen": 1})  # covers lsn 6
        store.append("checkpoint.mark", graph="g", node_id="n6", result=6)
        store.snapshot({"gen": 2})  # covers lsn 7; floor stays at 6
        assert store.wal.base_lsn == 6
        recovered = DurableStore(tmp_path / "node").open()
        assert recovered.state == {"gen": 2}
        assert recovered.tail == []


class TestGraphCheckpointRoundTrip:
    def test_to_from_dict(self):
        checkpoint = GraphCheckpoint("payroll")
        checkpoint.mark("n1", 17)
        checkpoint.mark("n2", "seventeen")
        data = checkpoint.to_dict()
        assert data == {"graph_name": "payroll",
                        "completed": {"n1": 17, "n2": "seventeen"}}
        again = GraphCheckpoint.from_dict(data)
        assert again.graph_name == "payroll"
        assert again.completed == checkpoint.completed
        assert len(again) == 2

    def test_from_dict_rejects_malformed(self):
        with pytest.raises(WebComError):
            GraphCheckpoint.from_dict({"graph_name": "x"})
        with pytest.raises(WebComError):
            GraphCheckpoint.from_dict({"graph_name": 3, "completed": {}})

    def test_marks_journal_ahead_and_restore(self, tmp_path):
        store = DurableStore(tmp_path / "node")
        recovered = store.open()
        checkpoint = restore_checkpoint(recovered, "wf", store=store)
        checkpoint.mark("a", 1)
        checkpoint.mark("b", 2)
        store.close()
        again = DurableStore(tmp_path / "node")
        restored = restore_checkpoint(again.open(), "wf", store=again)
        assert restored.completed == {"a": 1, "b": 2}
        again.close()


class TestKeyComReplayDedup:
    def _node(self, root):
        return _recover_node(root)

    def test_duplicate_records_do_not_double_apply(self, tmp_path):
        """A WAL holding the same keycom.apply request id twice (a client
        retry that crashed between append and ack) must apply once."""
        store = DurableStore(tmp_path / "node")
        recovered = store.open()
        for _ in range(2):  # the duplicate pair
            store.append("keycom.apply", user="Alice",
                         domain=KEYCOM_DOMAIN, role="Clerk",
                         request_id="r1")
        store.close()
        again = DurableStore(tmp_path / "node")
        middleware = EJBServer("hostC", "ejb")
        from repro.keynote.api import KeyNoteSession
        service = restore_keycom(again.open(), middleware,
                                 KeyNoteSession(verify_signatures=False),
                                 store=again)
        assert service.duplicates == 1
        assert service.applied_ids == {"r1"}
        assignments = middleware.extract_rbac().sorted_assignments()
        assert assignments == [Assignment("Alice", KEYCOM_DOMAIN, "Clerk")]
        again.close()

    def test_dedup_holds_across_restarts(self, tmp_path):
        node = self._node(tmp_path / "node")
        apply_op(node, ("policy", 'Authorizer: POLICY\n'
                                  'Licensees: "Kadmin"\n'
                                  'Conditions: app_domain=="WebCom";'))
        request = PolicyUpdateRequest(
            user="Bob", user_key="Kadmin", domain=KEYCOM_DOMAIN,
            role="Manager", credentials=(), request_id="r42")
        assert node.keycom.submit(request)
        node.close()
        again = self._node(tmp_path / "node")
        assert again.keycom.submit(request)  # redelivery after restart
        assert again.keycom.duplicates == 1
        members = [a for a in again.keycom.middleware.extract_rbac()
                   .sorted_assignments() if a.user == "Bob"]
        assert len(members) == 1
        again.close()


class TestRecoveryFlushesCaches:
    def test_decision_cache_cannot_survive_a_crash(self, tmp_path):
        """Pre-crash ALLOWs cached by the compliance checker must not be
        served after recovery: the recovered session starts with no
        compiled checker and re-derives the (revoked) verdict."""
        node = _recover_node(tmp_path / "node")
        node.session.add_policy(POLICY)
        credential = _credential("Ku1")
        node.session.add_credential(credential)
        attributes = {"app_domain": "db"}
        assert bool(node.session.query(attributes, ["Ku1"]))
        assert node.session._checker is not None  # warm decision cache
        assert node.session.state_fingerprint()[2] >= 0
        node.session.revoke_credential(Credential.from_text(credential))
        node.close()  # crash: the warm checker dies with the process
        again = _recover_node(tmp_path / "node")
        assert again.session._checker is None  # cold on arrival
        assert again.session.state_fingerprint()[2] == -1
        assert not bool(again.session.query(attributes, ["Ku1"]))
        again.close()

    def test_mediation_cache_fingerprint_is_cold_after_recovery(self,
                                                                tmp_path):
        """The stack mediation cache keys entries by the TM session's
        state fingerprint; a recovered session reports the cold-checker
        fingerprint, so no pre-crash entry could ever validate."""
        node = _recover_node(tmp_path / "node")
        node.session.add_policy(POLICY)
        node.session.add_credential(_credential("Ku2"))
        bool(node.session.query({"app_domain": "db"}, ["Ku2"]))
        warm = node.session.state_fingerprint()
        node.close()
        again = _recover_node(tmp_path / "node")
        assert again.session.state_fingerprint() != warm
        assert again.session.state_fingerprint()[2] == -1
        again.close()


class TestPoisonPillCredential:
    def test_unreadable_number_is_refused_before_the_journal(self, tmp_path):
        """``²`` passes ``str.isdigit`` but not ``float``.  It must fail at
        parse time: had it been journalled, the lazily built checker would
        raise on every query, after every restart."""
        node = _recover_node(tmp_path / "node")
        node.session.add_policy(POLICY)
        node.session.add_credential(_credential("Ku1"))
        records = node.store.wal.records()
        credentials = node.session.credentials
        poison = ('Authorizer: "Kroot"\nLicensees: "Ku2"\n'
                  'Conditions: app_domain=="db" && n < \u00b2;\n')
        with pytest.raises(KeyNoteSyntaxError):
            node.session.add_credential(poison)
        assert node.store.wal.records() == records
        assert node.session.credentials == credentials
        assert bool(node.session.query({"app_domain": "db"}, ["Ku1"]))
        node.close()
        again = _recover_node(tmp_path / "node")
        assert bool(again.session.query({"app_domain": "db"}, ["Ku1"]))
        assert not bool(again.session.query({"app_domain": "db"}, ["Ku2"]))
        again.close()


class TestFullNode:
    def test_state_roundtrip_through_snapshot_and_tail(self, tmp_path):
        node = _recover_node(tmp_path / "node")
        node.session.add_policy(POLICY)
        node.session.add_credential(_credential("Ku1"), expires_at=50.0)
        node.local_policy.grant("Finance", "Clerk", "SalariesDB", "write")
        node.local_policy.assign("Alice", "Finance", "Clerk")
        node.engine.apply_delta(PolicyDelta(
            added_grants=frozenset({Grant(DOMAIN_A, "Clerk",
                                          "ReportSvc", "read")}),
            added_assignments=frozenset({Assignment("Bob", DOMAIN_A,
                                                    "Clerk")})),
            update_id="u1")
        node.snapshot()
        node.local_policy.assign("Carol", "Finance", "Clerk")
        node.checkpoints["payroll"].mark("n1", 7)
        before = node.state()
        node.close()
        again = _recover_node(tmp_path / "node")
        assert again.state() == before
        assert again.recovered.used_snapshot()
        # the replica middleware converged to the authoritative slice
        for name in again.engine.applied_versions:
            assert (again.engine.replica_digest(name)
                    == again.engine.expected_digest(name))
        again.close()

    def test_delta_dict_roundtrip(self):
        delta = PolicyDelta(
            added_grants=frozenset({Grant("D", "R", "O", "p")}),
            removed_grants=frozenset({Grant("D", "R2", "O", "q")}),
            added_assignments=frozenset({Assignment("u", "D", "R")}),
            removed_assignments=frozenset({Assignment("v", "D", "R2")}))
        assert delta_from_dict(delta_to_dict(delta)) == delta

    def test_delta_from_dict_rejects_bad_rows(self):
        with pytest.raises(ValueError):
            delta_from_dict({"added_grants": [["only", "three", "cols"]]})

    def test_engine_vectors_survive_restart_for_reconcile(self, tmp_path):
        node = _recover_node(tmp_path / "node")
        node.engine.apply_delta(PolicyDelta(
            added_assignments=frozenset({Assignment("Dave", DOMAIN_A,
                                                    "Clerk")})))
        vectors = dict(node.engine.applied_versions)
        assert any(v > 0 for v in vectors.values())
        node.close()
        again = _recover_node(tmp_path / "node")
        assert again.engine.applied_versions == vectors
        assert again.engine.reconcile().converged
        again.close()
