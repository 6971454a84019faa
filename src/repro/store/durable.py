"""The durable store facade and the component restore functions.

:class:`DurableStore` composes one :class:`~repro.store.wal.WriteAheadLog`
with one :class:`~repro.store.snapshot.SnapshotStore` under a single root
directory::

    root/
      wal.log
      snapshots/snapshot-NNNNNNNNNN.json

Components journal their mutations through :meth:`DurableStore.append`
*before* touching in-memory state (write-ahead discipline); recovery loads
the newest valid snapshot, replays the WAL tail past it, and the
``restore_*`` functions in this module turn those records back into live
components.  Caches (decision caches, signature verdicts) are deliberately
**not** persisted: a recovered node starts with empty ones and must
re-derive every verdict from the recovered assertions and relations — the
durability sweep (:mod:`repro.store.harness`) asserts those verdicts are
byte-identical to the pre-crash oracle's.

Record vocabulary (the ``kind`` field of every WAL payload):

========================  ====================================================
``keynote.policy``        session POLICY assertion added (``text``)
``keynote.credential``    signed credential added (``text``, ``expires_at``)
``keynote.revoke``        credential revoked / expired (``text``)
``rbac.grant`` etc.       standalone-policy relation deltas (via
                          :attr:`RBACPolicy.journal`)
``keycom.apply``          authorised KeyCom install (``user``, ``domain``,
                          ``role``, ``request_id``)
``propagate.update``      versioned global-policy update (``version``,
                          ``delta``, ``update_id``)
``propagate.applied``     per-backend version-vector advance (``system``,
                          ``version``)
``checkpoint.mark``       graph-node completion (``graph``, ``node_id``,
                          ``result``)
========================  ====================================================
"""

from __future__ import annotations

from pathlib import Path
from itertools import chain
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Sequence

from repro.crypto.keystore import Keystore
from repro.errors import RecoveryError
from repro.keynote.api import KeyNoteSession
from repro.keynote.credential import Credential
from repro.middleware.base import Middleware
from repro.rbac.diff import PolicyDelta, delta_from_dict, delta_to_dict
from repro.rbac.model import Assignment
from repro.rbac.policy import RBACPolicy
from repro.rbac.serialize import policy_from_dict, policy_to_dict
from repro.store.recovery import RecoveredState, RecoveryInfo, recover
from repro.store.snapshot import SnapshotStore
from repro.store.wal import CrashHook, WriteAheadLog
from repro.translate.propagate import PropagationEngine, VersionedUpdate
from repro.util.clock import SimulatedClock
from repro.webcom.keycom import AppliedIds, KeyComService

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs import Observability
    from repro.webcom.failover import GraphCheckpoint


class DurableStore:
    """One node's durability root: a WAL plus its snapshot directory.

    :param root: directory holding ``wal.log`` and ``snapshots/``.
    :param crash: crash hook threaded into every write site (the seeded
        sweep's :class:`~repro.webcom.faults.CrashPointInjector.reached`).
    :param keep: snapshots retained (the WAL is compacted only to the
        oldest retained snapshot's position).
    """

    def __init__(self, root: "Path | str", crash: CrashHook | None = None,
                 keep: int = 2, sync: bool = False) -> None:
        self.root = Path(root)
        self.wal = WriteAheadLog(self.root / "wal.log", crash=crash,
                                 sync=sync)
        self.snapshots = SnapshotStore(self.root / "snapshots", crash=crash,
                                       keep=keep)

    def open(self) -> RecoveredState:
        """Open (recovering) the log and assemble the recovered state.

        :raises CorruptLogError: for corrupt mid-log records.
        :raises RecoveryError: when the log was compacted past every
            usable snapshot.
        """
        records = self.wal.open_records()
        return recover(self.wal, self.snapshots, records)

    def close(self) -> None:
        self.wal.close()

    def append(self, kind: str, **payload: Any) -> int:
        """Journal one mutation record; returns its LSN.

        The record is acknowledged (and the caller may mutate memory) only
        once this returns.
        """
        return self.wal.append({"kind": kind, **payload})

    def snapshot(self, state: dict[str, Any]) -> Path:
        """Write a snapshot of ``state`` at the current WAL position, then
        compact the log up to the oldest snapshot still retained."""
        path = self.snapshots.save(state, self.wal.next_lsn)
        floor = self.snapshots.retained_floor()
        if floor is not None and floor > self.wal.base_lsn:
            self.wal.compact(floor)
        return path


def _tail(recovered: RecoveredState, kinds: Iterable[str]
          ) -> Iterator[dict]:
    wanted = set(kinds)
    return (r for r in recovered.tail if r.get("kind") in wanted)


# -- component restores ------------------------------------------------------
#
# Each restore builds its component *unjournalled* (store detached), replays
# the snapshot state then the WAL tail, and only then binds the store — so
# replay never re-appends the records it is reading.

def session_state(session: KeyNoteSession) -> dict[str, Any]:
    """The snapshot form of a session's assertion sets."""
    expiring = session.expiring()
    return {
        "policies": [p.to_text() for p in session.policies],
        "credentials": [[c.to_text(),
                         expiring.get(c)] for c in session.credentials],
    }


def restore_session(recovered: RecoveredState,
                    store: DurableStore | None = None,
                    **session_kwargs: Any) -> KeyNoteSession:
    """Rebuild a :class:`KeyNoteSession` from snapshot + tail.

    ``session_kwargs`` pass through to the session constructor (keystore,
    clock, obs, values...).  The snapshot's assertions and the tail's adds
    and revokes fold, in one pass over both, into one ordered multiset —
    policies first, then credentials in first-added order — and an expiry
    registry, which seed the session's compliance checker in one build:
    its signature checks wait for the first read or the idle backfill,
    and its decision cache starts empty.

    A trust store is mostly credentials cut from a few templates (every
    proxy credential carries the same Conditions, every user credential
    the same but for its ``subject`` literal), and each distinct
    Conditions shape is parsed and compiled once: ``Credential.from_text``
    reads the process's Conditions table
    (:data:`~repro.keynote.credential.PROGRAMS`).
    """
    policies: list[Credential] = []
    #: credential -> copies added and not revoked, in first-added order
    credentials: dict[Credential, int] = {}
    expiring: dict[Credential, float] = {}
    state = recovered.state.get("session", {})
    for kind, text, expires_at in chain(
            (("keynote.policy", text, None)
             for text in state.get("policies", [])),
            (("keynote.credential", text, expires_at)
             for text, expires_at in state.get("credentials", [])),
            ((record["kind"], record["text"], record.get("expires_at"))
             for record in _tail(recovered, (
                 "keynote.policy", "keynote.credential",
                 "keynote.revoke")))):
        credential = Credential.from_text(text)
        copies = credentials.get(credential, 0)
        if kind == "keynote.policy":
            policies.append(credential)
        elif kind == "keynote.credential":
            credentials[credential] = copies + 1
            if expires_at is not None:
                expiring[credential] = float(expires_at)
        elif copies:
            expiring.pop(credential, None)
            credentials[credential] = copies - 1
            if copies == 1:
                del credentials[credential]
    assertions = policies + [credential for credential, copies
                             in credentials.items() for _ in range(copies)]
    return KeyNoteSession(store=store, assertions=assertions,
                          expiring=expiring, **session_kwargs)


def restore_policy(recovered: RecoveredState, name: str = "policy",
                   journal: Any = None) -> RBACPolicy:
    """Rebuild a standalone :class:`RBACPolicy` journalled via
    :attr:`RBACPolicy.journal` (``rbac.*`` records)."""
    state = recovered.state.get("policy")
    policy = (policy_from_dict(state) if state is not None
              else RBACPolicy(name))
    for record in _tail(recovered, ("rbac.grant", "rbac.revoke_grant",
                                    "rbac.assign", "rbac.unassign",
                                    "rbac.revoke_user")):
        kind = record["kind"]
        if kind == "rbac.grant":
            policy.grant(record["domain"], record["role"],
                         record["object_type"], record["permission"])
        elif kind == "rbac.revoke_grant":
            policy.revoke_grant(record["domain"], record["role"],
                                record["object_type"], record["permission"])
        elif kind == "rbac.assign":
            policy.assign(record["user"], record["domain"], record["role"])
        elif kind == "rbac.unassign":
            policy.unassign(record["user"], record["domain"], record["role"])
        else:
            policy.revoke_user(record["user"])
    policy.journal = journal
    return policy


def keycom_state(service: KeyComService) -> dict[str, Any]:
    """The snapshot form of a KeyCom service's install history."""
    return {
        "applied_ids": list(service.applied_ids),
        "assignments": [[a.user, a.domain, a.role] for a in
                        sorted(service.middleware.extract_rbac()
                               .assignments)],
    }


def restore_keycom(recovered: RecoveredState, middleware: Middleware,
                   session: KeyNoteSession,
                   store: DurableStore | None = None,
                   **service_kwargs: Any) -> KeyComService:
    """Rebuild a :class:`KeyComService` and its administered middleware.

    The snapshot holds the installed assignments and the window of
    applied request ids, oldest first; ``keycom.apply`` tail records
    replay on top, deduplicated by request id — a record whose id the
    window holds (from the snapshot or an earlier record, e.g. a torn
    retry double-appended by a crashing client) is skipped, so replay is
    idempotent and rebuilds the window the service had.
    """
    service = KeyComService(middleware, session, **service_kwargs)
    state = recovered.state.get("keycom", {})
    service.applied_ids = AppliedIds(state.get("applied_ids", []))
    for user, domain, role in state.get("assignments", []):
        middleware.apply_assignment(Assignment(user, domain, role))
    for record in _tail(recovered, ("keycom.apply",)):
        request_id = record.get("request_id", "")
        if request_id and request_id in service.applied_ids:
            service.duplicates += 1
            continue
        middleware.apply_assignment(Assignment(
            record["user"], record["domain"], record["role"]))
        if request_id:
            service.applied_ids.add(request_id)
    service.store = store
    return service


def engine_state(engine: PropagationEngine) -> dict[str, Any]:
    """The snapshot form of the propagation plane: global policy, versioned
    update log and per-backend applied-version vector."""
    return {
        "global": policy_to_dict(engine.global_policy),
        "version": engine._version,
        "updates": [{"version": u.version,
                     "delta": delta_to_dict(u.delta),
                     "update_id": u.update_id} for u in engine.update_log],
        "applied_versions": dict(sorted(engine.applied_versions.items())),
    }


def restore_engine(recovered: RecoveredState,
                   store: DurableStore | None = None,
                   **engine_kwargs: Any) -> PropagationEngine:
    """Rebuild a :class:`PropagationEngine` from snapshot + tail.

    Each ``propagate.update`` tail record is replayed into the update log
    *and* the global policy (it was journalled before either mutated);
    ``propagate.applied`` records re-advance the version vectors, so
    :meth:`~repro.translate.propagate.PropagationEngine.reconcile`
    still knows exactly what every backend missed.  Replicas themselves are
    rebuilt by registering fresh middleware and running ``reconcile()``
    (its diff-repair pass converges them from any vector position).
    """
    state = recovered.state.get("engine", {})
    global_state = state.get("global")
    global_policy = (policy_from_dict(global_state)
                     if global_state is not None else RBACPolicy("global"))
    engine = PropagationEngine(global_policy, **engine_kwargs)
    engine._version = int(state.get("version", 0))
    for entry in state.get("updates", []):
        engine.update_log.append(VersionedUpdate(
            int(entry["version"]), delta_from_dict(entry["delta"]),
            entry.get("update_id", "")))
    vectors = {str(name): int(version) for name, version
               in state.get("applied_versions", {}).items()}
    for record in _tail(recovered, ("propagate.update",
                                    "propagate.applied")):
        if record["kind"] == "propagate.update":
            version = int(record["version"])
            if version <= engine._version:
                continue  # duplicate append from a torn retry
            delta = delta_from_dict(record["delta"])
            delta.apply_to(engine.global_policy)
            engine.update_log.append(VersionedUpdate(
                version, delta, record.get("update_id", "")))
            engine._version = version
        else:
            name = record["system"]
            vectors[name] = max(vectors.get(name, 0),
                                int(record["version"]))
    engine.applied_versions.update(vectors)
    engine.store = store
    return engine


def checkpoint_state(checkpoints: Iterable[GraphCheckpoint]
                     ) -> dict[str, Any]:
    """The snapshot form of a set of graph checkpoints (by graph name)."""
    return {cp.graph_name: cp.to_dict() for cp in checkpoints}


def restore_checkpoint(recovered: RecoveredState, graph_name: str,
                       store: DurableStore | None = None) -> GraphCheckpoint:
    """Rebuild one graph's :class:`GraphCheckpoint` from snapshot + tail.

    A standby master resuming a crashed master's graph reads exactly the
    frontier the crashed master acknowledged.  The failover module (and
    with it the graph engine and the simulated network) loads only here,
    so a node without graph checkpoints never imports it.
    """
    from repro.webcom.failover import GraphCheckpoint

    state = recovered.state.get("checkpoints", {}).get(graph_name)
    checkpoint = (GraphCheckpoint.from_dict(state) if state is not None
                  else GraphCheckpoint(graph_name))
    for record in _tail(recovered, ("checkpoint.mark",)):
        if record.get("graph") == graph_name:
            checkpoint.completed[record["node_id"]] = record.get("result")
    checkpoint.store = store
    return checkpoint


# -- full-node composition ---------------------------------------------------

class DurablePolicyNode:
    """One policy-plane node whose entire authorisation state is durable.

    Composes a trust-management session, a standalone local RBAC policy, a
    propagation engine with middleware replicas, a KeyCom administration
    service with its own middleware, and graph checkpoints — all journalling
    through one :class:`DurableStore`.  Construct via :meth:`recover`; call
    :meth:`snapshot` at checkpoints; after a crash, :meth:`recover` on the
    same root reassembles the acknowledged state with every cache empty.

    :param replicas: fresh ``(middleware, domains)`` pairs to register with
        the engine — recovery converges each to its authoritative slice via
        ``reconcile()``.
    :param keycom_middleware: a fresh middleware administered by KeyCom,
        kept *out* of the engine so reconciliation never undoes
        decentralised installs.
    """

    def __init__(self, store: DurableStore, session: KeyNoteSession,
                 local_policy: RBACPolicy, engine: PropagationEngine,
                 keycom: KeyComService | None,
                 checkpoints: dict[str, GraphCheckpoint],
                 recovered: RecoveryInfo) -> None:
        self.store = store
        self.session = session
        self.local_policy = local_policy
        self.engine = engine
        self.keycom = keycom
        self.checkpoints = checkpoints
        #: the recovery's scalar facts; the snapshot document and log tail
        #: it replayed are dropped once the components are rebuilt
        self.recovered = recovered

    @classmethod
    def recover(cls, root: "Path | str",
                crash: CrashHook | None = None,
                keystore: Keystore | None = None,
                clock: SimulatedClock | None = None,
                replicas: Sequence[tuple[Middleware, set[str]]] = (),
                keycom_middleware: Middleware | None = None,
                graph_names: Sequence[str] = (),
                verify_signatures: bool = True,
                keep: int = 2,
                obs: "Observability | None" = None) -> "DurablePolicyNode":
        """Open (or create) the store at ``root`` and rebuild the node
        (``obs`` is the session's, so its checker counts into it).

        :raises CorruptLogError: damaged acknowledged history.
        :raises RecoveryError: log compacted past every usable snapshot.
        """
        store = DurableStore(root, crash=crash, keep=keep)
        recovered = store.open()
        clock = clock or SimulatedClock()
        session = restore_session(
            recovered, store=store, keystore=keystore, clock=clock,
            verify_signatures=verify_signatures, obs=obs)
        local_policy = restore_policy(recovered, name="local",
                                      journal=None)
        local_policy.journal = store.append
        engine = restore_engine(recovered, store=store, clock=clock)
        for middleware, domains in replicas:
            engine.register(middleware, set(domains))
        if replicas:
            engine.reconcile()
        keycom = None
        if keycom_middleware is not None:
            keycom = restore_keycom(recovered, keycom_middleware, session,
                                    store=store)
        checkpoints = {name: restore_checkpoint(recovered, name, store=store)
                       for name in graph_names}
        return cls(store, session, local_policy, engine, keycom,
                   checkpoints, recovered.info())

    def state(self) -> dict[str, Any]:
        """The full snapshot state of every composed component."""
        state: dict[str, Any] = {
            "session": session_state(self.session),
            "policy": policy_to_dict(self.local_policy),
            "engine": engine_state(self.engine),
            "checkpoints": checkpoint_state(self.checkpoints.values()),
        }
        if self.keycom is not None:
            state["keycom"] = keycom_state(self.keycom)
        return state

    def snapshot(self) -> Path:
        """Snapshot the whole node and compact the WAL behind it."""
        return self.store.snapshot(self.state())

    def close(self) -> None:
        self.store.close()


__all__ = [
    "DurableStore", "DurablePolicyNode", "RecoveryError",
    "session_state", "restore_session",
    "restore_policy",
    "keycom_state", "restore_keycom",
    "engine_state", "restore_engine",
    "checkpoint_state", "restore_checkpoint",
]
