"""The seeded kill-at-every-write-site durability sweep.

``repro durability`` drives this module: for each seed it first *profiles*
a deterministic policy-plane workload (counting how often every durable
write site is visited), then for **every** site kills the process at a
seeded visit of that site, restarts the node through the recovery path,
and verifies three properties:

1. **zero acknowledged-update loss** — the recovered state is
   byte-identical (canonical JSON) to a model node that replayed exactly
   the acknowledged operations, or to that model plus the single in-flight
   operation (an op whose record reached the medium before the crash may
   legitimately survive it);
2. **zero post-recovery oracle disagreements** — the recovered node's
   decisions (KeyNote compliance values, RBAC access checks for both the
   standalone policy and the propagated global policy) are re-mediated
   against the naive oracles of PR 5 and must agree exactly;
3. **replica convergence and cold caches** — every middleware replica's
   digest matches its authoritative slice after recovery, and the
   recovered session's decision cache starts empty (caches are rebuilt,
   never restored).

The sweep's aggregate is the ``DURABILITY_6.json`` artifact; its
``--check`` gate fails on any acknowledged loss or oracle disagreement.
"""

from __future__ import annotations

import json
import random
import tempfile
from pathlib import Path
from typing import Any, Callable

from repro.errors import CorruptLogError, RecoveryError, SimulatedCrashError
from repro.keynote.credential import Credential
from repro.middleware.ejb import EJBServer
from repro.oracle.keynote_oracle import oracle_compliance_value
from repro.oracle.rbac_oracle import RBACOracle
from repro.rbac.diff import PolicyDelta
from repro.rbac.model import Assignment, Grant
from repro.store.durable import DurablePolicyNode, DurableStore
from repro.store.wal import HEADER_SIZE, encode_header, encode_record
from repro.webcom.faults import CrashPointInjector, CrashPointPlan
from repro.webcom.keycom import PolicyUpdateRequest

DOMAIN_A = "hostA:ejb/DurA"
DOMAIN_B = "hostB:ejb/DurB"
KEYCOM_DOMAIN = "hostC:ejb/KeyCom"
GRAPH = "payroll"
USERS = ("Alice", "Bob", "Carol", "Dave")
ROLES = ("Manager", "Clerk")
OBJECTS = ("SalariesDB", "ReportSvc", "PrintSvc")
PERMISSIONS = ("read", "write")

#: the workload's trust roots: delegation root for plain queries, and the
#: KeyCom administration key (licensed for WebCom membership attributes)
ROOT_POLICY = ('Authorizer: POLICY\nLicensees: "Kroot"\n'
               'Conditions: app_domain=="db";')
ADMIN_POLICY = ('Authorizer: POLICY\nLicensees: "Kadmin"\n'
                'Conditions: app_domain=="WebCom";')


def _fresh_components() -> tuple[list, EJBServer]:
    """Fresh replicas and KeyCom middleware (names stable across builds)."""
    replicas = [(EJBServer("hostA", "ejb"), {DOMAIN_A}),
                (EJBServer("hostB", "ejb"), {DOMAIN_B})]
    keycom_middleware = EJBServer("hostC", "ejb")
    return replicas, keycom_middleware


def _recover_node(root: "Path | str",
                  crash: Callable[[str], None] | None = None,
                  ) -> DurablePolicyNode:
    replicas, keycom_middleware = _fresh_components()
    return DurablePolicyNode.recover(
        root, crash=crash, replicas=replicas,
        keycom_middleware=keycom_middleware, graph_names=(GRAPH,),
        verify_signatures=False)


# -- the deterministic workload ----------------------------------------------

def build_ops(seed: int, count: int) -> list[tuple]:
    """The seeded op stream: plain-data tuples so the crash run and the
    post-crash model replays apply byte-identical operations."""
    rng = random.Random(f"durability:{seed}")
    ops: list[tuple] = [("policy", ROOT_POLICY), ("policy", ADMIN_POLICY),
                        ("push",)]
    live_keys: list[str] = []
    #: subject key -> expiry instant, mirrored by the runtime session
    expiries: dict[str, float] = {}
    next_expiry = 100.0
    rids: list[str] = []
    kinds = ("credential", "credential", "grant", "assign", "delta",
             "keycom", "mark", "revoke", "unassign", "sweep", "snapshot")
    for i in range(count):
        kind = rng.choice(kinds)
        if kind == "credential":
            key = f"Ku{i}"
            expires = next_expiry if rng.random() < 0.5 else None
            if expires is not None:
                expiries[key] = expires
                next_expiry += 10.0
            ops.append(("credential", key, expires))
            live_keys.append(key)
        elif kind == "revoke" and live_keys:
            key = rng.choice(live_keys)
            live_keys.remove(key)
            expiries.pop(key, None)
            ops.append(("revoke", key))
        elif kind == "grant":
            ops.append(("grant", rng.choice((DOMAIN_A, DOMAIN_B)),
                        rng.choice(ROLES), rng.choice(OBJECTS),
                        rng.choice(PERMISSIONS)))
        elif kind == "assign":
            ops.append(("assign", rng.choice(USERS),
                        rng.choice((DOMAIN_A, DOMAIN_B)),
                        rng.choice(ROLES)))
        elif kind == "unassign":
            ops.append(("unassign", rng.choice(USERS),
                        rng.choice((DOMAIN_A, DOMAIN_B)),
                        rng.choice(ROLES)))
        elif kind == "delta":
            domain = rng.choice((DOMAIN_A, DOMAIN_B))
            ops.append(("delta",
                        [[domain, rng.choice(ROLES), rng.choice(OBJECTS),
                          rng.choice(PERMISSIONS)]],
                        [[rng.choice(USERS), domain, rng.choice(ROLES)]],
                        f"u{seed}:{i}"))
        elif kind == "keycom":
            if rids and rng.random() < 0.25:
                rid = rng.choice(rids)  # duplicate delivery (retry)
            else:
                rid = f"r{seed}:{i}"
                rids.append(rid)
            ops.append(("keycom", rng.choice(USERS), KEYCOM_DOMAIN,
                        rng.choice(ROLES), rid))
        elif kind == "mark":
            ops.append(("mark", f"n{i}", rng.randint(0, 99)))
        elif kind == "sweep" and expiries:
            # Expire exactly one credential per sweep: instants are spaced
            # 10 apart and the sweep clock stops just past the earliest.
            key = min(expiries, key=lambda k: expiries[k])
            instant = expiries.pop(key)
            if key in live_keys:
                live_keys.remove(key)
            ops.append(("sweep", instant + 1.0))
        else:
            ops.append(("snapshot",))
    return ops


def _credential_text(key: str) -> str:
    return Credential.build(authorizer="Kroot", licensees=f'"{key}"',
                            conditions='app_domain=="db"').to_text()


def apply_op(node: DurablePolicyNode, op: tuple) -> None:
    """Apply one workload op to a node (live run and model replays share
    this, so acknowledged histories are comparable byte-for-byte)."""
    kind = op[0]
    if kind == "policy":
        node.session.add_policy(op[1])
    elif kind == "push":
        node.engine.push_all()
    elif kind == "credential":
        node.session.add_credential(_credential_text(op[1]),
                                    expires_at=op[2])
    elif kind == "revoke":
        node.session.revoke_credential(
            Credential.from_text(_credential_text(op[1])))
    elif kind == "grant":
        node.local_policy.grant(*op[1:])
    elif kind == "assign":
        node.local_policy.assign(*op[1:])
    elif kind == "unassign":
        node.local_policy.unassign(*op[1:])
    elif kind == "delta":
        node.engine.apply_delta(PolicyDelta(
            added_grants=frozenset(Grant(*row) for row in op[1]),
            added_assignments=frozenset(Assignment(*row) for row in op[2])),
            update_id=op[3])
    elif kind == "keycom":
        node.keycom.submit(PolicyUpdateRequest(
            user=op[1], user_key="Kadmin", domain=op[2], role=op[3],
            credentials=(), request_id=op[4]))
    elif kind == "mark":
        node.checkpoints[GRAPH].mark(op[1], op[2])
    elif kind == "sweep":
        node.session.clock.advance_to(op[1])
        node.session.sweep_expired()
    elif kind == "snapshot":
        node.snapshot()
    else:  # pragma: no cover - generator and applier move together
        raise ValueError(f"unknown workload op {op!r}")


def run_workload(root: "Path | str", seed: int, ops_count: int,
                 crash: Callable[[str], None] | None = None,
                 ) -> tuple[list[tuple], "tuple | None", bool]:
    """Run the seeded workload at ``root``; returns ``(acked, in_flight,
    crashed)``.  An op is *acknowledged* only once it returns; the op that
    was executing when the injector fired (if any) is the in-flight op."""
    node = _recover_node(root, crash=crash)
    acked: list[tuple] = []
    in_flight: "tuple | None" = None
    crashed = False
    try:
        for op in build_ops(seed, ops_count):
            in_flight = op
            apply_op(node, op)
            acked.append(op)
            in_flight = None
    except SimulatedCrashError:
        crashed = True
    finally:
        node.close()
    return acked, in_flight, crashed


# -- verification ------------------------------------------------------------

def _canonical_state(node: DurablePolicyNode) -> str:
    return json.dumps(node.state(), sort_keys=True, separators=(",", ":"))


def _replay_model(root: Path, acked: list[tuple]) -> DurablePolicyNode:
    node = _recover_node(root)
    for op in acked:
        apply_op(node, op)
    return node


def _oracle_probes(node: DurablePolicyNode) -> list[dict]:
    """Re-mediate the full probe set on a recovered node against the
    oracles; returns the disagreements."""
    disagreements: list[dict] = []
    assertions = node.session.policies + node.session.credentials
    subjects = sorted(
        {principal for c in node.session.credentials
         for principal in c.principals()} | {"Kroot", "Kadmin", "Kghost"})
    attributes = {"app_domain": "db",
                  "_cur_time": repr(node.session.clock.now())}
    for key in subjects:
        actual = node.session.query(attributes, [key]).compliance_value
        expected = oracle_compliance_value(assertions, attributes, [key])
        if actual != expected:
            disagreements.append({
                "layer": "keynote", "subject": key,
                "actual": actual, "expected": expected})
    for label, policy in (("rbac.local", node.local_policy),
                          ("rbac.global", node.engine.global_policy)):
        oracle = RBACOracle.from_policy(policy)
        for user in USERS:
            for obj in OBJECTS:
                for permission in PERMISSIONS:
                    actual = policy.check_access(user, obj, permission)
                    expected = oracle.check_access(user, obj, permission)
                    if actual != expected:
                        disagreements.append({
                            "layer": label, "subject": user,
                            "object": obj, "permission": permission,
                            "actual": actual, "expected": expected})
    return disagreements


def verify_recovery(root: "Path | str", acked: list[tuple],
                    in_flight: "tuple | None",
                    scratch: "Path | str") -> dict:
    """Recover the crashed node at ``root`` and check the sweep's three
    properties against model replays built under ``scratch``."""
    scratch = Path(scratch)
    result: dict[str, Any] = {"matched": None, "acked_loss": False,
                              "oracle_disagreements": [], "failures": [],
                              "cold_caches": False, "replicas_converged": True}
    try:
        node = _recover_node(root)
    except (CorruptLogError, RecoveryError) as exc:
        result["failures"].append({"kind": "recovery_refused",
                                   "error": type(exc).__name__,
                                   "detail": str(exc)})
        result["acked_loss"] = True
        return result
    result["cold_caches"] = node.session.checker_cache_info()["entries"] == 0
    recovered = _canonical_state(node)
    model = _replay_model(scratch / "model-acked", acked)
    if recovered == _canonical_state(model):
        result["matched"] = "acked"
    elif in_flight is not None:
        alt = _replay_model(scratch / "model-inflight",
                            acked + [in_flight])
        if recovered == _canonical_state(alt):
            result["matched"] = "acked+inflight"
        alt.close()
    model.close()
    if result["matched"] is None:
        result["acked_loss"] = True
        result["failures"].append({
            "kind": "acked_loss",
            "detail": "recovered state matches neither the acknowledged "
                      "model nor acknowledged+in-flight",
            "acked_ops": len(acked), "in_flight": bool(in_flight)})
    for name in sorted(node.engine.applied_versions):
        if node.engine.replica_digest(name) != node.engine.expected_digest(name):
            result["replicas_converged"] = False
            result["failures"].append({"kind": "replica_divergence",
                                       "replica": name})
    disagreements = _oracle_probes(node)
    result["oracle_disagreements"] = disagreements
    if disagreements:
        result["failures"].append({"kind": "oracle_disagreement",
                                   "count": len(disagreements)})
    if not result["cold_caches"]:
        result["failures"].append({"kind": "warm_cache",
                                   "detail": "recovered session carried "
                                             "cached decisions"})
    node.close()
    return result


# -- the sweep ---------------------------------------------------------------

def run_durability_sweep(seeds: int = 10, ops: int = 24,
                         base_dir: "Path | str | None" = None) -> dict:
    """Kill at every write site across ``seeds`` seeds and build the
    ``DURABILITY_6`` report."""
    sites: dict[str, dict[str, int]] = {}
    failures: list[dict] = []
    crash_runs = 0
    crashes = 0
    with tempfile.TemporaryDirectory(dir=base_dir) as tmp:
        base = Path(tmp)
        for seed in range(seeds):
            profiler = CrashPointInjector()
            _acked, _in_flight, crashed = run_workload(
                base / f"s{seed}-profile", seed, ops,
                crash=profiler.reached)
            assert not crashed, "profiling run must not crash"
            for site, visits in sorted(profiler.counts.items()):
                stats = sites.setdefault(site, {
                    "visits": 0, "runs": 0, "crashes": 0,
                    "acked_loss": 0, "oracle_disagreements": 0,
                    "matched_inflight": 0})
                stats["visits"] += visits
                plan = CrashPointPlan.seeded_hit(seed, site, visits)
                injector = CrashPointInjector(plan)
                root = base / f"s{seed}-{site}"
                acked, in_flight, crashed = run_workload(
                    root, seed, ops, crash=injector.reached)
                crash_runs += 1
                stats["runs"] += 1
                if crashed:
                    crashes += 1
                    stats["crashes"] += 1
                outcome = verify_recovery(
                    root, acked, in_flight if crashed else None,
                    base / f"s{seed}-{site}-models")
                if outcome["matched"] == "acked+inflight":
                    stats["matched_inflight"] += 1
                if outcome["acked_loss"]:
                    stats["acked_loss"] += 1
                stats["oracle_disagreements"] += \
                    len(outcome["oracle_disagreements"])
                for failure in outcome["failures"]:
                    failures.append({"seed": seed, "site": site,
                                     "hit": plan.points[0].hit, **failure})
    acked_loss_total = sum(s["acked_loss"] for s in sites.values())
    disagreement_total = sum(s["oracle_disagreements"]
                             for s in sites.values())
    return {
        "report": "DURABILITY_6",
        "description": "kill-at-every-write-site crash sweep: recovery "
                       "must lose no acknowledged update and re-mediate "
                       "byte-identically to the oracles",
        "seeds": seeds,
        "ops": ops,
        "write_sites": sorted(sites),
        "crash_runs": crash_runs,
        "crashes": crashes,
        "acked_loss_total": acked_loss_total,
        "oracle_disagreements_total": disagreement_total,
        "failures": failures,
        "ok": acked_loss_total == 0 and disagreement_total == 0
              and not failures,
        "sites": {site: stats for site, stats in sorted(sites.items())},
    }


# -- a bench-shaped trust store ----------------------------------------------

def synthetic_state(credentials: int = 2000) -> dict[str, Any]:
    """A :meth:`DurablePolicyNode.state` shaped like the daemon benchmark's
    root: one POLICY assertion over ten team keys, and ``credentials``
    team -> user and user -> proxy credentials with key-length principals
    and signature-length ``Signature`` fields (every third one expires).

    The signatures are placeholders, so recover such a root with
    ``verify_signatures=False``; the snapshot and its encoding are what
    this state exercises.
    """
    def key(role: str, index: int) -> str:
        return f"K{role}{index}-{'%0120x' % (index + 1)}"

    teams = 10
    sign = "sig-placeholder-hex:" + "5a" * 40
    policy = Credential.build(
        "POLICY", " || ".join(f'"{key("team", t)}"' for t in range(teams)),
        'app_domain=="grid"')
    entries: list[list] = []
    for n in range(credentials):
        user = n // 2
        if n % 2 == 0:
            text = Credential.build(
                key("team", user % teams), f'"{key("user", user)}"',
                f'subject=="u{user}"', signature=sign).to_text()
        else:
            text = Credential.build(
                key("user", user), f'"{key("proxy", user)}"',
                'op=="submit" || op=="status" || op=="run"',
                comment=f"proxy {user}", signature=sign).to_text()
        entries.append([text, 1000.0 + n if n % 3 == 0 else None])
    return {"session": {"policies": [policy.to_text()],
                        "credentials": entries}}


# -- shrunk recovery-fixture replay ------------------------------------------

def replay_recovery_case(case: dict, base_dir: "Path | str | None" = None,
                         ) -> dict:
    """Replay one shrunk recovery fixture (``tests/store/cases/``).

    A fixture describes a byte-level on-disk scenario — WAL records plus an
    optional damaged tail, and snapshot documents (optionally raw/corrupt
    text) — and the expected recovery verdict.  Returns ``{"ok": bool,
    "observed": ..., "expected": ...}``.
    """
    expected = case.get("expect", {})
    observed: dict[str, Any] = {}
    with tempfile.TemporaryDirectory(dir=base_dir) as tmp:
        root = Path(tmp) / "store"
        root.mkdir()
        wal_spec = case.get("wal", {})
        data = encode_header(int(wal_spec.get("base_lsn", 0)))
        for payload in wal_spec.get("records", []):
            data += encode_record(payload)
        flips = wal_spec.get("flip_bytes", [])
        if flips:
            mutable = bytearray(data)
            for offset in flips:
                mutable[HEADER_SIZE + int(offset)] ^= 0xFF
            data = bytes(mutable)
        data += bytes.fromhex(wal_spec.get("tail_hex", ""))
        (root / "wal.log").write_bytes(data)
        snap_dir = root / "snapshots"
        for entry in case.get("snapshots", []):
            snap_dir.mkdir(exist_ok=True)
            name = f"snapshot-{int(entry['seq']):010d}.json"
            if "raw" in entry:
                (snap_dir / name).write_text(entry["raw"], encoding="utf-8")
            else:
                (snap_dir / name).write_text(json.dumps(entry["doc"]),
                                             encoding="utf-8")
        store = DurableStore(root)
        try:
            recovered = store.open()
        except (CorruptLogError, RecoveryError) as exc:
            observed = {"error": type(exc).__name__}
        else:
            observed = {
                "error": None,
                "records": len(recovered.tail),
                "truncated": recovered.truncated_bytes > 0,
                "snapshot_seq": recovered.snapshot_seq,
                "skipped_snapshots": recovered.skipped_snapshots,
                "state": recovered.state,
            }
        finally:
            store.close()
    trimmed = {key: observed.get(key) for key in expected}
    return {"name": case.get("name", "?"), "ok": trimmed == expected,
            "observed": observed, "expected": expected}
