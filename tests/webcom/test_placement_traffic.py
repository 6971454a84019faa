"""Pinned placement traffic: the master's scheduling, message for message.

Each run below drives the WebCom master through its single and batched
placement paths and is compared against ``cases/placement_traffic.json``:

- every delivered message as (kind, sender, recipient, request ids, reply
  statuses);
- the master's ``schedule_log``;
- the ``webcom.schedule*`` audit records, where the run keeps an audit log;
- the ``master.*``, ``engine.*`` and ``net.*`` metric values.

The runs reach every placement outcome: ok, denied, error, lost and the
batch-to-single fallback.  A change that means to alter scheduling traffic
regenerates the fixture and says so in CHANGES.md::

    PYTHONPATH=src python tests/webcom/test_placement_traffic.py --write
"""

import json
import sys
from pathlib import Path

import pytest

from repro.obs import Observability
from repro.util.events import AuditLog
from repro.webcom.network import SimulatedNetwork
from repro.webcom.node import WebComClient, WebComMaster
from repro.webcom.scenario import (SCENARIO_OPS, fan_graph,
                                   run_observed_scenario)

FIXTURE = Path(__file__).parent / "cases" / "placement_traffic.json"
FAN = 6
PINNED_PREFIXES = ("master.", "engine.", "net.")


def _message_row(message) -> list:
    payload = message.payload
    if message.kind == "execute_batch":
        ids = [r["request_id"] for r in payload["requests"]]
    elif message.kind == "result_batch":
        ids = [b["request_id"] for b in payload["results"]]
    elif "request_id" in payload:
        ids = [payload["request_id"]]
    else:
        ids = []
    if message.kind == "result":
        statuses = [payload["status"]]
    elif message.kind == "result_batch":
        statuses = [b["status"] for b in payload["results"]]
    else:
        statuses = []
    return [message.kind, message.sender, message.recipient, ids, statuses]


def _metric_value(snapshot: dict):
    if snapshot["type"] == "histogram":
        return {"count": snapshot["count"], "total": snapshot.get("total")}
    return snapshot["value"]


def _capture(master: WebComMaster, obs: Observability,
             audit: "AuditLog | None", result) -> dict:
    return {
        "result": result,
        "messages": [_message_row(m) for m in master.network.delivered],
        "schedule_log": [list(entry) for entry in master.schedule_log],
        "audit": [[r.category, r.subject, r.outcome, r.detail]
                  for r in (audit or ())
                  if r.category.startswith("webcom.schedule")],
        "metrics": {name: _metric_value(snap)
                    for name, snap in obs.metrics.snapshot().items()
                    if name.startswith(PINNED_PREFIXES)},
    }


def _observed(**kwargs) -> dict:
    run = run_observed_scenario(**kwargs)
    return _capture(run.master, run.obs, run.env.audit, run.result)


def _fallback(authorisers=None, ops=None, crash=None) -> dict:
    """The batched fallback setups of ``test_batch_scheduling.py``, observed:
    an unsecured master and two clients, c0 misbehaving."""
    obs = Observability()
    audit = AuditLog()
    net = SimulatedNetwork(obs=obs)
    master = WebComMaster("master", net, audit=audit, obs=obs)
    for i in range(2):
        client_id = f"c{i}"
        client = WebComClient(
            client_id, net, ops[i] if ops is not None else dict(SCENARIO_OPS),
            authoriser=(authorisers or {}).get(client_id), obs=obs)
        client.register_with("master")
    net.run_until_quiet()
    if crash is not None:
        net.crash(crash)
    result = master.run_graph(fan_graph(FAN), {"x": 0}, batch=True)
    return _capture(master, obs, audit, result)


def _boom(value):
    raise RuntimeError("stage exploded")


def _runs() -> dict:
    """Run name -> zero-argument callable producing its capture."""
    runs = {}
    for batch in (False, True):
        # Without faults the seed is unused: one run stands for all three.
        runs[f"fan{FAN}-batch={batch}"] = lambda b=batch: _observed(
            fan=FAN, n_clients=2, batch=b)
        for seed in range(3):
            runs[f"fan{FAN}-batch={batch}-faults-seed={seed}"] = (
                lambda b=batch, s=seed: _observed(
                    fan=FAN, n_clients=2, drop=0.25, batch=b, faults=True,
                    seed=s))
    runs["pipeline4-faults"] = lambda: _observed(faults=True)
    runs["batched-c0-denies"] = lambda: _fallback(
        authorisers={"c0": lambda master_key, op, context: False})
    runs["batched-c0-errors"] = lambda: _fallback(
        ops=[dict(SCENARIO_OPS, stage=_boom), dict(SCENARIO_OPS)])
    runs["batched-c0-crashed"] = lambda: _fallback(crash="c0")
    return runs


RUNS = _runs()


def _load() -> dict:
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("name", sorted(RUNS))
def test_placement_traffic_matches_the_pinned_capture(name):
    expected = _load()[name]
    # Round-trip through JSON so tuples compare as the lists stored.
    assert json.loads(json.dumps(RUNS[name]())) == expected


def test_the_pinned_runs_reach_every_placement_outcome():
    fixture = _load()
    outcomes = {record[2] for run in fixture.values()
                for record in run["audit"]}
    assert {"ok", "denied", "error", "lost"} <= outcomes
    assert any(run["metrics"].get("master.batch.fallback")
               for run in fixture.values())


def _write() -> None:
    """Regenerate the fixture: one run per key, one message per line."""
    captures = {name: RUNS[name]() for name in sorted(RUNS)}
    lines = ["{"]
    for position, (name, capture) in enumerate(captures.items()):
        lines.append(f"  {json.dumps(name)}: {{")
        fields = list(capture.items())
        for index, (field, value) in enumerate(fields):
            comma = "," if index < len(fields) - 1 else ""
            if field in ("messages", "schedule_log", "audit") and value:
                rows = ",\n".join(f"      {json.dumps(row)}" for row in value)
                lines.append(
                    f"    {json.dumps(field)}: [\n{rows}\n    ]{comma}")
            else:
                lines.append(f"    {json.dumps(field)}: "
                             f"{json.dumps(value, sort_keys=True)}{comma}")
        lines.append("  }," if position < len(captures) - 1 else "  }")
    lines.append("}")
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text("\n".join(lines) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_placement_traffic.py --write")
    _write()
    print(f"wrote {FIXTURE}")
