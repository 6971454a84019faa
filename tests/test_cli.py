"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.core.scenarios import salaries_policy
from repro.crypto import Keystore
from repro.rbac.serialize import policy_from_json, policy_to_json
from repro.translate.to_keynote import encode_full


@pytest.fixture
def policy_file(tmp_path):
    path = tmp_path / "salaries.json"
    path.write_text(policy_to_json(salaries_policy()))
    return str(path)


@pytest.fixture
def credentials_file(tmp_path):
    keystore = Keystore()
    policy_cred, memberships = encode_full(salaries_policy(), "KWebCom",
                                           keystore)
    blob = policy_cred.to_text() + "\n" + "\n".join(
        c.to_text() for c in memberships)
    path = tmp_path / "creds.kn"
    path.write_text(blob)
    return str(path)


class TestTables:
    def test_renders_tables(self, policy_file, capsys):
        assert main(["tables", "--policy", policy_file]) == 0
        out = capsys.readouterr().out
        assert "HasPermission:" in out
        assert "Finance" in out
        assert "Elaine" in out

    def test_missing_file(self, capsys):
        assert main(["tables", "--policy", "/nonexistent.json"]) == 2
        assert "error" in capsys.readouterr().err


class TestEncodeComprehend:
    def test_encode_prints_credentials(self, policy_file, capsys):
        assert main(["encode", "--policy", policy_file]) == 0
        out = capsys.readouterr().out
        assert "Authorizer: POLICY" in out
        assert 'Licensees: "KWebCom"' in out
        assert out.count("KeyNote-Version") == 6  # 1 policy + 5 memberships

    def test_comprehend_recovers_policy(self, credentials_file, capsys):
        assert main(["comprehend", "--credentials", credentials_file]) == 0
        out = capsys.readouterr().out
        recovered = policy_from_json(out)
        assert recovered == salaries_policy()

    def test_encode_comprehend_pipeline(self, policy_file, tmp_path, capsys):
        main(["encode", "--policy", policy_file])
        creds = capsys.readouterr().out
        path = tmp_path / "pipeline.kn"
        path.write_text(creds)
        assert main(["comprehend", "--credentials", str(path)]) == 0
        recovered = policy_from_json(capsys.readouterr().out)
        assert recovered == salaries_policy()


class TestQuery:
    def test_allowed_query_exits_zero(self, credentials_file, capsys):
        code = main(["query", "--credentials", credentials_file,
                     "--authorizer", "Kbob",
                     "--attr", "app_domain=WebCom",
                     "--attr", "Domain=Finance", "--attr", "Role=Manager",
                     "--attr", "ObjectType=SalariesDB",
                     "--attr", "Permission=read"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "true"

    def test_denied_query_exits_one(self, credentials_file, capsys):
        code = main(["query", "--credentials", credentials_file,
                     "--authorizer", "Kdave",
                     "--attr", "app_domain=WebCom",
                     "--attr", "Domain=Sales", "--attr", "Role=Assistant",
                     "--attr", "ObjectType=SalariesDB",
                     "--attr", "Permission=read"])
        assert code == 1
        assert capsys.readouterr().out.strip() == "false"

    def test_bad_attr_syntax(self, credentials_file, capsys):
        code = main(["query", "--credentials", credentials_file,
                     "--authorizer", "Kbob", "--attr", "no-equals-sign"])
        assert code == 2


class TestCheck:
    def test_allow(self, policy_file, capsys):
        code = main(["check", "--policy", policy_file, "--user", "Bob",
                     "--object-type", "SalariesDB", "--permission", "read"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "allow"

    def test_deny(self, policy_file, capsys):
        code = main(["check", "--policy", policy_file, "--user", "Dave",
                     "--object-type", "SalariesDB", "--permission", "read"])
        assert code == 1
        assert capsys.readouterr().out.strip() == "deny"


class TestDemo:
    def test_demo_round_trip(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "round-trip exact: True" in out

    def test_demo_emit_policy(self, capsys):
        assert main(["demo", "--emit-policy"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data["has_permission"]) == 4


class TestTrace:
    def test_trace_renders_correlated_tree(self, capsys):
        assert main(["trace", "--depth", "2", "--clients", "1"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("trace corr-")
        for name in ("master.run_graph", "master.schedule", "net.execute",
                     "client.execute", "stack.mediate",
                     "stack.layer.TRUST_MANAGEMENT"):
            assert name in out

    def test_trace_json_bundle(self, capsys):
        assert main(["trace", "--depth", "2", "--clients", "1",
                     "--json"]) == 0
        bundle = json.loads(capsys.readouterr().out)
        assert set(bundle) == {"clock", "trace", "metrics"}
        assert any(s["name"] == "master.schedule" for s in bundle["trace"])

    def test_trace_out_writes_file(self, tmp_path, capsys):
        target = tmp_path / "trace.json"
        assert main(["trace", "--depth", "2", "--clients", "1", "--json",
                     "--out", str(target)]) == 0
        assert f"wrote {target}" in capsys.readouterr().out
        assert json.loads(target.read_text())["trace"]


class TestMetrics:
    def test_metrics_table(self, capsys):
        assert main(["metrics", "--depth", "2", "--clients", "1"]) == 0
        out = capsys.readouterr().out
        for name in ("master.schedule.ok", "keynote.memo.miss",
                     "net.latency", "stack.mediate.allow"):
            assert name in out

    def test_metrics_json(self, capsys):
        assert main(["metrics", "--depth", "2", "--clients", "1",
                     "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["master.schedule.ok"]["value"] == 2
        assert data["keynote.memo.miss"]["value"] > 0

    def test_metrics_summary_header(self, capsys):
        assert main(["metrics", "--depth", "2", "--clients", "1",
                     "--summary"]) == 0
        out = capsys.readouterr().out
        assert "spans across" in out

    def test_faulted_run_reports_retries(self, capsys):
        assert main(["metrics", "--faults", "--seed", "7", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["master.retries"]["value"] > 0
        assert data["net.dropped"]["value"] > 0


class TestDurability:
    def test_renders_site_table(self, capsys):
        assert main(["durability", "--seeds", "2", "--ops", "18"]) == 0
        out = capsys.readouterr().out
        assert "injected crashes recovered" in out
        assert "write site" in out
        assert "wal.append.synced" in out
        assert "snapshot.renamed" in out
        assert "acknowledged updates lost: 0" in out

    def test_json_report_shape(self, capsys):
        assert main(["durability", "--seeds", "2", "--ops", "18",
                     "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["report"] == "DURABILITY_6"
        assert report["ok"] is True
        assert report["seeds"] == 2
        assert report["crashes"] == report["crash_runs"] > 0
        assert "wal.append.body" in report["sites"]

    def test_check_passes_on_clean_sweep(self, capsys):
        assert main(["durability", "--seeds", "2", "--ops", "18",
                     "--check"]) == 0
        assert capsys.readouterr().err == ""

    def test_check_fails_on_lossy_sweep(self, monkeypatch, capsys):
        import repro.store.harness as harness
        real_sweep = harness.run_durability_sweep

        def lossy(seeds, ops, base_dir=None):
            report = real_sweep(1, 18, base_dir=base_dir)
            report["ok"] = False
            report["acked_loss_total"] = 3
            return report

        monkeypatch.setattr(harness, "run_durability_sweep", lossy)
        assert main(["durability", "--seeds", "1", "--json",
                     "--check"]) == 1
        err = capsys.readouterr().err
        assert "durability check failed" in err
        assert "3 acknowledged update(s) lost" in err

    def test_out_writes_report_file(self, tmp_path, capsys):
        target = tmp_path / "DURABILITY_6.json"
        assert main(["durability", "--seeds", "2", "--ops", "18", "--json",
                     "--out", str(target)]) == 0
        assert f"wrote {target}" in capsys.readouterr().out
        assert json.loads(target.read_text())["report"] == "DURABILITY_6"


def test_cli_import_does_not_load_scipy():
    """The serve path never solves an assignment problem, so importing the
    CLI must not pay for ``scipy``: ``translate.similarity`` imports it on
    first use.  Run in a fresh interpreter, since this one may have loaded
    it already."""
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    probe = ("import sys, repro.cli; print(sorted("
             "m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, timeout=120,
                            check=True)
    assert result.stdout.strip() == "[]"
