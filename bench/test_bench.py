"""Smoke tests of the benchmark itself.

Run from the checkout root with ``python -m pytest bench/test_bench.py``.
The smoke runs use a 100-user universe, one set-up and ~1 s phases.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
CHECKOUT = BENCH.parent
DECLARED = json.loads((CHECKOUT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(BENCH))
from compare import verdict  # noqa: E402


def run_bench(*args: str, cwd: Path = CHECKOUT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def units(declared: list[dict]) -> dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in declared}


def test_smoke_run_reports_every_end_to_end_metric():
    proc = run_bench("--smoke", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(results) == {w["name"] for w in DECLARED["workloads"]}
    for result in results.values():
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        assert {name: m["unit"] for name, m in result["metrics"].items()} \
            == units(DECLARED["end_to_end"])
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_smoke_run_reports_every_per_layer_metric():
    proc = run_bench("--smoke", "--trace", "1", "--workload",
                     "renewal_churn")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == units(DECLARED["per_layer"])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["store.wal.append.calls_per_req"] > 0
    assert metrics["keynote.compliance.revoke_assertion.calls_per_req"] > 0


def test_without_sources_the_benchmark_fails_fast(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    shutil.copy(CHECKOUT / "BENCHMARK.json", tmp_path)
    proc = run_bench("--workload", "hot_mediate", "--seed", "0",
                     "--seconds", "10", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_compare_verdicts():
    assert verdict([10, 10.1, 9.9], [12, 12.1, 11.9], "lower", 0.1)[0] \
        == "worse"
    assert verdict([10, 10.1, 9.9], [8, 8.1, 7.9], "lower", 0.1)[0] \
        == "better"
    assert verdict([10, 10.1, 9.9], [10.2, 10, 10.1], "lower", 0.1)[0] \
        == "same"
    assert verdict([10, 14, 7, 12], [11, 9, 13, 8], "higher", 0.1)[0] \
        == "unresolved"
