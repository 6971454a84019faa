"""Perf: the durable store's snapshot path on a bench-shaped root.

Times ``SnapshotStore.save``, ``SnapshotStore.load_latest`` and
``DurablePolicyNode.recover`` over a generated root of 2000 credentials
(one snapshot, empty log), and records each operation's tracemalloc peak
above its start in ``extra_info["peak_bytes"]``.  The peaks are traced
once, outside the timed rounds, so the timings are untraced.

Run:  PYTHONPATH=src python -m pytest benchmarks/test_perf_store.py
"""

import tracemalloc

import pytest

from repro.store.durable import DurablePolicyNode
from repro.store.harness import synthetic_state
from repro.store.snapshot import SnapshotStore

CREDENTIALS = 2000


@pytest.fixture(scope="module")
def state() -> dict:
    return synthetic_state(CREDENTIALS)


@pytest.fixture
def root(tmp_path, state):
    root = tmp_path / "root"
    SnapshotStore(root / "snapshots").save(state, wal_lsn=0)
    return root


def _traced_peak(operation) -> int:
    tracemalloc.start()
    start = tracemalloc.get_traced_memory()[0]
    operation()
    peak = tracemalloc.get_traced_memory()[1] - start
    tracemalloc.stop()
    return peak


def test_perf_snapshot_save(benchmark, tmp_path, state):
    store = SnapshotStore(tmp_path / "snaps", keep=1)
    benchmark.extra_info["peak_bytes"] = _traced_peak(
        lambda: store.save(state, wal_lsn=0))
    path = benchmark(store.save, state, 0)
    benchmark.extra_info["file_bytes"] = path.stat().st_size


def test_perf_snapshot_load_latest(benchmark, root, state):
    store = SnapshotStore(root / "snapshots")
    benchmark.extra_info["peak_bytes"] = _traced_peak(store.load_latest)
    loaded = benchmark(store.load_latest)
    assert loaded.state == state


def test_perf_node_recover(benchmark, root):
    def recover():
        node = DurablePolicyNode.recover(root, verify_signatures=False)
        node.close()
        return node

    benchmark.extra_info["peak_bytes"] = _traced_peak(recover)
    node = benchmark(recover)
    assert len(node.session.credentials) == CREDENTIALS
