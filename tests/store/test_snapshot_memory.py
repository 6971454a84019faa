"""Snapshot operations hold no canonical copy of the state, and
compaction holds one parsed snapshot at a time.

Counting and tracemalloc gates (no timing) on a bench-shaped state of
2000 credentials.  A load holds the file text and the parsed state; a
save holds the document text and the encoder's pieces of it.  Neither
builds the ~1 MB canonical text just to checksum it.  The peaks were
measured on CPython 3.10, 3.11 and 3.12, where the bounds leave about a
quarter of a file size of headroom and the previous whole-text CRC
exceeds them by about a megabyte.
"""

import json
import tracemalloc

import pytest

from repro.errors import SimulatedCrashError
from repro.store import wal as wal_module
from repro.store.harness import _recover_node, synthetic_state
from repro.store.snapshot import SnapshotStore
from repro.webcom.faults import CrashPointInjector, CrashPointPlan


@pytest.fixture(scope="module")
def state() -> dict:
    return synthetic_state(2000)


class _Traced:
    """Bytes held at the end and at the peak of a block, above its start."""

    def __enter__(self) -> "_Traced":
        tracemalloc.start()
        self.start = tracemalloc.get_traced_memory()[0]
        return self

    def __exit__(self, *_exc) -> None:
        current, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        self.held, self.peak = current - self.start, peak - self.start


def _load_bound(size: int, held: int) -> int:
    """The file text, one parsed state, and a quarter file of headroom."""
    return size + held + size // 4


def test_a_save_holds_no_canonical_copy(tmp_path, state):
    """The document text and the encoder's pieces of it come to about
    two file sizes; a canonical copy would add a third."""
    store = SnapshotStore(tmp_path / "snaps")
    with _Traced() as traced:
        path = store.save(state, wal_lsn=0)
    size = path.stat().st_size
    assert traced.peak <= 2 * size + size // 2


def test_a_load_holds_the_file_text_and_the_state_alone(tmp_path, state):
    path = SnapshotStore(tmp_path / "snaps").save(state, wal_lsn=0)
    store = SnapshotStore(tmp_path / "snaps")
    with _Traced() as traced:
        loaded = store.load_latest()
    assert loaded.state == state
    assert traced.peak <= _load_bound(path.stat().st_size, traced.held)


def test_compaction_holds_one_parsed_snapshot_at_a_time(tmp_path, state):
    store = SnapshotStore(tmp_path / "snaps", keep=2)
    path = store.save(state, wal_lsn=3)
    store.save(state, wal_lsn=9)
    with _Traced() as load:
        loaded = SnapshotStore(tmp_path / "snaps").load_latest()
    assert loaded.wal_lsn == 9
    with _Traced() as traced:
        assert store.retained_floor() == 3
    assert traced.peak <= _load_bound(path.stat().st_size, load.held)


def test_a_partial_write_is_a_strict_nonempty_prefix(tmp_path, state):
    injector = CrashPointInjector(
        CrashPointPlan.kill_at("snapshot.tmp_partial"))
    store = SnapshotStore(tmp_path / "snaps", crash=injector.reached)
    with pytest.raises(SimulatedCrashError):
        store.save(state, wal_lsn=0)
    (tmp,) = (tmp_path / "snaps").glob("*.json.tmp")
    partial = tmp.read_bytes()
    final = SnapshotStore(tmp_path / "clean").save(state, wal_lsn=0)
    whole = final.read_bytes()
    assert 0 < len(partial) < len(whole)
    assert whole.startswith(partial)


class _CountingJson:
    """The WAL module's ``json``, counting ``loads`` calls."""

    def __init__(self) -> None:
        self.loads_calls = 0

    def __getattr__(self, name):
        return getattr(json, name)

    def loads(self, *args, **kwargs):
        self.loads_calls += 1
        return json.loads(*args, **kwargs)


def test_recovery_decodes_each_tail_record_once(tmp_path, monkeypatch):
    tail = 25
    node = _recover_node(tmp_path / "node")
    node.session.add_policy('Authorizer: POLICY\nLicensees: "Kroot"\n'
                            'Conditions: app_domain=="db";')
    node.snapshot()
    for n in range(tail):
        node.checkpoints["payroll"].mark(f"n{n}", n)
    node.close()
    spy = _CountingJson()
    monkeypatch.setattr(wal_module, "json", spy)
    again = _recover_node(tmp_path / "node")
    try:
        assert len(again.store.wal) == tail
        assert len(again.checkpoints["payroll"].completed) == tail
    finally:
        again.close()
    assert spy.loads_calls == tail
