"""The recovery path: snapshot + tail assembly and its refusals."""

import pytest

from repro.errors import RecoveryError
from repro.store.recovery import recover
from repro.store.snapshot import SnapshotStore
from repro.store.wal import WriteAheadLog


def _stores(tmp_path):
    wal = WriteAheadLog(tmp_path / "wal.log").open()
    snaps = SnapshotStore(tmp_path / "snaps")
    return wal, snaps


def _recover(wal, snaps):
    """Recover as a restarted process does: reopen the log and hand
    ``recover`` the records its open decoded."""
    wal.close()
    reopened = WriteAheadLog(wal.path)
    return recover(reopened, snaps, reopened.open_records())


def test_log_only_recovery(tmp_path):
    wal, snaps = _stores(tmp_path)
    wal.append({"kind": "a"})
    wal.append({"kind": "b"})
    state = _recover(wal, snaps)
    assert state.state == {}
    assert [r["kind"] for r in state.tail] == ["a", "b"]
    assert not state.used_snapshot()
    assert state.next_lsn == 2


def test_snapshot_plus_tail(tmp_path):
    wal, snaps = _stores(tmp_path)
    wal.append({"kind": "covered"})
    snaps.save({"total": 1}, wal_lsn=wal.next_lsn)
    wal.append({"kind": "tail1"})
    wal.append({"kind": "tail2"})
    state = _recover(wal, snaps)
    assert state.state == {"total": 1}
    assert [r["kind"] for r in state.tail] == ["tail1", "tail2"]
    assert state.snapshot_lsn == 1
    assert state.used_snapshot()


def test_corrupt_latest_snapshot_replays_longer_tail(tmp_path):
    wal, snaps = _stores(tmp_path)
    wal.append({"kind": "old"})
    snaps.save({"gen": 1}, wal_lsn=wal.next_lsn)
    wal.append({"kind": "mid"})
    newest = snaps.save({"gen": 2}, wal_lsn=wal.next_lsn)
    wal.append({"kind": "new"})
    newest.write_text("garbage")
    state = _recover(wal, snaps)
    assert state.state == {"gen": 1}
    assert [r["kind"] for r in state.tail] == ["mid", "new"]
    assert state.skipped_snapshots == 1


def test_compacted_past_every_snapshot_refuses(tmp_path):
    wal, snaps = _stores(tmp_path)
    for i in range(4):
        wal.append({"i": i})
    wal.compact(3)
    with pytest.raises(RecoveryError):
        _recover(wal, snaps)


def test_snapshot_behind_compacted_base_refuses(tmp_path):
    wal, snaps = _stores(tmp_path)
    for i in range(4):
        wal.append({"i": i})
    snaps.save({"gen": 1}, wal_lsn=1)
    wal.compact(3)
    with pytest.raises(RecoveryError):
        _recover(wal, snaps)
