"""The snapshot file format is pinned: re-saving a version-1 file's state
reproduces its bytes, and the chunked checksum is the CRC-32 of the whole
canonical state text.

``cases/snapshot_v1.json`` embeds, as its ``raw`` snapshot, a
``FORMAT_VERSION`` 1 file from a small node whose checksum was taken over
the whole canonical text at once; the recovery-fixture replay also
recovers it.
"""

import json
import zlib
from pathlib import Path

import pytest

from repro.store.harness import _recover_node, synthetic_state
from repro.store.snapshot import SnapshotStore, _canonical

CASE = Path(__file__).parent / "cases" / "snapshot_v1.json"


@pytest.fixture(scope="module")
def pinned() -> str:
    return json.loads(CASE.read_text())["snapshots"][0]["raw"]


@pytest.fixture(scope="module")
def state() -> dict:
    return synthetic_state(2000)


def _write_pinned(directory: Path, raw: str) -> Path:
    directory.mkdir(parents=True)
    path = directory / "snapshot-0000000001.json"
    path.write_text(raw, encoding="utf-8")
    return path


def test_the_pinned_snapshot_loads(tmp_path, pinned):
    _write_pinned(tmp_path / "snaps", pinned)
    loaded = SnapshotStore(tmp_path / "snaps").load_latest()
    assert loaded is not None and loaded.seq == 1
    document = json.loads(pinned)
    assert loaded.wal_lsn == document["wal_lsn"]
    assert loaded.state == document["state"]
    session = loaded.state["session"]
    assert {expires for _text, expires in session["credentials"]} == {
        50.0, None, 120.5}
    assert loaded.state["keycom"]["applied_ids"] == ["r0", "r1"]
    assert [u["update_id"] for u in loaded.state["engine"]["updates"]] == [
        "u1", "u2"]


def test_resaving_the_pinned_state_reproduces_its_bytes(tmp_path, pinned):
    _write_pinned(tmp_path / "old", pinned)
    loaded = SnapshotStore(tmp_path / "old").load_latest()
    path = SnapshotStore(tmp_path / "new").save(loaded.state, loaded.wal_lsn)
    assert path.read_bytes() == pinned.encode("utf-8")


def test_a_node_recovers_the_pinned_state(tmp_path, pinned):
    root = tmp_path / "node"
    _write_pinned(root / "snapshots", pinned)
    node = _recover_node(root)
    try:
        assert node.recovered.snapshot_seq == 1
        assert node.state() == json.loads(pinned)["state"]
    finally:
        node.close()


def test_the_chunked_checksum_is_the_whole_text_crc(tmp_path, state):
    path = SnapshotStore(tmp_path / "snaps").save(state, wal_lsn=0)
    assert json.loads(path.read_text())["checksum"] == zlib.crc32(
        _canonical(state).encode("utf-8"))
