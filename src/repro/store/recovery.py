"""The recovery path: latest valid snapshot + WAL tail replay.

Recovery is the inverse of the write path and the property the whole store
exists for: after *any* crash, a restarted node must reassemble exactly the
acknowledged state — no acknowledged update lost, no torn garbage applied,
and a refusal (:class:`~repro.errors.CorruptLogError`) when acknowledged
mid-log history was damaged in place.

The contract, in order:

1. the newest snapshot that parses and passes its checksum is loaded
   (half-written or bit-flipped snapshots are skipped — the store retains
   enough older snapshots that the log always reaches back to one);
2. the WAL is opened, which itself truncates any torn tail and rejects
   corrupt mid-log records;
3. the tail — records with LSN at or past the snapshot's ``wal_lsn`` — is
   replayed on top of the snapshot state by the component restore functions
   (:mod:`repro.store.durable`).

Everything a recovered node serves is derived from this triple; in-memory
caches (decision caches, compiled checkers) are rebuilt
cold so no pre-crash cache entry can be served as fresh.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any

from repro.errors import RecoveryError
from repro.store.snapshot import SnapshotStore
from repro.store.wal import WriteAheadLog


@dataclass
class RecoveryInfo:
    """The scalar facts of one recovery: what a recovered node keeps once
    it has replayed the snapshot state and WAL tail."""

    #: LSN the snapshot covers (0 without a snapshot)
    snapshot_lsn: int = 0
    #: snapshot sequence number used (0 without a snapshot)
    snapshot_seq: int = 0
    #: torn-tail bytes the WAL open discarded
    truncated_bytes: int = 0
    #: snapshots skipped as unreadable/corrupt before one loaded
    skipped_snapshots: int = 0
    #: the LSN the next append will get
    next_lsn: int = 0

    def used_snapshot(self) -> bool:
        return self.snapshot_seq > 0


@dataclass
class RecoveredState(RecoveryInfo):
    """Everything recovery reassembled from disk."""

    #: the snapshot state, or {} when recovering from the log alone
    state: dict[str, Any] = field(default_factory=dict)
    #: WAL payloads past the snapshot, in append (LSN) order
    tail: list[dict] = field(default_factory=list)

    def info(self) -> RecoveryInfo:
        """The scalar facts alone, without the decoded snapshot document
        and log records the component restores consumed."""
        return RecoveryInfo(**{f.name: getattr(self, f.name)
                               for f in fields(RecoveryInfo)})


def recover(wal: WriteAheadLog, snapshots: SnapshotStore,
            records: list[dict]) -> RecoveredState:
    """Assemble the recovered state from an *opened* WAL and its snapshots.

    :param records: the log's payloads as
        :meth:`~repro.store.wal.WriteAheadLog.open_records` decoded them
        when it opened ``wal``.
    :raises RecoveryError: when the log was compacted past every usable
        snapshot (acknowledged history is unreachable) — a configuration
        the compact-to-oldest-retained rule prevents, checked anyway.
    :raises CorruptLogError: propagated from the WAL open for corrupt
        mid-log records (callers open the WAL first).
    """
    loaded = snapshots.load_latest()
    if loaded is None:
        if wal.base_lsn > 0:
            raise RecoveryError(
                f"log {wal.path} was compacted to lsn {wal.base_lsn} but "
                f"no snapshot is loadable")
        return RecoveredState(
            state={}, tail=records,
            truncated_bytes=wal.truncated_bytes,
            skipped_snapshots=snapshots.skipped,
            next_lsn=wal.next_lsn)
    if loaded.wal_lsn < wal.base_lsn:
        raise RecoveryError(
            f"snapshot {loaded.path.name} covers lsn {loaded.wal_lsn} but "
            f"log {wal.path} starts at {wal.base_lsn}")
    return RecoveredState(
        state=loaded.state, tail=records[loaded.wal_lsn - wal.base_lsn:],
        snapshot_lsn=loaded.wal_lsn,
        snapshot_seq=loaded.seq, truncated_bytes=wal.truncated_bytes,
        skipped_snapshots=snapshots.skipped, next_lsn=wal.next_lsn)
