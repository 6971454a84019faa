"""Periodic snapshots with atomic rename.

A snapshot is the full policy-plane state (credentials, RBAC relations,
KeyCom install history, propagation log and version vectors, graph
checkpoints) serialised as canonical JSON together with the WAL position it
covers.  Snapshots bound recovery time — recovery loads the newest valid
snapshot and replays only the WAL tail past its ``wal_lsn`` — and let the
log be compacted.

Durability discipline:

- the snapshot is written to a ``.tmp`` file first and atomically
  ``os.replace``d into place, so a crash mid-write never damages an
  existing snapshot;
- the state body carries its own CRC, so a snapshot bit-flipped at rest is
  *skipped* (recovery falls back to the previous one) rather than loaded;
- the CRC is fed the encoder's chunks, so neither a save nor a load
  builds the canonical text of the state whole;
- the previous ``keep - 1`` snapshots are retained, and the WAL is only
  compacted up to the *oldest retained* snapshot, so falling back never
  strands recovery past the log's base.
"""

from __future__ import annotations

import json
import os
import re
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.store.wal import CrashHook, _no_crash

FORMAT_VERSION = 1
_NAME = re.compile(r"^snapshot-(\d{10})\.json$")
#: the checksummed text of a state: compact, keys sorted
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _canonical(state: dict[str, Any]) -> str:
    """The whole canonical text, whose CRC-32 is the checksum (the store
    itself only ever encodes it in chunks)."""
    return _CANONICAL.encode(state)


def _checksum(state: dict[str, Any]) -> int:
    """CRC-32 of ``_canonical(state)``, fed chunk by chunk: the canonical
    text is never built whole (it is ASCII, so each chunk's UTF-8 is its
    share of the whole text's)."""
    crc = 0
    for chunk in _CANONICAL.iterencode(state):
        crc = zlib.crc32(chunk.encode("utf-8"), crc)
    return crc


@dataclass(frozen=True)
class LoadedSnapshot:
    """One successfully loaded snapshot."""

    seq: int
    wal_lsn: int
    state: dict[str, Any]
    path: Path


class SnapshotStore:
    """Numbered snapshots in one directory (``snapshot-NNNNNNNNNN.json``).

    :param directory: where snapshots live (created on demand).
    :param crash: crash hook consulted at every write site.
    :param keep: how many snapshots to retain (>= 1).
    """

    def __init__(self, directory: "Path | str",
                 crash: CrashHook | None = None, keep: int = 2) -> None:
        self.directory = Path(directory)
        self.crash: CrashHook = crash or _no_crash
        self.keep = max(1, keep)
        #: snapshots skipped as unreadable/corrupt by the last load
        self.skipped = 0

    # -- enumeration ---------------------------------------------------------

    def _entries(self) -> list[tuple[int, Path]]:
        if not self.directory.is_dir():
            return []
        entries = []
        for path in self.directory.iterdir():
            match = _NAME.match(path.name)
            if match:
                entries.append((int(match.group(1)), path))
        return sorted(entries)

    def next_seq(self) -> int:
        entries = self._entries()
        return entries[-1][0] + 1 if entries else 1

    # -- writes --------------------------------------------------------------

    def save(self, state: dict[str, Any], wal_lsn: int) -> Path:
        """Write one snapshot atomically; returns its final path.

        The document embeds ``wal_lsn`` (the log position the state
        covers) and a CRC of the canonical state text, verified on load.
        """
        self.directory.mkdir(parents=True, exist_ok=True)
        seq = self.next_seq()
        final = self.directory / f"snapshot-{seq:010d}.json"
        tmp = final.with_suffix(".json.tmp")
        document = json.dumps({
            "format": FORMAT_VERSION,
            "seq": seq,
            "wal_lsn": wal_lsn,
            "checksum": _checksum(state),
            "state": state,
        }, sort_keys=True)
        self.crash("snapshot.begin")
        with open(tmp, "w", encoding="utf-8") as handle:
            half = len(document) // 2
            handle.write(document[:half])
            handle.flush()
            self.crash("snapshot.tmp_partial")
            handle.write(document[half:])
            handle.flush()
            os.fsync(handle.fileno())
        self.crash("snapshot.tmp_written")
        os.replace(tmp, final)
        self.crash("snapshot.renamed")
        self._prune()
        return final

    def _prune(self) -> None:
        entries = self._entries()
        for _seq, path in entries[:-self.keep]:
            path.unlink(missing_ok=True)
        for path in self.directory.glob("*.json.tmp"):
            path.unlink(missing_ok=True)

    # -- reads ---------------------------------------------------------------

    def load_latest(self) -> LoadedSnapshot | None:
        """The newest snapshot that parses and passes its checksum.

        Unreadable or corrupt snapshots are skipped (counted in
        :attr:`skipped`) and the previous one is tried — a half-written or
        bit-flipped snapshot must degrade recovery, never block it.
        """
        self.skipped = 0
        for seq, path in reversed(self._entries()):
            loaded = self._load_one(seq, path)
            if loaded is not None:
                return loaded
            self.skipped += 1
        return None

    def retained_floor(self) -> int | None:
        """The smallest ``wal_lsn`` among *valid* retained snapshots — the
        compaction bound that keeps every fallback snapshot usable.  The
        files are validated one at a time, and only each ``wal_lsn`` is
        kept, so one parsed state at most is alive at once."""
        floors = [self._valid_lsn(seq, path)
                  for seq, path in self._entries()]
        return min((lsn for lsn in floors if lsn is not None), default=None)

    @classmethod
    def _valid_lsn(cls, seq: int, path: Path) -> int | None:
        loaded = cls._load_one(seq, path)
        return None if loaded is None else loaded.wal_lsn

    @staticmethod
    def _load_one(seq: int, path: Path) -> LoadedSnapshot | None:
        try:
            document = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError, json.JSONDecodeError):
            return None
        if not isinstance(document, dict):
            return None
        if document.get("format") != FORMAT_VERSION:
            return None
        state = document.get("state")
        wal_lsn = document.get("wal_lsn")
        if not isinstance(state, dict) or not isinstance(wal_lsn, int):
            return None
        if _checksum(state) != document.get("checksum"):
            return None
        return LoadedSnapshot(seq=seq, wal_lsn=wal_lsn, state=state,
                              path=path)
