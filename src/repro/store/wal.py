"""Checksummed, length-prefixed append-only write-ahead log.

The durable substrate under the policy plane: every mutation of
authorisation state (credentials, RBAC facts, KeyCom installs, versioned
propagation updates, graph checkpoints) is appended here *before* it is
applied in memory, so a crashed node can replay its acknowledged history.

On-disk layout::

    file   := header record*
    header := magic(8) base_lsn(>Q) crc32(header[:16])(>I)      ; 20 bytes
    record := length(>I) crc32(payload)(>I) payload             ; 8 + n bytes

Payloads are canonical JSON objects (sorted keys, UTF-8).  The log sequence
number (LSN) of a record is ``base_lsn + its index``; ``base_lsn`` advances
when the log is compacted after a snapshot.

Recovery semantics (:func:`scan_records`):

- a **torn tail** — a trailing record whose header or body is incomplete,
  or whose checksum fails with nothing valid after it — is the normal
  residue of a crash mid-append and is cleanly truncated;
- a **corrupt mid-log record** — checksum or decode failure with at least
  one structurally valid record after it — means acknowledged history was
  damaged in place, and recovery raises a structured
  :class:`~repro.errors.CorruptLogError` instead of silently dropping it.

Crash points: every write site calls the injected hook (``wal.append.*``,
``wal.compact.*``) so the seeded sweep can kill the process between any two
bytes reaching the medium.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro.errors import CorruptLogError, StoreError

#: crash hook protocol: called with a site name; raises SimulatedCrashError
#: to kill the process there (the default hook does nothing)
CrashHook = Callable[[str], None]

MAGIC = b"REPROWAL"
HEADER_SIZE = 20
RECORD_HEADER = struct.Struct(">II")
#: sanity bound on a single record body (a corrupted length field almost
#: always lands far above this)
MAX_RECORD_SIZE = 1 << 26


def _no_crash(_site: str) -> None:
    return None


def encode_record(payload: dict[str, Any]) -> bytes:
    """One payload as its on-disk record bytes (header + canonical JSON)."""
    body = json.dumps(payload, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")
    return RECORD_HEADER.pack(len(body), zlib.crc32(body)) + body


def encode_header(base_lsn: int) -> bytes:
    """The 20-byte file header for a log whose first record is ``base_lsn``."""
    prefix = MAGIC + struct.pack(">Q", base_lsn)
    return prefix + struct.pack(">I", zlib.crc32(prefix))


def _record_at(data: "bytes | memoryview",
               offset: int) -> "tuple[dict, int] | None":
    """Decode the record starting at ``offset``; None if it is not a
    structurally valid record (short, oversized, bad checksum, bad JSON)."""
    if len(data) - offset < RECORD_HEADER.size:
        return None
    length, crc = RECORD_HEADER.unpack_from(data, offset)
    body_start = offset + RECORD_HEADER.size
    if length > MAX_RECORD_SIZE or len(data) - body_start < length:
        return None
    body = data[body_start:body_start + length]
    if zlib.crc32(body) != crc:
        return None
    try:
        payload = json.loads(str(body, "utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None
    if not isinstance(payload, dict):
        return None
    return payload, body_start + length


def _valid_record_follows(data: "bytes | memoryview", offset: int) -> bool:
    """True if a structurally valid record starts exactly at ``offset`` —
    the discriminator between a torn tail and mid-log corruption."""
    return _record_at(data, offset) is not None


@dataclass
class ScanResult:
    """What one pass over a log's record area found."""

    records: list[dict] = field(default_factory=list)
    #: byte length (within the record area) of the clean prefix
    clean_length: int = 0
    #: bytes of torn/corrupt tail discarded by truncation
    truncated_bytes: int = 0


def scan_records(data: "bytes | memoryview", path: str = "",
                 area_offset: int = 0) -> ScanResult:
    """Decode a record area, truncating a torn tail.

    :param data: the record area bytes (after the file header); a
        memoryview is scanned in place, each body decoded from a slice of
        it without a copy.
    :param path: file name for error messages.
    :param area_offset: absolute offset of ``data[0]`` in the file, so
        :class:`~repro.errors.CorruptLogError` carries a file offset.
    :raises CorruptLogError: on a corrupt record that is provably mid-log
        (a valid record follows it).
    """
    result = ScanResult()
    offset = 0
    n = len(data)
    while offset < n:
        if n - offset < RECORD_HEADER.size:
            break  # torn header at the tail
        length, crc = RECORD_HEADER.unpack_from(data, offset)
        body_start = offset + RECORD_HEADER.size
        if length > MAX_RECORD_SIZE or n - body_start < length:
            break  # claimed body runs past EOF: torn tail
        body = data[body_start:body_start + length]
        end = body_start + length
        if zlib.crc32(body) != crc:
            if _valid_record_follows(data, end):
                raise CorruptLogError(
                    f"corrupt mid-log record at byte "
                    f"{area_offset + offset} of {path or 'log'}: "
                    f"checksum mismatch",
                    path=path, offset=area_offset + offset,
                    reason="checksum")
            break  # bit-flipped trailing record: truncate
        try:
            payload = json.loads(str(body, "utf-8"))
            if not isinstance(payload, dict):
                raise ValueError("record payload is not an object")
        except (UnicodeDecodeError, json.JSONDecodeError, ValueError):
            if _valid_record_follows(data, end):
                raise CorruptLogError(
                    f"corrupt mid-log record at byte "
                    f"{area_offset + offset} of {path or 'log'}: "
                    f"undecodable payload",
                    path=path, offset=area_offset + offset,
                    reason="decode") from None
            break
        result.records.append(payload)
        offset = end
    result.clean_length = offset
    result.truncated_bytes = n - offset
    return result


class WriteAheadLog:
    """One append-only log file with crash-point instrumentation.

    :param path: the log file (created on first open).
    :param crash: crash hook consulted at every write site.
    :param sync: fsync after each append (off by default: the simulated
        crash model kills the process, not the kernel page cache).
    :ivar base_lsn: LSN of the first record in the file.
    :ivar truncated_bytes: torn-tail bytes discarded by the last open.

    The log keeps no payload in memory, only how many records the file
    holds and where the last one ends: a daemon appends for its whole
    life and compacts only when it snapshots.  :meth:`open_records`
    hands its scan to recovery; :meth:`records` and :meth:`compact` read
    the file again.
    """

    def __init__(self, path: "Path | str", crash: CrashHook | None = None,
                 sync: bool = False) -> None:
        self.path = Path(path)
        self.crash: CrashHook = crash or _no_crash
        self.sync = sync
        self.base_lsn = 0
        self.truncated_bytes = 0
        self._count = 0
        #: file offset just past the last acknowledged record
        self._end = HEADER_SIZE
        self._file = None

    # -- lifecycle -----------------------------------------------------------

    def open(self) -> "WriteAheadLog":
        """Open (and recover) the log: parse the header, scan the record
        area, truncate any torn tail, and position for appends.

        :raises CorruptLogError: on a damaged header followed by valid
            records, or a corrupt mid-log record.
        """
        self.open_records()
        return self

    def open_records(self) -> list[dict]:
        """:meth:`open`, returning the payloads its scan decoded (from
        :attr:`base_lsn` on, in append order) — recovery's one decode of
        the file.  The log itself keeps none of them."""
        stale_tmp = self.path.with_suffix(self.path.suffix + ".tmp")
        if stale_tmp.exists():  # leftover of a crash mid-compaction
            stale_tmp.unlink()
        data = self.path.read_bytes() if self.path.exists() else b""
        self._count, self._end = 0, HEADER_SIZE
        if not data:
            self.base_lsn = 0
            self.truncated_bytes = 0
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self.path.write_bytes(encode_header(0))
            self._file = open(self.path, "r+b")
            self._file.seek(0, os.SEEK_END)
            return []
        self.base_lsn, header_ok = self._parse_header(data)
        if not header_ok:
            if _valid_record_follows(data, HEADER_SIZE):
                raise CorruptLogError(
                    f"corrupt header of {self.path} with intact records "
                    f"after it", path=str(self.path), offset=0,
                    reason="header")
            # Torn header (crash during creation): restart empty.
            self.base_lsn = 0
            self.truncated_bytes = len(data)
            self.path.write_bytes(encode_header(0))
            self._file = open(self.path, "r+b")
            self._file.seek(0, os.SEEK_END)
            return []
        scan = scan_records(memoryview(data)[HEADER_SIZE:],
                            path=str(self.path), area_offset=HEADER_SIZE)
        self._count = len(scan.records)
        self.truncated_bytes = scan.truncated_bytes
        self._end = HEADER_SIZE + scan.clean_length
        self._file = open(self.path, "r+b")
        if scan.truncated_bytes:
            self._file.truncate(self._end)
        self._file.seek(self._end)
        return scan.records

    @staticmethod
    def _parse_header(data: bytes) -> tuple[int, bool]:
        if len(data) < HEADER_SIZE:
            return 0, False
        if data[:8] != MAGIC:
            return 0, False
        (base_lsn,) = struct.unpack_from(">Q", data, 8)
        (crc,) = struct.unpack_from(">I", data, 16)
        if zlib.crc32(data[:16]) != crc:
            return 0, False
        return base_lsn, True

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None

    def __enter__(self) -> "WriteAheadLog":
        return self.open()

    def __exit__(self, *_exc) -> None:
        self.close()

    # -- reads ---------------------------------------------------------------

    def records(self) -> list[tuple[int, dict]]:
        """Every (lsn, payload) currently in the log, in append order,
        decoded from the file."""
        scan = scan_records(self._record_area(), path=str(self.path),
                            area_offset=HEADER_SIZE)
        return [(self.base_lsn + i, payload)
                for i, payload in enumerate(scan.records)]

    def _record_area(self) -> bytes:
        """The acknowledged records' bytes, read from the file."""
        if self._end == HEADER_SIZE:
            return b""
        with open(self.path, "rb") as handle:
            handle.seek(HEADER_SIZE)
            return handle.read(self._end - HEADER_SIZE)

    @property
    def next_lsn(self) -> int:
        """The LSN the next append will get."""
        return self.base_lsn + self._count

    def __len__(self) -> int:
        return self._count

    # -- writes --------------------------------------------------------------

    def append(self, payload: dict[str, Any]) -> int:
        """Durably append one record; returns its LSN.

        The append is *acknowledged* only when this method returns: a crash
        at any internal write site leaves at worst a torn tail that
        recovery truncates, and the caller knows the update may be lost.
        """
        if self._file is None:
            raise StoreError(f"log {self.path} is not open")
        record = encode_record(payload)
        header, body = record[:RECORD_HEADER.size], record[RECORD_HEADER.size:]
        self.crash("wal.append.begin")
        self._file.write(header)
        self._file.flush()
        self.crash("wal.append.header")
        half = len(body) // 2
        self._file.write(body[:half])
        self._file.flush()
        self.crash("wal.append.body")
        self._file.write(body[half:])
        self._file.flush()
        if self.sync:
            os.fsync(self._file.fileno())
        self.crash("wal.append.synced")
        lsn = self.next_lsn
        self._count += 1
        self._end += len(record)
        return lsn

    def compact(self, up_to_lsn: int) -> int:
        """Drop records below ``up_to_lsn`` (they are covered by a
        snapshot) by atomically rewriting the file; returns how many
        records were dropped.

        A crash before the final rename leaves the original log intact; a
        crash after it leaves the compacted log — either is recoverable.
        """
        if self._file is None:
            raise StoreError(f"log {self.path} is not open")
        keep_from = max(0, up_to_lsn - self.base_lsn)
        if keep_from == 0:
            return 0
        area = self._record_area()
        dropped = min(keep_from, self._count)
        offset = 0
        for _ in range(dropped):  # each record is its header and body
            length, _crc = RECORD_HEADER.unpack_from(area, offset)
            offset += RECORD_HEADER.size + length
        kept = memoryview(area)[offset:]
        new_base = self.base_lsn + keep_from
        tmp = self.path.with_suffix(self.path.suffix + ".tmp")
        self.crash("wal.compact.begin")
        with open(tmp, "wb") as handle:
            handle.write(encode_header(new_base))
            handle.write(kept)
            handle.flush()
            if self.sync:
                os.fsync(handle.fileno())
        self.crash("wal.compact.tmp")
        self._file.close()
        os.replace(tmp, self.path)
        self.crash("wal.compact.renamed")
        self.base_lsn = new_base
        self._count -= dropped
        self._end = HEADER_SIZE + len(kept)
        self._file = open(self.path, "r+b")
        self._file.seek(0, os.SEEK_END)
        return keep_from
