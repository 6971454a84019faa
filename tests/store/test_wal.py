"""The write-ahead log: append/reopen, torn tails, mid-log corruption."""

import pytest

from repro.errors import CorruptLogError, SimulatedCrashError, StoreError
from repro.store.wal import (HEADER_SIZE, WriteAheadLog, encode_header,
                             encode_record, scan_records)
from repro.webcom.faults import CrashPointInjector, CrashPointPlan


def _open(tmp_path, **kwargs):
    return WriteAheadLog(tmp_path / "wal.log", **kwargs).open()


class TestAppendReopen:
    def test_append_returns_consecutive_lsns(self, tmp_path):
        wal = _open(tmp_path)
        assert wal.append({"kind": "a"}) == 0
        assert wal.append({"kind": "b"}) == 1
        assert wal.next_lsn == 2

    def test_reopen_replays_exact_payloads(self, tmp_path):
        wal = _open(tmp_path)
        wal.append({"kind": "x", "n": 1})
        wal.append({"kind": "y", "text": "héllo\nworld"})
        wal.close()
        again = _open(tmp_path)
        assert again.records() == [(0, {"kind": "x", "n": 1}),
                                   (1, {"kind": "y", "text": "héllo\nworld"})]
        assert again.truncated_bytes == 0

    def test_append_on_closed_log_raises(self, tmp_path):
        wal = _open(tmp_path)
        wal.close()
        with pytest.raises(StoreError):
            wal.append({"kind": "late"})

    def test_empty_file_is_reinitialised(self, tmp_path):
        (tmp_path / "wal.log").write_bytes(b"")
        wal = _open(tmp_path)
        assert wal.records() == []
        assert wal.base_lsn == 0


class TestTornTail:
    def test_half_record_is_truncated(self, tmp_path):
        wal = _open(tmp_path)
        wal.append({"kind": "keep"})
        wal.close()
        path = tmp_path / "wal.log"
        record = encode_record({"kind": "torn"})
        path.write_bytes(path.read_bytes() + record[:len(record) // 2])
        again = _open(tmp_path)
        assert [p for _l, p in again.records()] == [{"kind": "keep"}]
        assert again.truncated_bytes > 0
        # the truncation is physical: a further reopen is clean
        again.append({"kind": "next"})
        again.close()
        final = _open(tmp_path)
        assert [p["kind"] for _l, p in final.records()] == ["keep", "next"]
        assert final.truncated_bytes == 0

    def test_bitflipped_last_record_is_truncated(self, tmp_path):
        wal = _open(tmp_path)
        wal.append({"kind": "keep"})
        wal.append({"kind": "doomed"})
        wal.close()
        path = tmp_path / "wal.log"
        data = bytearray(path.read_bytes())
        data[-3] ^= 0xFF
        path.write_bytes(bytes(data))
        again = _open(tmp_path)
        assert [p["kind"] for _l, p in again.records()] == ["keep"]

    def test_torn_header_restarts_empty(self, tmp_path):
        (tmp_path / "wal.log").write_bytes(encode_header(0)[:7])
        wal = _open(tmp_path)
        assert wal.records() == []
        assert wal.truncated_bytes == 7


class TestMidLogCorruption:
    def test_flip_before_valid_record_raises(self, tmp_path):
        wal = _open(tmp_path)
        wal.append({"kind": "first"})
        wal.append({"kind": "second"})
        wal.close()
        path = tmp_path / "wal.log"
        data = bytearray(path.read_bytes())
        data[HEADER_SIZE + 10] ^= 0xFF  # inside the first record's body
        path.write_bytes(bytes(data))
        with pytest.raises(CorruptLogError) as err:
            _open(tmp_path)
        assert err.value.reason == "checksum"
        assert err.value.offset == HEADER_SIZE

    def test_corrupt_header_with_valid_records_raises(self, tmp_path):
        wal = _open(tmp_path)
        wal.append({"kind": "survivor"})
        wal.close()
        path = tmp_path / "wal.log"
        data = bytearray(path.read_bytes())
        data[3] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(CorruptLogError) as err:
            _open(tmp_path)
        assert err.value.reason == "header"

    def test_scan_records_reports_area_offsets(self):
        good = encode_record({"kind": "ok"})
        bad = bytearray(encode_record({"kind": "bad"}))
        bad[-1] ^= 0xFF
        with pytest.raises(CorruptLogError) as err:
            scan_records(bytes(bad) + good, path="x", area_offset=100)
        assert err.value.offset == 100


class TestCompaction:
    def test_compact_drops_covered_records(self, tmp_path):
        wal = _open(tmp_path)
        for i in range(5):
            wal.append({"i": i})
        assert wal.compact(3) == 3
        assert wal.base_lsn == 3
        assert wal.records() == [(3, {"i": 3}), (4, {"i": 4})]
        wal.append({"i": 5})
        wal.close()
        again = _open(tmp_path)
        assert again.base_lsn == 3
        assert [l for l, _p in again.records()] == [3, 4, 5]

    def test_compact_below_base_is_noop(self, tmp_path):
        wal = _open(tmp_path)
        wal.append({"i": 0})
        assert wal.compact(0) == 0

    def test_crash_before_rename_keeps_original(self, tmp_path):
        injector = CrashPointInjector(CrashPointPlan.kill_at("wal.compact.tmp"))
        wal = _open(tmp_path, crash=injector.reached)
        for i in range(4):
            wal.append({"i": i})
        with pytest.raises(SimulatedCrashError):
            wal.compact(2)
        wal.close()
        again = _open(tmp_path)  # also removes the stale .tmp
        assert again.base_lsn == 0
        assert len(again) == 4
        assert not (tmp_path / "wal.log.tmp").exists()

    def test_crash_after_rename_keeps_compacted(self, tmp_path):
        injector = CrashPointInjector(
            CrashPointPlan.kill_at("wal.compact.renamed"))
        wal = _open(tmp_path, crash=injector.reached)
        for i in range(4):
            wal.append({"i": i})
        with pytest.raises(SimulatedCrashError):
            wal.compact(2)
        again = _open(tmp_path)
        assert again.base_lsn == 2
        assert [l for l, _p in again.records()] == [2, 3]


class TestAppendCrashSites:
    @pytest.mark.parametrize("site", ["wal.append.begin", "wal.append.header",
                                      "wal.append.body"])
    def test_crash_before_sync_loses_only_inflight(self, tmp_path, site):
        injector = CrashPointInjector(CrashPointPlan.kill_at(site, hit=2))
        wal = _open(tmp_path, crash=injector.reached)
        wal.append({"kind": "acked"})
        with pytest.raises(SimulatedCrashError):
            wal.append({"kind": "torn"})
        wal.close()
        again = _open(tmp_path)
        assert [p["kind"] for _l, p in again.records()] == ["acked"]

    def test_crash_at_synced_preserves_record(self, tmp_path):
        injector = CrashPointInjector(
            CrashPointPlan.kill_at("wal.append.synced", hit=2))
        wal = _open(tmp_path, crash=injector.reached)
        wal.append({"kind": "acked"})
        with pytest.raises(SimulatedCrashError):
            wal.append({"kind": "durable_unacked"})
        wal.close()
        again = _open(tmp_path)
        assert [p["kind"] for _l, p in again.records()] == \
            ["acked", "durable_unacked"]


class TestNoPayloadsHeld:
    """The log keeps positions and counts, not decoded records: a daemon
    appends for its whole life and compacts only when it snapshots."""

    PAYLOADS = [{"kind": "keynote.credential", "text": f"credential {i}\n",
                 "expires_at": None if i % 2 else 1.5 * i,
                 "nested": {"n": i, "items": ["a", i]}} for i in range(40)]

    @staticmethod
    def _held(wal) -> list:
        """What the log object refers to that could carry a payload."""
        return [value for value in vars(wal).values()
                if isinstance(value, (dict, list, tuple, bytes))]

    def test_appends_keep_no_payload(self, tmp_path):
        wal = _open(tmp_path)
        for payload in self.PAYLOADS:
            wal.append(payload)
        assert self._held(wal) == []
        assert len(wal) == wal.next_lsn == len(self.PAYLOADS)
        assert wal.records() == list(enumerate(self.PAYLOADS))
        wal.close()
        again = _open(tmp_path)
        assert self._held(again) == []
        assert again.records() == list(enumerate(self.PAYLOADS))

    def test_compaction_reads_the_file(self, tmp_path):
        wal = _open(tmp_path)
        for payload in self.PAYLOADS:
            wal.append(payload)
        assert wal.compact(25) == 25
        assert self._held(wal) == []
        assert wal.records() == list(enumerate(self.PAYLOADS))[25:]
        assert wal.append({"kind": "after"}) == len(self.PAYLOADS)
        wal.close()
        again = _open(tmp_path)
        assert again.records() == [
            *list(enumerate(self.PAYLOADS))[25:],
            (len(self.PAYLOADS), {"kind": "after"})]
