"""The WAL reads its file once and keeps no second copy of it.

Tracemalloc gates (no timing) on a log of about 2 MB.  Opening the log
holds the file bytes while its scan decodes each record from a view of
them, so beyond the records it returns the open peaks at about one file
size; slicing the record area off the file bytes would add a second.
Compaction holds the record area it read and writes the kept records
from a view of it; copying the kept records would add up to another
file size.  Each bound sits 0.8 of a file size below the copying
version's peak.
"""

import tracemalloc

import pytest

from repro.store.wal import WriteAheadLog

RECORDS = 2000


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


@pytest.fixture
def log_path(tmp_path):
    path = tmp_path / "wal.log"
    with WriteAheadLog(path) as wal:
        for n in range(RECORDS):
            wal.append({"kind": "rbac.grant", "n": n, "role": f"r{n}",
                        "pad": "x" * 1000})
    return path


def test_open_holds_one_copy_of_the_file(log_path):
    size = log_path.stat().st_size
    wal = WriteAheadLog(log_path)
    with _Traced() as traced:
        records = wal.open_records()
    wal.close()
    assert len(records) == RECORDS
    assert traced.peak - traced.held <= size + size // 5


def test_compact_holds_one_copy_of_the_record_area(log_path):
    size = log_path.stat().st_size
    with WriteAheadLog(log_path) as wal:
        with _Traced() as traced:
            assert wal.compact(wal.base_lsn + 1) == 1
        assert len(wal) == RECORDS - 1
        assert wal.records()[0][1]["n"] == 1
    assert traced.peak <= size + size // 5
