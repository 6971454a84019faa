"""Durable, crash-recoverable storage for the policy plane (PR 6).

- :mod:`repro.store.wal` — checksummed, length-prefixed append-only log;
- :mod:`repro.store.snapshot` — periodic snapshots with atomic rename;
- :mod:`repro.store.recovery` — snapshot + tail-replay recovery path;
- :mod:`repro.store.durable` — the :class:`DurableStore` facade, component
  restore functions and the :class:`DurablePolicyNode` composition;
- :mod:`repro.store.harness` — the seeded kill-at-every-write-site sweep
  behind ``repro durability``.
"""

from repro._lazy import lazy_facade

#: public name -> the submodule defining it, imported on first read
_EXPORTS = {
    "DurablePolicyNode": "durable",
    "DurableStore": "durable",
    "RecoveredState": "recovery",
    "RecoveryInfo": "recovery",
    "recover": "recovery",
    "LoadedSnapshot": "snapshot",
    "SnapshotStore": "snapshot",
    "ScanResult": "wal",
    "WriteAheadLog": "wal",
    "scan_records": "wal",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_facade(__name__, _EXPORTS)
