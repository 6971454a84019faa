"""Launch shim: run the stock ``repro serve`` daemon, optionally traced.

Usage (from the checkout root)::

    python bench/daemon.py --root DIR [--trace-out FILE]

Untraced, this is exactly ``repro serve --port 0 --root DIR`` with CLI
defaults and installs nothing.  With ``--trace-out`` it first wraps the
public functions listed in :data:`TRACED` from outside with
``perf_counter_ns`` spans (name, start, end, parent, request id), records
garbage-collector pauses through ``gc.callbacks`` and runs a 10 ms
event-loop lag probe; everything is kept in memory and written to FILE as
JSON when the daemon shuts down.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import importlib
import json
import sys
import time
from array import array
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

#: (module, attribute path, span name); spans take their names from the
#: layer that owns the function
TRACED = [
    ("repro.serve.server", "decode_frame", "serve.protocol.decode_frame"),
    ("repro.serve.server", "encode_frame", "serve.protocol.encode_frame"),
    ("repro.serve.admission", "AdmissionController.admit",
     "serve.admission.admit"),
    ("repro.serve.plane", "ServePolicyPlane.mediate", "serve.plane.mediate"),
    ("repro.serve.plane", "ServePolicyPlane.add_credential",
     "serve.plane.add_credential"),
    ("repro.serve.plane", "ServePolicyPlane.revoke_credential",
     "serve.plane.revoke_credential"),
    ("repro.serve.plane", "ServePolicyPlane.keycom_update",
     "serve.plane.keycom_update"),
    ("repro.webcom.stack", "AuthorisationStack.mediate",
     "webcom.stack.mediate"),
    ("repro.keynote.api", "KeyNoteSession.query", "keynote.api.query"),
    ("repro.keynote.api", "KeyNoteSession.decision_fingerprint",
     "keynote.api.decision_fingerprint"),
    ("repro.keynote.api", "KeyNoteSession.revoke_credential",
     "keynote.api.revoke_credential"),
    ("repro.keynote.compliance", "ComplianceChecker.__init__",
     "keynote.compliance.__init__"),
    ("repro.keynote.compliance", "ComplianceChecker.query",
     "keynote.compliance.query"),
    ("repro.keynote.compliance", "ComplianceChecker.add_assertion",
     "keynote.compliance.add_assertion"),
    ("repro.keynote.compliance", "ComplianceChecker.revoke_assertion",
     "keynote.compliance.revoke_assertion"),
    ("repro.crypto.keystore", "SignatureVerificationCache.verify",
     "crypto.sigverify"),
    ("repro.crypto.keys", "PublicKey.decode", "crypto.pubkey_decode"),
    ("repro.store.durable", "DurableStore.append", "store.wal.append"),
    ("repro.store.durable", "DurablePolicyNode.recover",
     "store.durable.recover"),
    ("repro.webcom.keycom", "KeyComService.submit", "webcom.keycom.submit"),
    ("repro.util.events", "AuditLog.record", "util.events.audit_record"),
]

LAG_PERIOD_S = 0.010


class Tracer:
    """In-memory span recorder.  Span ``i`` is ``(names[i], starts[i],
    ends[i], parents[i], requests[i])``; the parent is the index of the span
    open when it began (mediation is synchronous, so the open spans form a
    stack).  Columns are flat arrays so the garbage collector never scans
    them: a list per span would lengthen every collection the trace sees."""

    def __init__(self) -> None:
        self.names: list[str] = []          # span name table
        self.name_ids = array("H")
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")
        self.requests: list[str | None] = []
        self.stack: list[int] = []
        self.request: str | None = None
        self.gc_pauses: list[tuple[int, int]] = []
        self.lag: list[tuple[int, int]] = []
        self.sig_misses: list[int] = []  # end time of each cache miss
        self._gc_start = 0
        self._lag_task: asyncio.Task | None = None

    def wrap(self, name: str, function):
        name_id = len(self.names)
        self.names.append(name)
        name_ids, starts, ends = self.name_ids, self.starts, self.ends
        parents, requests, stack = self.parents, self.requests, self.stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1] if stack else -1)
            requests.append(self.request)
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                return function(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        traced.__wrapped__ = function
        return traced

    def install(self) -> None:
        for module_name, path, name in TRACED:
            module = importlib.import_module(module_name)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            raw = (owner.__dict__[attr] if owner_name
                   else getattr(module, attr))
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(self.wrap(name,
                                                           raw.__func__)))
            else:
                setattr(owner, attr, self.wrap(name, raw))
        self._mark_requests()
        self._count_sig_misses()
        gc.callbacks.append(self._on_gc)
        self._start_lag_probe()

    def _mark_requests(self) -> None:
        """Tag spans with the wire id of the request being handled: a
        frame's decode, admission, dispatch and encode run without yielding
        to the loop, so the last decoded id owns every span until the
        next decode."""
        import repro.serve.server as server
        decode = server.decode_frame

        def decode_and_mark(line):
            message = decode(line)
            self.request = message.get("id")
            self.requests[-1] = self.request
            return message

        server.decode_frame = decode_and_mark

    def _count_sig_misses(self) -> None:
        from repro.crypto.keystore import SignatureVerificationCache
        verify = SignatureVerificationCache.verify

        def verify_and_count(cache, *args):
            before = cache.misses
            try:
                return verify(cache, *args)
            finally:
                if cache.misses != before:
                    self.sig_misses.append(time.perf_counter_ns())

        SignatureVerificationCache.verify = verify_and_count

    def _on_gc(self, phase: str, _info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter_ns()
        else:
            self.gc_pauses.append((self._gc_start, time.perf_counter_ns()))

    def _start_lag_probe(self) -> None:
        from repro.serve.server import ReproServer
        start = ReproServer.start

        async def start_with_probe(server):
            result = await start(server)
            self._lag_task = asyncio.create_task(self._probe_lag())
            return result

        ReproServer.start = start_with_probe

    async def _probe_lag(self) -> None:
        period = int(LAG_PERIOD_S * 1e9)
        while True:
            before = time.perf_counter_ns()
            await asyncio.sleep(LAG_PERIOD_S)
            after = time.perf_counter_ns()
            self.lag.append((after, max(0, after - before - period)))

    def span_cost_ns(self, calls: int = 20000) -> float:
        """Calibrated cost one span adds to a call, in ns."""
        def plain(x):
            return x
        traced = Tracer().wrap("calibration", plain)
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter_ns()
            for i in range(calls):
                plain(i)
            t1 = time.perf_counter_ns()
            for i in range(calls):
                traced(i)
            t2 = time.perf_counter_ns()
            best = min(best, ((t2 - t1) - (t1 - t0)) / calls)
        return best

    def dump(self, path: str, span_cost_ns: float) -> None:
        from repro.crypto.keystore import SIGNATURE_CACHE
        spans = [[self.names[n], start, end, parent, request]
                 for n, start, end, parent, request in zip(
                     self.name_ids, self.starts, self.ends, self.parents,
                     self.requests)]
        Path(path).write_text(json.dumps({
            "spans": spans, "gc": self.gc_pauses, "lag": self.lag,
            "sig_misses": self.sig_misses,
            "sig_cache": SIGNATURE_CACHE.stats(),
            "span_cost_ns": span_cost_ns}))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)
    from repro.cli import main as repro_main
    tracer = None
    if args.trace_out:
        tracer = Tracer()
        cost = tracer.span_cost_ns()
        tracer.install()
    code = repro_main(["serve", "--port", "0", "--root", args.root])
    if tracer is not None:
        tracer.dump(args.trace_out, cost)
    return code


if __name__ == "__main__":
    sys.exit(main())
