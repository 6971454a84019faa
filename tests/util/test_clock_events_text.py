"""Tests for the simulated clock, audit log and text helpers."""

import sys
import threading

import pytest

from repro.util.clock import SimulatedClock
from repro.util.events import AuditLog
from repro.util.text import format_table, indent_block, quote, unquote


class TestSimulatedClock:
    def test_starts_at_zero(self):
        assert SimulatedClock().now() == 0.0

    def test_custom_start(self):
        assert SimulatedClock(10.0).now() == 10.0

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            SimulatedClock(-1.0)

    def test_advance(self):
        clock = SimulatedClock()
        assert clock.advance(2.5) == 2.5
        assert clock.now() == 2.5

    def test_advance_backwards_rejected(self):
        with pytest.raises(ValueError):
            SimulatedClock().advance(-0.1)

    def test_advance_to(self):
        clock = SimulatedClock()
        clock.advance_to(7.0)
        assert clock.now() == 7.0
        clock.advance_to(3.0)  # no-op: already past
        assert clock.now() == 7.0


class TestAuditLog:
    def test_record_and_len(self):
        log = AuditLog()
        log.record(0.0, "keynote.query", "Kbob", "allow")
        assert len(log) == 1

    def test_find_filters(self):
        log = AuditLog()
        log.record(0.0, "keynote.query", "Kbob", "allow")
        log.record(1.0, "keynote.query", "Kalice", "deny")
        log.record(2.0, "keycom.update", "Kalice", "allow")
        assert len(log.find(category="keynote.query")) == 2
        assert len(log.find(subject="Kalice")) == 2
        assert len(log.find(outcome="deny")) == 1
        assert len(log.find(category="keynote.query", outcome="allow")) == 1

    def test_last(self):
        log = AuditLog()
        assert log.last() is None
        log.record(0.0, "a", "x", "allow")
        log.record(1.0, "b", "y", "deny")
        assert log.last().category == "b"
        assert log.last(category="a").subject == "x"

    def test_listener_notified(self):
        log = AuditLog()
        seen = []
        log.subscribe(seen.append)
        log.record(0.0, "a", "x", "allow")
        assert len(seen) == 1
        assert seen[0].outcome == "allow"

    def test_clear_keeps_listeners(self):
        log = AuditLog()
        seen = []
        log.subscribe(seen.append)
        log.record(0.0, "a", "x", "allow")
        log.clear()
        assert len(log) == 0
        log.record(1.0, "b", "y", "deny")
        assert len(seen) == 2

    def test_detail_payload(self):
        log = AuditLog()
        rec = log.record(0.0, "a", "x", "allow", layer="L2", op="read")
        assert rec.detail["layer"] == "L2"

    def test_records_are_immutable(self):
        rec = AuditLog().record(0.0, "a", "x", "allow", layer="L2")
        with pytest.raises(AttributeError):
            rec.outcome = "deny"
        assert rec.detail == {"layer": "L2"}

    def test_unbounded_by_default(self):
        log = AuditLog()
        for n in range(3000):
            log.record(float(n), "a", "x", "allow")
        assert len(log) == log.recorded == 3000

    def test_capacity_keeps_the_newest_window(self):
        log = AuditLog(capacity=4)
        seen = []
        log.subscribe(seen.append)
        for n in range(10):
            log.record(float(n), "a", f"s{n}", "allow")
        # Every record is written and seen; only the window is bounded.
        assert len(seen) == log.recorded == 10
        assert len(log) == 4
        assert [r.subject for r in log] == ["s6", "s7", "s8", "s9"]
        assert log.last().subject == "s9"
        assert [r.subject for r in log.find(category="a")] == \
            ["s6", "s7", "s8", "s9"]
        assert [d["subject"] for d in log.to_dicts()] == \
            ["s6", "s7", "s8", "s9"]

    def test_clear_keeps_the_recorded_total(self):
        log = AuditLog(capacity=2)
        for n in range(3):
            log.record(float(n), "a", "x", "allow")
        log.clear()
        assert len(log) == 0
        assert log.recorded == 3

    def test_concurrent_writers_and_readers(self):
        log = AuditLog(capacity=64)
        writes = 3000
        errors = []

        def writer():
            for n in range(writes):
                log.record(float(n), "a", "x", "allow")

        def reader():
            try:
                for _ in range(300):
                    list(log)
                    log.find(category="a")
                    log.last(category="b")
                    log.to_dicts()
            except RuntimeError as exc:  # deque mutated during iteration
                errors.append(exc)

        threads = [threading.Thread(target=writer) for _ in range(4)]
        threads += [threading.Thread(target=reader) for _ in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        # No lost update: every write counted, and the window is full.
        assert log.recorded == 4 * writes
        assert len(log) == 64


class TestQuoting:
    def test_round_trip_simple(self):
        assert unquote(quote("hello")) == "hello"

    def test_round_trip_with_quotes_and_backslashes(self):
        for s in ['say "hi"', "back\\slash", 'both "\\" mixed', ""]:
            assert unquote(quote(s)) == s

    def test_unquote_rejects_unquoted(self):
        with pytest.raises(ValueError):
            unquote("bare")

    def test_unquote_rejects_dangling_escape(self):
        with pytest.raises(ValueError):
            unquote('"abc\\')

    def test_unquote_rejects_embedded_quote(self):
        with pytest.raises(ValueError):
            unquote('"a"b"')


class TestFormatTable:
    def test_basic_table(self):
        out = format_table(["Domain", "Role"], [("Finance", "Clerk")])
        lines = out.splitlines()
        assert lines[0].startswith("Domain")
        assert "Finance" in lines[2]

    def test_row_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            format_table(["A", "B"], [("only-one",)])

    def test_empty_rows(self):
        out = format_table(["A"], [])
        assert out.splitlines()[0] == "A"


class TestIndentBlock:
    def test_indents_nonempty_lines(self):
        assert indent_block("a\n\nb", "  ") == "  a\n\n  b"
