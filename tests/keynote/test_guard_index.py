"""Guard-indexed delegation in the compliance checker.

Each principal's admitted assertions are indexed by their program's
equality guard (``attribute == "literal"`` shared by every top-level
clause), and the fixpoint reads only the entries whose literal matches the
request.  The differential test holds the index to two references over
universes rich in the cases the guard rule must get right: the unindexed
scan (``eager_reference.py``, same checker without guards) and the
Kleene-iteration oracle.  The counting tests pin the point of the change:
a decision reads one credential per signer however many siblings it has,
and a revoke touches one entry however many are held.
"""

import sys
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.crypto import Keystore
from repro.crypto.keys import KeyPair
from repro.errors import KeyNoteEvalError
from repro.keynote.api import KeyNoteSession
from repro.keynote.compliance import ComplianceChecker
from repro.keynote.credential import Credential
from repro.keynote.eval import CompiledConditions, compile_conditions
from repro.keynote.parser import parse_conditions
from repro.keynote.values import ComplianceValueSet
from repro.oracle.keynote_oracle import oracle_compliance_value

from tests.keynote.eager_reference import EagerReferenceChecker


def guard_of(text: str):
    return compile_conditions(parse_conditions(text)).guard


class TestGuardRule:
    @pytest.mark.parametrize("text, guard", [
        ('subject=="u1"', ("subject", "u1")),
        ('"u1"==subject', ("subject", "u1")),
        ('op=="run" && subject=="u1"', ("op", "run")),
        ('x=="1" && subject=="u1"', ("subject", "u1")),
        ('subject==""', ("subject", "")),
        ('subject=="u1" -> "true"; subject=="u1" && x=="2"',
         ("subject", "u1")),
        ('subject=="u1" -> { x=="1" -> "true" }', ("subject", "u1")),
        ('subject=="u1" && $ptr=="a"', ("subject", "u1")),
        ('subject=="u1" && x ~= "^j"', ("subject", "u1")),
    ])
    def test_exact_guards(self, text, guard):
        assert guard_of(text) == guard

    @pytest.mark.parametrize("text", [
        # numeric-looking literals compare numerically: "01" == "1"
        'subject=="1"', 'subject=="01"', 'subject=="1.0"', 'subject=="1e0"',
        'subject=="inf"', 'subject=="nan"', 'subject=="1_0"',
        'subject==1',
        # not a conjunct of every top-level clause
        'subject=="u1" || x=="a"', '!(subject=="u1")',
        'subject=="u1"; x=="a"', 'subject=="u1" -> "true"; true',
        'subject!="u1"', 'true', '$ptr=="u1"',
        # a skipped entry must not swallow a query-time regex error
        'subject=="u1" && x ~= y', 'subject=="u1" && x ~= "("',
        'subject=="u1" -> { x ~= y }',
    ])
    def test_no_guard(self, text):
        assert guard_of(text) is None


# -- the differential test ---------------------------------------------------

KEYS = ["Ka", "Kb", "Kc", "Kd"]
VALUES = ComplianceValueSet.of(["reject", "log", "approve"])
LITERALS = ["1", "01", "1.0", "1e0", "inf", "u1", "U1", ""]
TEMPLATES = (
    'subject=="{a}"',
    '"{a}"==subject',
    'subject=="{a}" && x=="{b}"',
    'x=="{b}" && subject=="{a}" -> "log"',
    'subject=="{a}" -> "log"; subject=="{a}" && x=="{b}"',
    'subject=="{a}"; x=="{b}" -> "log"',
    'subject=="{a}" || x=="{b}"',
    '!(subject=="{a}")',
    'subject=="{a}" -> {{ x=="{b}" -> "approve"; true -> "log" }}',
    '$ptr=="{a}"',
    'subject=="{a}" && $ptr=="{b}"',
    'subject=="{a}" && x ~= y',
    'x ~= y && subject=="{a}"',
    'x ~= y -> "log"',
    'subject=="{a}" && x ~= "^u"',
    'subject==1',
    'nothing=="{a}"',
    'true -> "log"',
)

conditions = st.builds(lambda template, a, b: template.format(a=a, b=b),
                       st.sampled_from(TEMPLATES), st.sampled_from(LITERALS),
                       st.sampled_from(LITERALS))
licensees = st.one_of(
    st.sampled_from(KEYS).map(lambda k: f'"{k}"'),
    st.tuples(st.sampled_from(KEYS), st.sampled_from(KEYS)).map(
        lambda ab: f'"{ab[0]}" || "{ab[1]}"'),
    st.tuples(st.sampled_from(KEYS), st.sampled_from(KEYS)).map(
        lambda ab: f'"{ab[0]}" && "{ab[1]}"'))
credentials = st.builds(Credential.build, st.sampled_from(KEYS), licensees,
                        conditions)
policies = st.builds(Credential.build, st.just("POLICY"), licensees,
                     conditions)
attribute_sets = st.fixed_dictionaries({}, optional={
    "subject": st.sampled_from(LITERALS + ["u2"]),
    "x": st.sampled_from(LITERALS),
    "y": st.sampled_from(["^u", "(", "1"]),
    "ptr": st.sampled_from(["subject", "x", "nope"]),
})
requesters = st.lists(st.sampled_from(KEYS), min_size=1, max_size=2,
                      unique=True)
steps = st.one_of(
    st.tuples(st.just("query"), attribute_sets, requesters,
              st.lists(credentials, max_size=2)),
    st.tuples(st.just("add"), credentials),
    st.tuples(st.just("revoke"), st.integers(0, 40)),
    st.tuples(st.just("revoke_absent"), credentials))


def outcome(run):
    try:
        return ("value", run())
    except KeyNoteEvalError:
        return ("error", "KeyNoteEvalError")


class TestDifferential:
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(universe=st.tuples(st.lists(policies, min_size=1, max_size=2),
                              st.lists(credentials, max_size=10)),
           script=st.lists(steps, min_size=1, max_size=14))
    def test_indexed_equals_unindexed_equals_oracle(self, universe, script):
        assertions = universe[0] + universe[1]
        indexed = ComplianceChecker(assertions, verify_signatures=False)
        unindexed = EagerReferenceChecker(assertions,
                                          verify_signatures=False)
        for step in script:
            kind = step[0]
            if kind == "add":
                assert indexed.add_assertion(step[1]) == \
                    unindexed.add_assertion(step[1])
            elif kind in ("revoke", "revoke_absent"):
                held = indexed.assertions
                if kind == "revoke" and not held:
                    continue
                victim = (held[step[1] % len(held)] if kind == "revoke"
                          else step[1])
                assert indexed.revoke_assertion(victim) == \
                    unindexed.revoke_assertion(victim)
            else:
                _, attributes, authorizers, extra = step
                for _ in range(2):  # cold, then (when cacheable) a hit
                    got = outcome(lambda: indexed.query(
                        attributes, authorizers, VALUES, extra))
                    want = outcome(lambda: unindexed.query(
                        attributes, authorizers, VALUES, extra))
                    assert got == want
                if got[0] == "value":
                    # The oracle evaluates every assertion, reachable or
                    # not, so it may raise where the fixpoint does not.
                    oracle = outcome(lambda: oracle_compliance_value(
                        indexed.assertions + list(extra), attributes,
                        authorizers, VALUES))
                    if oracle[0] == "value":
                        assert got == oracle
            assert sorted(map(repr, indexed.assertions)) == \
                sorted(map(repr, unindexed.assertions))


class TestReferenceIsolation:
    """The reference's unguarded compiles are its own: a program and its
    closures are shared by every checker in the process."""

    def test_the_reference_leaves_the_shared_programs_guarded(self):
        assertions = team_universe(100)
        guards = [compile_conditions(a.conditions).guard for a in assertions]
        assert all(guards)
        before = ComplianceChecker(assertions, verify_signatures=False)
        EagerReferenceChecker(assertions, verify_signatures=False)
        assert [compile_conditions(a.conditions).guard
                for a in assertions] == guards
        after = ComplianceChecker(assertions, verify_signatures=False)
        for checker in (before, after):
            assert checker.query({"app": "grid", "subject": "u7"},
                                 ["Kuser7"]) == "true"
            assert checker.last_query_stats.assertions_visited == 2
            victim = assertions[9]  # Kteam -> Kuser8, guarded by u8
            assert checker.revoke_assertion(victim)
            assert checker.query({"app": "grid", "subject": "u8"},
                                 ["Kuser8"]) == "false"
            assert checker.revoke_assertion(victim) is False


class TestReadOrder:
    """The index reads the unindexed scan minus the skipped entries, so a
    max-value break and a query-time error fall exactly where they would
    without it."""

    def checker(self, *conditions: str) -> ComplianceChecker:
        return ComplianceChecker(
            [Credential.build("POLICY", '"Ka"', "true")]
            + [Credential.build("Ka", '"Kb"', text) for text in conditions],
            verify_signatures=False)

    def test_a_guarded_grant_admitted_first_ends_the_scan(self):
        checker = self.checker('subject=="u1"', 'x ~= y')
        assert checker.query({"subject": "u1", "y": "("}, ["Kb"]) == "true"

    def test_an_unguarded_error_admitted_first_still_raises(self):
        checker = self.checker('x ~= y', 'subject=="u1"')
        with pytest.raises(KeyNoteEvalError):
            checker.query({"subject": "u1", "y": "("}, ["Kb"])

    def test_a_regex_read_before_the_guard_keeps_its_error(self):
        checker = self.checker('x ~= y && subject=="u1"')
        with pytest.raises(KeyNoteEvalError):
            checker.query({"subject": "u2", "y": "("}, ["Kb"])


# -- counting tests ----------------------------------------------------------

def team_universe(siblings: int) -> list[Credential]:
    """POLICY -> Kteam, which signs one ``subject`` credential per member."""
    return [Credential.build("POLICY", '"Kteam"', 'app=="grid"')] + [
        Credential.build("Kteam", f'"Kuser{i}"', f'subject=="u{i}"')
        for i in range(siblings)]


class TestReadsStayFlat:
    def cold_visits(self, siblings: int) -> int:
        checker = ComplianceChecker(team_universe(siblings),
                                    verify_signatures=False)
        assert checker.query({"app": "grid", "subject": "u7"},
                             ["Kuser7"]) == "true"
        assert checker.query({"app": "grid", "subject": "u7"},
                             ["Kuser8"]) == "false"
        return checker.last_query_stats.assertions_visited

    def test_one_read_per_signer_whatever_the_fan_out(self):
        assert self.cold_visits(100) == self.cold_visits(1000) == 2

    def test_a_revoke_touches_one_entry_whatever_the_store_size(
            self, monkeypatch):
        def revoke_work(held: int) -> tuple[int, int]:
            session = KeyNoteSession(verify_signatures=False)
            session.add_policy(team_universe(0)[0])
            for credential in team_universe(held)[1:]:
                session.add_credential(credential)
            assert session.query({"app": "grid", "subject": "u7"},
                                 ["Kuser7"]).authorized
            # A revoke arrives re-parsed: equal, not the same object.
            victim = Credential.from_text(
                Credential.build("Kteam", '"Kuser8"', 'subject=="u8"')
                .to_text())
            calls = {"eq": 0, "reads": 0}
            real_eq = Credential.__eq__
            real_reads = CompiledConditions.referenced_attributes

            def eq(self, other):
                calls["eq"] += 1
                return real_eq(self, other)

            def reads(self):
                calls["reads"] += 1
                return real_reads(self)

            with monkeypatch.context() as patch:
                patch.setattr(Credential, "__eq__", eq)
                patch.setattr(CompiledConditions, "referenced_attributes",
                              reads)
                assert session.revoke_credential(victim)
            assert not session.query({"app": "grid", "subject": "u8"},
                                     ["Kuser8"]).authorized
            return calls["eq"], calls["reads"]

        assert revoke_work(100) == revoke_work(1000)


# -- store semantics ---------------------------------------------------------

class TestMultiset:
    def test_a_credential_added_twice_needs_two_revokes(self):
        credential = Credential.build("Ka", '"Kb"', 'x=="go"')
        session = KeyNoteSession(verify_signatures=False)
        session.add_policy(Credential.build("POLICY", '"Ka"', "true"))
        session.add_credential(credential)
        session.add_credential(credential)
        assert session.credentials == [credential, credential]
        assert session.query({"x": "go"}, ["Kb"]).authorized
        assert session.revoke_credential(credential)
        assert session.credentials == [credential]
        assert session.checker.assertions.count(credential) == 1
        assert session.query({"x": "go"}, ["Kb"]).authorized
        assert session.revoke_credential(credential)
        assert not session.query({"x": "go"}, ["Kb"]).authorized
        assert not session.revoke_credential(credential)
        assert session.checker.assertions.count(credential) == 0

    def test_checker_copies_count_and_share_one_verdict(self):
        policy = Credential.build("POLICY", '"Ka"', "true")
        credential = Credential.build("Ka", '"Kb"', 'x=="go"')
        checker = ComplianceChecker([policy, credential, credential],
                                    verify_signatures=False)
        assert checker.assertions == [policy, credential, credential]
        assert checker.query({"x": "go"}, ["Kb"]) == "true"
        generation = checker.generation
        assert checker.revoke_assertion(credential)
        # A copy remains, so the warm decision stays cached.
        assert checker.generation == generation + 1
        assert checker.query({"x": "go"}, ["Kb"]) == "true"
        assert checker.cache_hits == 1
        assert checker.revoke_assertion(credential)
        assert checker.query({"x": "go"}, ["Kb"]) == "false"

    def test_a_deferred_discard_retracts_its_attributes(self):
        keystore = Keystore()
        good, other = KeyPair.generate("guard-a"), KeyPair.generate("guard-b")
        keystore.add("Ka", good)
        forged = Credential.build("Ka", '"Kb"', 'zz=="on"').sign(
            other.private)
        honest = Credential.build("Ka", '"Kb"', 'x=="go"').sign(good.private)
        policy = Credential.build("POLICY", '"Ka"', "true")
        checker = ComplianceChecker([policy, forged, honest],
                                    keystore=keystore)
        assert checker.query({"x": "go"}, ["Kb"]) == "true"  # one entry
        assert checker.verify_pending() == 0
        assert checker.discarded == [forged]
        assert checker.full_flushes == 1
        # `zz` no longer fragments the decision cache.
        assert checker.query({"x": "go", "zz": "on"}, ["Kb"]) == "true"
        assert checker.query({"x": "go", "zz": "off"}, ["Kb"]) == "true"
        assert checker.cache_hits == 1


class TestRevokeMidFixpoint:
    def test_a_revoke_during_evaluation_skips_no_sibling(self, monkeypatch):
        """A revoke that lands while the fixpoint iterates the revoked
        entry's list must not shift the sibling the iterator reads next:
        the set before the revoke and the set after both allow."""
        policy = Credential.build("POLICY", '"Ka"', "true")
        c1 = Credential.build("Ka", '"Kb"', 'x=="2"')
        c2 = Credential.build("Ka", '"Kb"', 'x=="1"')
        checker = ComplianceChecker([policy, c1, c2],
                                    verify_signatures=False)
        real_rank = CompiledConditions.rank
        fired = []

        def rank(self, attributes, values, binding=()):
            if self is c1.shape.compiled and not fired:
                fired.append(True)
                # The mutation lock is re-entrant: this runs inline.
                assert checker.revoke_assertion(c1)
            return real_rank(self, attributes, values, binding)

        monkeypatch.setattr(CompiledConditions, "rank", rank)
        assert checker.query({"x": "1"}, ["Kb"]) == "true"
        assert fired
        assert checker.query({"x": "1"}, ["Kb"]) == "true"

    def test_concurrent_churn_never_denies(self):
        """Readers run cold fixpoints over one signer's list while one
        writer renews the granting credential make-before-break and
        another revokes and re-adds its siblings.  Some grant is in every
        set a reader could see, so every answer must allow."""
        policy = Credential.build("POLICY", '"Ka"', "true")
        siblings = [Credential.build("Ka", '"Kb"', f'x=="{i + 2}"')
                    for i in range(6)]

        def grant(serial: int) -> Credential:
            return Credential.build("Ka", '"Kb"', 'x=="1" && n!="-"',
                                    comment=f"grant {serial}")

        checker = ComplianceChecker([policy, *siblings[:3], grant(0),
                                     *siblings[3:]], verify_signatures=False)
        stop = threading.Event()
        denials: list[str] = []

        def reader(index: int) -> None:
            count = 0
            while not stop.is_set():
                count += 1
                # A fresh `n` keys a fresh decision: every query is cold.
                value = checker.query({"x": "1", "n": f"{index}-{count}"},
                                      ["Kb"])
                if value != "true":
                    denials.append(value)

        def renew_grant() -> None:
            serial = 0
            while not stop.is_set():
                checker.add_assertion(grant(serial + 1))
                checker.revoke_assertion(grant(serial))
                serial += 1

        def churn_siblings() -> None:
            while not stop.is_set():
                for credential in siblings:
                    checker.revoke_assertion(credential)
                    checker.add_assertion(credential)

        threads = [threading.Thread(target=reader, args=(i,))
                   for i in range(4)]
        threads += [threading.Thread(target=renew_grant),
                    threading.Thread(target=churn_siblings)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            time.sleep(1.0)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=10)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert denials == []
