"""Deferred signature checks in the compliance checker.

A non-strict ``ComplianceChecker`` resolves each signed credential's key
when it admits it and runs the check itself the first time the fixpoint
reads the assertion past its conditions (or when ``verify_pending`` reaches
it).  The differential test below pins that to two references over random
universes with tampered credentials: the frozen eager build
(``eager_reference.py``) and the Kleene-iteration oracle over the set the
eager build admits.  The counting tests pin the point of the change: the
build does no signature work, and a decision pays only for the
credentials it reads.
"""

from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.crypto import Keystore
from repro.crypto.keys import KeyPair, PublicKey, _decode_public
from repro.crypto.keystore import SIGNATURE_CACHE
from repro.errors import CredentialError
from repro.keynote.api import KeyNoteSession
from repro.keynote.compliance import ComplianceChecker
from repro.keynote.credential import Credential
from repro.oracle.keynote_oracle import oracle_compliance_value

from tests.keynote.eager_reference import EagerReferenceChecker

KEYS = [f"K{i}" for i in range(5)]
PAIRS = {name: KeyPair.generate(f"lazy-sig-{name}") for name in KEYS}
#: a key no keystore knows when the checkers are built
GHOST = KeyPair.generate("lazy-sig-ghost")
#: an encoded "key" that is not a group element: its decode fails
BAD_KEY = "kn-schnorr-hex:2"
TAMPERS = ("none", "none", "none", "forged", "unsigned", "unknown",
           "bad_key")
CONDITIONS = ('true', 'x=="1"', 'y=="a"', 'x=="1" && y=="b"', 'x!="1"')


def make_keystore() -> Keystore:
    keystore = Keystore()
    for name, pair in PAIRS.items():
        keystore.add(name, pair)
    return keystore


def quoted(principal: str) -> str:
    return f'"{principal}"'


#: how a licensee may name a principal: symbolic, encoded, or a key the
#: keystore does not know
principals = st.one_of(
    st.sampled_from(KEYS),
    st.sampled_from([PAIRS[name].public.encode() for name in KEYS]),
    st.sampled_from(["Kghost", GHOST.public.encode(), BAD_KEY]))

licensees = st.one_of(
    principals.map(quoted),
    st.tuples(principals, principals).map(
        lambda ab: f"{quoted(ab[0])} && {quoted(ab[1])}"),
    st.tuples(principals, principals).map(
        lambda ab: f"{quoted(ab[0])} || {quoted(ab[1])}"),
    st.tuples(principals, principals, principals).map(
        lambda abc: "2-of(" + ", ".join(map(quoted, abc)) + ")"))


@st.composite
def credentials(draw) -> Credential:
    """One signed credential, possibly tampered with."""
    name = draw(st.sampled_from(KEYS))
    encoded = draw(st.booleans())
    tamper = draw(st.sampled_from(TAMPERS))
    authorizer = PAIRS[name].public.encode() if encoded else name
    signer = PAIRS[name]
    if tamper == "forged":
        signer = PAIRS[draw(st.sampled_from([k for k in KEYS if k != name]))]
    elif tamper == "unknown":
        authorizer, signer = "Kghost", GHOST
    elif tamper == "bad_key":
        authorizer = BAD_KEY
    credential = Credential.build(authorizer, draw(licensees),
                                  draw(st.sampled_from(CONDITIONS)))
    return credential if tamper == "unsigned" else credential.sign(
        signer.private)


@st.composite
def universes(draw) -> list[Credential]:
    policies = draw(st.lists(
        st.tuples(licensees, st.sampled_from(CONDITIONS)).map(
            lambda lc: Credential.build("POLICY", *lc)),
        min_size=1, max_size=2))
    return policies + draw(st.lists(credentials(), min_size=1, max_size=10))


queries = st.tuples(
    st.fixed_dictionaries({"x": st.sampled_from(["0", "1"]),
                           "y": st.sampled_from(["a", "b"])}),
    st.lists(st.sampled_from([*KEYS, "Kghost"]), min_size=1, max_size=2,
             unique=True))


class TestDifferential:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(universe=universes(), requests=st.lists(queries, min_size=1,
                                                   max_size=8),
           register=st.booleans())
    def test_lazy_equals_eager_equals_oracle(self, universe, requests,
                                             register):
        keystore = make_keystore()
        lazy = ComplianceChecker(list(universe), keystore=keystore)
        eager = EagerReferenceChecker(list(universe), keystore=keystore)
        if eager.discarded:
            with pytest.raises(CredentialError):
                ComplianceChecker(list(universe), keystore=keystore,
                                  strict=True)
        if register:
            # A key registered after the build must not rescue a credential
            # the build could not resolve.
            keystore.add("Kghost", GHOST)
        admitted = [a for a in universe if a not in eager.discarded]
        expected = [oracle_compliance_value(admitted, attributes, requesters,
                                            keystore=keystore)
                    for attributes, requesters in requests]
        for (attributes, requesters), value in zip(requests, expected):
            assert eager.query(attributes, requesters) == value
            assert lazy.query(attributes, requesters) == value
        assert lazy.verify_pending() == 0
        assert Counter(lazy.discarded) == Counter(eager.discarded)
        lazy.clear_decision_cache()
        for (attributes, requesters), value in zip(requests, expected):
            assert lazy.query(attributes, requesters) == value


def forged(credential: Credential, by: str) -> Credential:
    return credential.sign(PAIRS[by].private)


def signed(authorizer: str, licensee: str,
           conditions: str = "true") -> Credential:
    return Credential.build(authorizer, quoted(licensee), conditions).sign(
        PAIRS[authorizer].private)


class TestProgress:
    def universe(self):
        return [
            Credential.build("POLICY", '"K0"', "true"),
            signed("K0", "K1"),
            signed("K1", "K2", 'x=="1"'),
            forged(Credential.build("K0", '"K3"', "true"), by="K4"),
            Credential.build("K1", '"K4"', "true"),          # unsigned
            Credential.build("Kghost", '"K4"', "true").sign(GHOST.private),
        ]

    def test_counts_before_and_after_a_full_backfill(self):
        checker = ComplianceChecker(self.universe(), keystore=make_keystore())
        info = checker.cache_info()
        # Unsigned and unknown-key credentials fail at admission; the two
        # good ones and the forged one wait for their checks.
        assert (info["unverified"], info["discarded"]) == (3, 2)
        assert checker.verify_pending(limit=1) == 2
        assert checker.verify_pending() == 0
        info = checker.cache_info()
        assert (info["unverified"], info["discarded"]) == (0, 3)
        assert len(checker.discarded) == 3

    def test_a_read_settles_only_what_it_needs(self):
        checker = ComplianceChecker(self.universe(), keystore=make_keystore())
        # x=="0" prunes K1's credential at its conditions: only K0 -> K1
        # and the forged K0 -> K3 are checked.
        assert checker.query({"x": "0"}, ["K2"]) == "false"
        info = checker.cache_info()
        assert (info["unverified"], info["discarded"]) == (1, 3)
        assert checker.query({"x": "1"}, ["K2"]) == "true"
        assert checker.cache_info()["unverified"] == 0

    def test_forged_credential_never_grants(self):
        checker = ComplianceChecker(self.universe(), keystore=make_keystore())
        assert checker.query({}, ["K3"]) == "false"
        assert checker.revoke_assertion(self.universe()[3]) is False

    def test_backfill_finishes_whole_chains_first(self):
        # Admission order checks both first hops before either second hop;
        # delegation order completes POLICY -> K0 -> K1 -> K3 first.
        checker = ComplianceChecker([
            Credential.build("POLICY", '"K0"', "true"),
            signed("K0", "K1"), signed("K0", "K2"),
            signed("K1", "K3"), signed("K2", "K4"),
        ], keystore=make_keystore())
        assert checker.verify_pending(limit=2) == 2
        assert checker.query({}, ["K3"]) == "true"
        assert checker.cache_info()["unverified"] == 2
        assert checker.query({}, ["K4"]) == "true"
        assert checker.cache_info()["unverified"] == 0

    def test_later_admissions_do_not_reorder_the_store(self, monkeypatch):
        """The delegation order is built for the first backlog only: a
        deferred admission after it drains is settled without walking
        every assertion again (a daemon's backfill wakes per add)."""
        walks = []
        order = ComplianceChecker._delegation_order
        monkeypatch.setattr(ComplianceChecker, "_delegation_order",
                            lambda self: walks.append(1) or order(self))
        checker = ComplianceChecker(self.universe(), keystore=make_keystore())
        assert checker.verify_pending() == 0
        woken = []
        checker.on_deferred = lambda: woken.append(1)
        for licensee in ("K3", "K4"):
            checker.add_assertion(signed("K2", licensee), defer=True)
        assert woken == [1, 1]
        assert checker.verify_pending() == 0
        assert walks == [1]
        assert checker.query({"x": "1"}, ["K4"]) == "true"

    def test_revoke_drops_a_pending_entry(self):
        universe = self.universe()
        checker = ComplianceChecker(universe, keystore=make_keystore())
        assert checker.revoke_assertion(universe[2])
        assert checker.cache_info()["unverified"] == 2
        assert checker.verify_pending() == 0
        assert checker.query({"x": "1"}, ["K2"]) == "false"

    def test_add_assertion_checks_at_once(self):
        checker = ComplianceChecker(self.universe(), keystore=make_keystore())
        bad = forged(Credential.build("K2", '"K4"', "true"), by="K0")
        assert checker.add_assertion(bad) is False
        assert checker.add_assertion(signed("K2", "K4")) is True
        info = checker.cache_info()
        assert (info["unverified"], info["discarded"]) == (3, 3)

    def test_overlay_query_leaves_pending_checks_pending(self):
        session = KeyNoteSession(keystore=make_keystore())
        for assertion in self.universe():
            if assertion.is_policy:
                session.add_policy(assertion)
            else:
                session.add_credential(assertion)
        checker = session.checker
        before = checker.cache_info()
        extra = signed("K2", "K4")
        assert session.query({"x": "1"}, ["K4"],
                             extra_credentials=[extra]).authorized
        assert checker.cache_info() == before

    def test_strict_mode_still_raises_at_construction(self):
        with pytest.raises(CredentialError):
            ComplianceChecker(self.universe()[:4], keystore=make_keystore(),
                              strict=True)


def bench_shaped(orgs=4, teams=10, users=1000):
    """POLICY -> org -> team -> user -> proxy, four signed hops, with the
    conditions that prune the search to one path per request."""
    org = [KeyPair.generate(f"lazy-org-{i}") for i in range(orgs)]
    team = [KeyPair.generate(f"lazy-team-{i}") for i in range(teams)]
    user = [KeyPair.generate(f"lazy-user-{i}") for i in range(users)]
    proxy = [KeyPair.generate(f"lazy-proxy-{i}").public.encode()
             for i in range(users)]
    assertions = [Credential.build(
        "POLICY", " || ".join(quoted(o.public.encode()) for o in org),
        'app_domain=="grid"')]
    for t, pair in enumerate(team):
        assertions.append(Credential.build(
            org[t % orgs].public.encode(), quoted(pair.public.encode()),
            f'vo=="o{t % orgs}" && group=="t{t}"').sign(org[t % orgs].private))
    for u, pair in enumerate(user):
        assertions.append(Credential.build(
            team[u % teams].public.encode(), quoted(pair.public.encode()),
            f'subject=="u{u}"').sign(team[u % teams].private))
        assertions.append(Credential.build(
            pair.public.encode(), quoted(proxy[u]),
            'op=="submit" || op=="run"').sign(pair.private))
    return assertions, proxy


class TestColdStartCounts:
    def test_build_verifies_nothing_and_a_decision_pays_for_its_path(
            self, monkeypatch):
        assertions, proxy = bench_shaped()
        verified = []
        check = PublicKey.verify
        monkeypatch.setattr(PublicKey, "verify", lambda *args: (
            verified.append(args) or check(*args)))
        _decode_public.cache_clear()
        untouched = SIGNATURE_CACHE.stats()
        checker = ComplianceChecker(assertions)
        assert len(verified) == 0
        assert _decode_public.cache_info().misses == 0
        assert checker.cache_info()["unverified"] == len(assertions) - 1
        attributes = {"app_domain": "grid", "vo": "o1", "group": "t5",
                      "subject": "u15", "op": "run"}
        assert checker.query(attributes, [proxy[15]]) == "true"
        assert len(verified) <= 4
        assert checker.query({**attributes, "op": "admin"},
                             [proxy[15]]) == "false"
        assert checker.query({**attributes, "subject": "u25"},
                             [proxy[25]]) == "true"
        assert len(verified) <= 6
        assert SIGNATURE_CACHE.stats() == untouched
