"""What an admitted credential keeps resident, and the value types it is
made of.

An admitted credential is held once: no rendering of its canonical bytes
survives its verification, a key that authorizes one credential and is
licensed by another is one string object, every frozen value type of the
parsed tree is slotted, credentials without Local-Constants share one
immutable empty table, and its signature verdict lives only on the
checker's entry.  Credentials cut from one template share one Conditions
shape and keep only their literals.  The counting test weighs the
difference between an N- and a 2N-credential store cut from the
benchmark universe's templates; a store added over the wire keeps no
more per credential than the same store recovered from a snapshot (each
Conditions shape is parsed once per process, whichever path presents
it).
"""

import copy
import gc
import pickle
import statistics
import sys
import tracemalloc
import weakref
from dataclasses import FrozenInstanceError, fields
from pathlib import Path
from typing import Callable

import pytest

from repro.crypto.keys import KeyPair, _decode_public
from repro.keynote.api import KeyNoteSession
from repro.keynote.ast import (
    Attribute,
    Binary,
    Clause,
    ConditionsProgram,
    Deref,
    NumberLit,
    Slot,
    StringLit,
    Unary,
)
from repro.keynote.credential import NO_CONSTANTS, Credential
from repro.keynote.licensees import AllOf, AnyOf, Principal, Threshold
from repro.keynote.tokens import Token, TokenType
from repro.store.durable import DurablePolicyNode

#: bytes per admitted credential of :func:`bytes_per_credential` at the
#: commit before credentials were held once, by CPython minor version (the
#: 3.11 figure on 3.11.7): each kept its canonical bytes, two copies of
#: every key string, an instance ``__dict__`` per value object, its own
#: empty Local-Constants dict and attribute set, and a ~420-byte
#: signature-cache entry
HELD_BEFORE = {(3, 10): 4910, (3, 11): 4192, (3, 12): 4008, (3, 13): 4100}
#: the share of :data:`HELD_BEFORE` an admitted credential may keep now
HELD_SHARE = 0.60
#: bytes per admitted credential of :func:`bytes_per_credential` while the
#: Conditions table shared a program only between equal texts, by CPython
#: minor version (3.11.7): each ``subject=="uN"`` credential held its own
#: tree, closures and table entry
SHARED_TEXT_BEFORE = {(3, 11): 1771}
#: the share of :data:`SHARED_TEXT_BEFORE` an admitted credential may keep
#: now that credentials cut from one template share one shape
SHAPE_SHARE = 0.85
#: what a credential added over the wire may keep, as a share of what the
#: same credential keeps in a store recovered from a snapshot (the
#: difference was ~18% while each wire add parsed its own tree)
WIRE_SHARE = 1.05

TEAM = KeyPair.generate("resident-team")
POLICY = (f'Authorizer: POLICY\nLicensees: "{TEAM.public.encode()}"\n'
          f'Conditions: app_domain=="grid";\n')
PROXY_OPS = ("submit", "status", "run")


def templates(prefix: str, users: int) -> list[str]:
    """Two credentials per user, cut from the benchmark universe's
    templates: the team licenses the user for its ``subject``, the user
    licenses a proxy key for three operations.  ``prefix`` seeds the
    user and proxy keys, so two stores share none."""
    texts = []
    for user in range(users):
        pair = KeyPair.generate(f"{prefix}-user-{user}")
        proxy = KeyPair.generate(f"{prefix}-proxy-{user}").public.encode()
        texts.append(Credential.build(
            TEAM.public.encode(), f'"{pair.public.encode()}"',
            f'subject=="u{user}"').sign(TEAM.private).to_text())
        texts.append(Credential.build(
            pair.public.encode(), f'"{proxy}"',
            " || ".join(f'op=="{op}"' for op in PROXY_OPS),
            comment=f"proxy {user}").sign(pair.private).to_text())
    return texts


def admitted_store(texts: list[str]) -> KeyNoteSession:
    session = KeyNoteSession()
    session.add_policy(POLICY)
    for text in texts:
        session.add_credential(text)
    assert session.checker.verify_pending() == 0
    return session


def snapshotted(root: Path, texts: list[str]) -> Path:
    """A durable node under ``root`` whose snapshot holds the admitted
    store of ``texts`` (and whose log holds no record)."""
    node = DurablePolicyNode.recover(root)
    node.session.add_policy(POLICY)
    for text in texts:
        node.session.add_credential(text)
    node.snapshot()
    node.close()
    return root


def recovered_store(root: Path) -> DurablePolicyNode:
    node = DurablePolicyNode.recover(root)
    assert node.session.checker.verify_pending() == 0
    return node


def resident_bytes(source, store: Callable = admitted_store) -> int:
    """Traced bytes ``store(source)`` keeps, with the process-wide
    key-decode memo starting empty."""
    _decode_public.cache_clear()
    gc.collect()
    before = tracemalloc.get_traced_memory()[0]
    kept = store(source)
    gc.collect()
    held = tracemalloc.get_traced_memory()[0] - before
    del kept
    return held


def bytes_per_credential(users: int = 50, rounds: int = 3,
                         store: Callable = admitted_store,
                         prepare: Callable = lambda name, texts: texts,
                         ) -> float:
    """The traced cost of one more credential ``store`` admits: the
    difference between a store of ``2 * users`` and one of ``4 * users``
    credentials, divided by the ``2 * users`` it adds.  ``prepare`` turns
    a store's name and texts into what ``store`` reads, untraced.  The
    median of ``rounds`` differences: a process-wide table (the interned
    strings, say) that grows during one round charges that round for the
    whole table."""
    stores = [(prepare(f"small-{n}", templates(f"small-{n}", users)),
               prepare(f"large-{n}", templates(f"large-{n}", 2 * users)))
              for n in range(rounds)]
    admitted_store(templates("warm-up", 2))  # first-use set-up, untraced
    tracemalloc.start()
    try:
        differences = [resident_bytes(large, store)
                       - resident_bytes(small, store)
                       for small, large in stores]
    finally:
        tracemalloc.stop()
    return statistics.median(differences) / (2 * users)


class TestResidentBytes:
    def test_an_admitted_credential_keeps_at_most_60_percent(self):
        before = HELD_BEFORE.get(sys.version_info[:2])
        if before is None:
            pytest.skip("no figure recorded for this Python's object sizes")
        held = bytes_per_credential()
        assert held <= HELD_SHARE * before, (
            f"{held:.0f} B per admitted credential, "
            f"over {HELD_SHARE:.0%} of {before} B")

    def test_a_template_credential_keeps_only_its_literals(self):
        before = SHARED_TEXT_BEFORE.get(sys.version_info[:2])
        if before is None:
            pytest.skip("no figure recorded for this Python's object sizes")
        held = bytes_per_credential()
        assert held <= SHAPE_SHARE * before, (
            f"{held:.0f} B per admitted credential, "
            f"over {SHAPE_SHARE:.0%} of {before} B")

    def test_a_wire_added_credential_keeps_what_a_recovered_one_does(
            self, tmp_path):
        wire = bytes_per_credential()
        recovered = bytes_per_credential(
            store=recovered_store,
            prepare=lambda name, texts: snapshotted(tmp_path / name, texts))
        assert wire <= WIRE_SHARE * recovered, (
            f"{wire:.0f} B per credential added over the wire, against "
            f"{recovered:.0f} B per recovered credential")

    def test_no_credential_holds_rendered_bytes_after_verification(self):
        session = admitted_store(templates("rendered", 4))
        for credential in session.credentials:
            assert not hasattr(credential, "__dict__")
            assert credential.verify()

    def test_a_key_is_one_string_across_credentials(self):
        session = admitted_store(templates("interned", 3))
        by_text = {}
        for credential in session.credentials:
            for key in (credential.authorizer, *credential.principals()):
                assert by_text.setdefault(key, key) is key
        # each user key is licensed by one credential and authorizes the
        # next, the team key authorizes every team credential
        assert len(by_text) == 1 + 2 * 3


def _values() -> list:
    pair = KeyPair.generate("resident-values")
    signature = pair.private.sign(b"message")
    program = ConditionsProgram((
        Clause(Binary("==", Attribute("op"), StringLit("run"))),
        Clause(Unary("-", Deref(NumberLit("1"))), "true"),
        Clause(Binary("==", Attribute("subject"), Slot(0))),
    ))
    licensees = AnyOf((Principal("Ka"), AllOf((Principal("Kb"),
                                               Principal("Kc"))),
                       Threshold(1, (Principal("Kd"), Principal("Ke")))))
    credential = Credential.build(
        pair.public.encode(), '"Ka" || ("Kb" && "Kc")',
        'op=="run"').sign(pair.private)
    with_constants = Credential.build(
        "POLICY", "K", 'op==R', local_constants={"K": "Ka", "R": "run"})
    return [program, *program.clauses, licensees, *licensees.parts,
            Token(TokenType.STRING, "Ka", 1, 1), pair.public, signature,
            credential, with_constants]


@pytest.mark.parametrize("value", _values(),
                         ids=lambda value: type(value).__name__)
class TestSlottedValueTypes:
    def test_is_frozen_without_an_instance_dict(self, value):
        assert not hasattr(value, "__dict__")
        with pytest.raises(FrozenInstanceError):
            setattr(value, fields(value)[0].name, None)

    @pytest.mark.parametrize("clone", [
        copy.copy, copy.deepcopy,
        lambda value: pickle.loads(pickle.dumps(value)),
    ], ids=["copy", "deepcopy", "pickle"])
    def test_round_trips_equal_with_an_equal_hash(self, value, clone):
        again = clone(value)
        assert again == value and hash(again) == hash(value)
        assert type(again) is type(value)
        if isinstance(value, Credential):
            assert again.local_constants == value.local_constants
            assert again.to_text() == value.to_text()


class TestCredentialShape:
    def test_a_credential_is_weakly_referenceable(self):
        credential = Credential.build("POLICY", '"Ka"', 'op=="run"')
        assert weakref.ref(credential)() is credential

    def test_credentials_without_constants_share_one_empty_table(self):
        first = Credential.from_text(
            'Authorizer: POLICY\nLicensees: "Ka"\nConditions: op=="run";')
        second = Credential.build("POLICY", '"Kb"', 'op=="stop"',
                                  local_constants={})
        assert first.local_constants is second.local_constants is NO_CONSTANTS
        for clone in (copy.copy(first), copy.deepcopy(first),
                      pickle.loads(pickle.dumps(first))):
            assert clone.local_constants is NO_CONSTANTS

    def test_the_shared_empty_table_cannot_be_mutated(self):
        assert dict(NO_CONSTANTS) == {} and not NO_CONSTANTS
        with pytest.raises(TypeError):
            NO_CONSTANTS["K"] = "Ka"  # type: ignore[index]
        with pytest.raises(TypeError):
            del NO_CONSTANTS["K"]  # type: ignore[attr-defined]
        for mutator in ("update", "setdefault", "pop", "clear", "__setitem__"):
            assert not hasattr(NO_CONSTANTS, mutator)
        with pytest.raises(AttributeError):
            NO_CONSTANTS.extra = 1  # type: ignore[attr-defined]
        assert dict(NO_CONSTANTS) == {}

    def test_constants_are_copied_not_shared(self):
        constants = {"K": "Ka"}
        credential = Credential.build("POLICY", "K", "true",
                                      local_constants=constants)
        constants["K"] = "Kz"
        assert credential.local_constants == {"K": "Ka"}
        assert credential.principals() == frozenset({"Ka"})
