"""Tests for the keystore (System PKI of Figure 3)."""

import pytest

from repro.crypto import KeyPair, Keystore
from repro.crypto.group import DEFAULT_GROUP, SchnorrGroup
from repro.crypto.keys import PublicKey, Signature
from repro.crypto.keystore import (
    SIGNATURE_CACHE_SIZE,
    SignatureVerificationCache,
    _verification_key,
)
from repro.errors import UnknownKeyError


class TestKeystore:
    def test_create_and_lookup(self):
        ks = Keystore()
        pair = ks.create("Kbob")
        assert ks.pair("Kbob") is pair
        assert ks.public("Kbob") == pair.public

    def test_create_is_idempotent(self):
        ks = Keystore()
        assert ks.create("Kbob") is ks.create("Kbob")

    def test_unknown_name_raises(self):
        with pytest.raises(UnknownKeyError):
            Keystore().pair("nope")

    def test_reverse_lookup(self):
        ks = Keystore()
        ks.create("Kbob")
        assert ks.name_of(ks.public("Kbob")) == "Kbob"
        assert ks.name_of(ks.public("Kbob").encode()) == "Kbob"

    def test_reverse_lookup_unknown_raises(self):
        ks = Keystore()
        foreign = KeyPair.generate("foreign")
        with pytest.raises(UnknownKeyError):
            ks.name_of(foreign.public)

    def test_add_external_pair(self):
        ks = Keystore()
        pair = KeyPair.generate("ext")
        ks.add("Kext", pair)
        assert ks.pair("Kext") is pair

    def test_contains_iter_len(self):
        ks = Keystore()
        ks.create("Ka")
        ks.create("Kb")
        assert "Ka" in ks
        assert "Kc" not in ks
        assert sorted(ks) == ["Ka", "Kb"]
        assert len(ks) == 2

    def test_resolve_symbol_vs_encoded(self):
        ks = Keystore()
        ks.create("Kbob")
        encoded = ks.public("Kbob").encode()
        assert ks.resolve("Kbob") == encoded
        assert ks.resolve(encoded) == encoded

    def test_symbol_table(self):
        ks = Keystore()
        ks.create("Ka")
        table = ks.symbol_table()
        assert set(table) == {"Ka"}
        assert table["Ka"].startswith("kn-schnorr-hex:")

    def test_display_known_and_unknown(self):
        ks = Keystore()
        ks.create("Ka")
        assert ks.display(ks.public("Ka").encode()) == "Ka"
        assert ks.display("kn-schnorr-hex:" + "ab" * 40).endswith("...")
        assert ks.display("short") == "short"

    def test_custom_seed(self):
        ks = Keystore()
        pair = ks.create("Kname", seed="other-seed")
        assert pair == KeyPair.generate("other-seed")


class TestSignatureCacheBound:
    def test_fifo_bound_and_an_evicted_signature_reverifies(self,
                                                           monkeypatch):
        cache = SignatureVerificationCache()
        pair = KeyPair.generate("Kbounded")
        first = b"the first message"
        signature = pair.private.sign(first)
        assert cache.verify(pair.public, first, signature)
        extra = 25
        # The bound is bookkeeping: stand in a cheap verifier for the
        # 4096 + N distinct fillers, each a miss.
        with monkeypatch.context() as patch:
            patch.setattr(PublicKey, "verify",
                          lambda self, message, sig: False)
            for n in range(SIGNATURE_CACHE_SIZE + extra):
                assert not cache.verify(pair.public, f"filler {n}".encode(),
                                        Signature(n + 1, n + 1))
        assert len(cache) == SIGNATURE_CACHE_SIZE
        assert cache.misses == 1 + SIGNATURE_CACHE_SIZE + extra
        # The first entry went first; checking it again runs the real
        # verification and counts a miss, not a hit.
        hits, misses = cache.hits, cache.misses
        assert cache.verify(pair.public, first, signature)
        assert (cache.hits, cache.misses) == (hits, misses + 1)
        assert len(cache) == SIGNATURE_CACHE_SIZE
        # The newest fillers survived the eviction and still hit.
        last = SIGNATURE_CACHE_SIZE + extra - 1
        assert not cache.verify(pair.public, f"filler {last}".encode(),
                                Signature(last + 1, last + 1))
        assert cache.hits == hits + 1

    def test_a_hit_keeps_an_outcome_past_newer_ones(self, monkeypatch):
        cache = SignatureVerificationCache()
        pair = KeyPair.generate("Krecent")
        first = b"verified often"
        signature = pair.private.sign(first)
        assert cache.verify(pair.public, first, signature)
        with monkeypatch.context() as patch:
            patch.setattr(PublicKey, "verify",
                          lambda self, message, sig: False)
            for n in range(2 * SIGNATURE_CACHE_SIZE):
                cache.verify(pair.public, f"filler {n}".encode(),
                             Signature(n + 1, n + 1))
                if n % 1000 == 0:
                    # Least recently used, not first in: a signature
                    # checked again keeps its place.
                    assert cache.verify(pair.public, first, signature)
        hits = cache.hits
        assert cache.verify(pair.public, first, signature)
        assert cache.hits == hits + 1
        assert len(cache) == SIGNATURE_CACHE_SIZE
        assert cache.evictions == SIGNATURE_CACHE_SIZE + 1


class TestSignatureCacheKey:
    """An outcome is keyed by one digest of everything verification
    reads: the group, the key, the message and the signature."""

    #: the same order-q subgroup under another generator: ``y`` is still a
    #: member, but a signature made under ``g`` does not verify under ``g^2``
    OTHER_GROUP = SchnorrGroup(DEFAULT_GROUP.p, DEFAULT_GROUP.q,
                               pow(DEFAULT_GROUP.g, 2, DEFAULT_GROUP.p))

    def test_a_verdict_under_one_group_is_not_served_for_another(self):
        cache = SignatureVerificationCache()
        pair = KeyPair.generate("Kgroup")
        message = b"signed under the default group"
        signature = pair.private.sign(message)
        assert cache.verify(pair.public, message, signature)
        other = PublicKey(pair.public.y, group=self.OTHER_GROUP)
        assert self.OTHER_GROUP.contains(other.y)
        assert not other.verify(message, signature)
        assert not cache.verify(other, message, signature)
        assert (cache.hits, cache.misses) == (0, 2)
        assert cache.verify(pair.public, message, signature)
        assert cache.hits == 1

    def test_each_input_changes_the_32_byte_key(self):
        group = DEFAULT_GROUP
        public = KeyPair.generate("Kkey").public
        signature = Signature(3, 4)
        base = _verification_key(public, b"ab", signature)
        variants = [
            _verification_key(PublicKey(public.y, self.OTHER_GROUP), b"ab",
                              signature),
            _verification_key(PublicKey(public.y, SchnorrGroup(
                group.p, group.q + 1, group.g)), b"ab", signature),
            _verification_key(PublicKey(public.y, SchnorrGroup(
                group.p + 2, group.q, group.g)), b"ab", signature),
            _verification_key(PublicKey(public.y + 1), b"ab", signature),
            _verification_key(public, b"ab\x00", signature),
            _verification_key(public, b"ab", Signature(4, 4)),
            _verification_key(public, b"ab", Signature(3, 5)),
        ]
        assert len(base) == 32
        assert all(len(key) == 32 for key in variants)
        assert len({base, *variants}) == 1 + len(variants)
