"""Tests for Schnorr keys and signatures."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.group import DEFAULT_GROUP
from repro.crypto.keys import KeyPair, PublicKey, Signature, _decode_public
from repro.errors import InvalidSignatureError, KeyFormatError


class TestDefaultGroup:
    def test_parameters_validate(self):
        DEFAULT_GROUP.validate()

    def test_contains_generator(self):
        assert DEFAULT_GROUP.contains(DEFAULT_GROUP.g)

    def test_rejects_non_member(self):
        assert not DEFAULT_GROUP.contains(0)
        assert not DEFAULT_GROUP.contains(DEFAULT_GROUP.p)

    def test_hash_to_exponent_in_range(self):
        e = DEFAULT_GROUP.hash_to_exponent(b"x", b"y")
        assert 0 <= e < DEFAULT_GROUP.q


class TestKeyPair:
    def test_deterministic_generation(self):
        assert KeyPair.generate("alice") == KeyPair.generate("alice")

    def test_different_seeds_differ(self):
        assert KeyPair.generate("alice") != KeyPair.generate("bob")

    def test_public_matches_private(self):
        kp = KeyPair.generate("alice")
        assert kp.private.public() == kp.public

    def test_public_key_is_group_member(self):
        kp = KeyPair.generate("alice")
        assert DEFAULT_GROUP.contains(kp.public.y)


class TestSignatures:
    def test_sign_verify(self):
        kp = KeyPair.generate("alice")
        sig = kp.sign(b"message")
        assert kp.public.verify(b"message", sig)

    def test_wrong_message_rejected(self):
        kp = KeyPair.generate("alice")
        sig = kp.sign(b"message")
        assert not kp.public.verify(b"other", sig)

    def test_wrong_key_rejected(self):
        sig = KeyPair.generate("alice").sign(b"m")
        assert not KeyPair.generate("bob").public.verify(b"m", sig)

    def test_tampered_signature_rejected(self):
        kp = KeyPair.generate("alice")
        sig = kp.sign(b"m")
        bad = Signature(e=sig.e, s=(sig.s + 1) % DEFAULT_GROUP.q)
        assert not kp.public.verify(b"m", bad)

    def test_out_of_range_signature_rejected(self):
        kp = KeyPair.generate("alice")
        bad = Signature(e=DEFAULT_GROUP.q, s=0)
        assert not kp.public.verify(b"m", bad)

    def test_deterministic_signing(self):
        kp = KeyPair.generate("alice")
        assert kp.sign(b"m") == kp.sign(b"m")

    def test_verify_or_raise(self):
        kp = KeyPair.generate("alice")
        sig = kp.sign(b"m")
        kp.public.verify_or_raise(b"m", sig)  # no raise
        with pytest.raises(InvalidSignatureError):
            kp.public.verify_or_raise(b"x", sig)

    @settings(max_examples=25, deadline=None)
    @given(st.binary(min_size=0, max_size=64))
    def test_round_trip_any_message(self, message):
        kp = KeyPair.generate("prop")
        assert kp.public.verify(message, kp.sign(message))


class TestEncoding:
    def test_public_key_round_trip(self):
        kp = KeyPair.generate("alice")
        assert PublicKey.decode(kp.public.encode()) == kp.public

    def test_signature_round_trip(self):
        sig = KeyPair.generate("alice").sign(b"m")
        assert Signature.decode(sig.encode()) == sig

    def test_key_prefix_detection(self):
        kp = KeyPair.generate("alice")
        assert PublicKey.looks_like_key(kp.public.encode())
        assert not PublicKey.looks_like_key("Kbob")

    def test_decode_rejects_garbage(self):
        with pytest.raises(KeyFormatError):
            PublicKey.decode("not-a-key")
        with pytest.raises(KeyFormatError):
            PublicKey.decode("kn-schnorr-hex:zzzz")
        with pytest.raises(KeyFormatError):
            Signature.decode("sig-schnorr-sha256-hex:short")

    def test_decode_rejects_non_group_element(self):
        # y = p is not a group member even though it parses as hex.
        width = (DEFAULT_GROUP.p.bit_length() + 3) // 4
        bogus = f"kn-schnorr-hex:{DEFAULT_GROUP.p:0{width}x}"
        with pytest.raises(KeyFormatError):
            PublicKey.decode(bogus)

    def test_fingerprint_stable_and_short(self):
        kp = KeyPair.generate("alice")
        assert kp.public.fingerprint() == kp.public.fingerprint()
        assert len(kp.public.fingerprint(8)) == 8


class TestFixedBaseComb:
    """``group.exp`` reads the generator's comb table; it must agree with
    plain modular exponentiation for every exponent, reduced mod q."""

    G = DEFAULT_GROUP

    @pytest.mark.parametrize("exponent", [
        0, 1, DEFAULT_GROUP.q - 1, DEFAULT_GROUP.q, 2 * DEFAULT_GROUP.q + 3,
        -5, -DEFAULT_GROUP.q, 2 ** 600 + 17])
    def test_edge_exponents(self, exponent):
        G = self.G
        assert G.exp(exponent) == pow(G.g, exponent % G.q, G.p)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=-(2 ** 200), max_value=2 ** 200))
    def test_random_exponents(self, exponent):
        G = self.G
        assert G.exp(exponent) == pow(G.g, exponent % G.q, G.p)

    def test_table_is_one_row_per_exponent_byte(self):
        comb = self.G._comb
        assert len(comb) == 20 and {len(row) for row in comb} == {256}
        assert comb[0][1] == self.G.g and comb[1][1] == pow(self.G.g, 256,
                                                            self.G.p)


class TestPinnedEncodings:
    """Deterministic nonces make keys and signatures bit-identical across
    versions: credential bytes written by older code stay valid."""

    @pytest.mark.parametrize("seed,message,key,signature", [
        ("alice", b"message",
         "3e0590d6694ef9e26966e3683f47286b189defcbe71e147dca98374ae0d8bf82"
         "b62053d7788fe35b71f5947bf116ee0b666f270a09e98b5067958f32cf2beeb1",
         "8a81850e804d73e975dda9a4fecca780a00ae8dc"
         "a34007959dd125dca2402a828b6096c7f15e3883"),
        ("bob", b"",
         "41221430917829ec16b1de5d73a0ac9fab2eaa8639482df82626dc96b4398b38"
         "8945da7977c30966f4bda2b1efee82afd61a5cf88a4b4e05e7bd3d5b5cdb6f56",
         "140fe341c7dc5fa466b8283e8bc1682014a9c526"
         "38e74b436d54804c5598cd06dc181f1b6d30ebc8"),
        ("bench-team-3", b"Authorizer: x",
         "7b9a0010b689e79dafa19b982afaf43e6167a26608dcdb5c95764bee80531ccd"
         "0f339ff6fb6ac8534a6f2a5aeadfffe2f262c6d18b887eb97d74c3554095fa91",
         "95be93bafdb48906075d25485a122ff3b2282428"
         "7f910979c5b4e15e9f16c528c98503a261169c84"),
    ])
    def test_key_and_signature_bytes(self, seed, message, key, signature):
        pair = KeyPair.generate(seed)
        assert pair.public.encode() == f"kn-schnorr-hex:{key}"
        assert pair.sign(message).encode() == (
            f"sig-schnorr-sha256-hex:{signature}")
        assert pair.public.verify(message, pair.sign(message))


class TestDecodeMemo:
    """``PublicKey.decode`` remembers keys that passed the subgroup check,
    never a rejection, and at most ``maxsize`` of them."""

    def test_is_bounded(self):
        assert _decode_public.cache_info().maxsize == 4096

    def test_repeat_decode_hits_the_memo(self):
        text = KeyPair.generate("memo-hit").public.encode()
        first = PublicKey.decode(text)
        before = _decode_public.cache_info()
        assert PublicKey.decode(text) is first
        after = _decode_public.cache_info()
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)

    @pytest.mark.parametrize("text", [
        "not-a-key", "kn-schnorr-hex:", "kn-schnorr-hex:zzzz",
        "kn-schnorr-hex:2",
        f"kn-schnorr-hex:{DEFAULT_GROUP.p:x}"])
    def test_rejections_are_not_remembered(self, text):
        assert not DEFAULT_GROUP.contains(2)
        for _ in range(3):
            before = _decode_public.cache_info()
            with pytest.raises(KeyFormatError):
                PublicKey.decode(text)
            after = _decode_public.cache_info()
            assert after.misses == before.misses + 1
            assert after.currsize == before.currsize
