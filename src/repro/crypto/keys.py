"""Key pairs and Schnorr signatures.

Keys serialise to the textual form KeyNote credentials embed, e.g.::

    "kn-schnorr-hex:3a91..."

which plays the role of the ``"rsa-hex:..."`` keys in RFC 2704.  Signatures
are deterministic (RFC-6979 style nonce derivation) so credential bytes are
reproducible across runs.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass
from functools import lru_cache

from repro.crypto.group import DEFAULT_GROUP, SchnorrGroup
from repro.errors import InvalidSignatureError, KeyFormatError

KEY_PREFIX = "kn-schnorr-hex"
SIG_PREFIX = "sig-schnorr-sha256-hex"


@dataclass(frozen=True)
class Signature:
    """A Schnorr signature (challenge e, response s)."""

    e: int
    s: int

    def encode(self) -> str:
        """Serialise to the textual form embedded in credentials."""
        return f"{SIG_PREFIX}:{self.e:040x}{self.s:040x}"

    @classmethod
    def decode(cls, text: str) -> "Signature":
        """Parse the textual form.

        :raises KeyFormatError: if the text is malformed.
        """
        prefix, _, body = text.partition(":")
        if prefix != SIG_PREFIX or len(body) != 80:
            raise KeyFormatError(f"malformed signature: {text[:40]!r}...")
        try:
            return cls(e=int(body[:40], 16), s=int(body[40:], 16))
        except ValueError as exc:
            raise KeyFormatError(f"non-hex signature body: {text!r}") from exc


@dataclass(frozen=True)
class PublicKey:
    """A public key: group element y = g^x."""

    y: int
    group: SchnorrGroup = DEFAULT_GROUP

    def encode(self) -> str:
        """Serialise to the ``kn-schnorr-hex:...`` textual form."""
        width = (self.group.p.bit_length() + 3) // 4
        return f"{KEY_PREFIX}:{self.y:0{width}x}"

    @classmethod
    def decode(cls, text: str, group: SchnorrGroup = DEFAULT_GROUP) -> "PublicKey":
        """Parse the textual form.

        Goes through :func:`_decode_public`, so the subgroup-membership
        check runs once per distinct key, not once per credential.

        :raises KeyFormatError: if the text is malformed or the point is not
            in the group.
        """
        return _decode_public(text, group)

    @staticmethod
    def looks_like_key(text: str) -> bool:
        """True if ``text`` has the serialised-key prefix."""
        return text.startswith(KEY_PREFIX + ":")

    def fingerprint(self, length: int = 16) -> str:
        """Short stable identifier for display and indexing."""
        return hashlib.sha256(self.encode().encode()).hexdigest()[:length]

    def verify(self, message: bytes, signature: Signature) -> bool:
        """Verify a Schnorr signature over ``message``."""
        p, q = self.group.p, self.group.q
        if not (0 <= signature.e < q and 0 <= signature.s < q):
            return False
        # r' = g^s * y^e ; valid iff H(r' || m) == e
        r = (self.group.exp(signature.s) * pow(self.y, signature.e, p)) % p
        e = self.group.hash_to_exponent(_int_bytes(r, p), message)
        return e == signature.e

    def verify_or_raise(self, message: bytes, signature: Signature) -> None:
        """Like :meth:`verify`, raising on failure.

        :raises InvalidSignatureError: if the signature does not verify.
        """
        if not self.verify(message, signature):
            raise InvalidSignatureError(
                f"signature verification failed for key {self.fingerprint()}")


@dataclass(frozen=True)
class PrivateKey:
    """A private exponent x in [1, q)."""

    x: int
    group: SchnorrGroup = DEFAULT_GROUP

    def public(self) -> PublicKey:
        """Derive the corresponding public key."""
        return PublicKey(y=self.group.exp(self.x), group=self.group)

    def sign(self, message: bytes) -> Signature:
        """Produce a deterministic Schnorr signature over ``message``."""
        p, q = self.group.p, self.group.q
        k = _deterministic_nonce(self.x, message, q)
        r = self.group.exp(k)
        e = self.group.hash_to_exponent(_int_bytes(r, p), message)
        s = (k - self.x * e) % q
        return Signature(e=e, s=s)


@dataclass(frozen=True)
class KeyPair:
    """A private/public key pair."""

    private: PrivateKey
    public: PublicKey

    @classmethod
    def generate(cls, seed: str, group: SchnorrGroup = DEFAULT_GROUP) -> "KeyPair":
        """Deterministically derive a key pair from a seed string.

        Same seed + group always yields the same pair, which keeps credential
        bytes stable across test runs.
        """
        material = hashlib.sha256(f"repro-keypair:{seed}".encode()).digest()
        material += hashlib.sha256(material + b"\x01").digest()
        x = int.from_bytes(material, "big") % (group.q - 1) + 1
        private = PrivateKey(x=x, group=group)
        return cls(private=private, public=private.public())

    def sign(self, message: bytes) -> Signature:
        """Sign with the private half."""
        return self.private.sign(message)


@lru_cache(maxsize=4096)
def _decode_public(text: str, group: SchnorrGroup) -> PublicKey:
    """Parse and validate an encoded public key, memoised per (text, group).

    A raised :class:`KeyFormatError` is not cached, so malformed or
    non-member keys are rejected afresh on every call; only keys that pass
    the membership test are remembered, and at most ``maxsize`` of them.
    """
    prefix, _, body = text.partition(":")
    if prefix != KEY_PREFIX or not body:
        raise KeyFormatError(f"malformed public key: {text[:40]!r}")
    try:
        y = int(body, 16)
    except ValueError as exc:
        raise KeyFormatError(f"non-hex key body: {text!r}") from exc
    if not group.contains(y):
        raise KeyFormatError("public key is not a group element")
    return PublicKey(y=y, group=group)


def _int_bytes(value: int, modulus: int) -> bytes:
    """Fixed-width big-endian encoding of ``value`` for hashing."""
    width = (modulus.bit_length() + 7) // 8
    return value.to_bytes(width, "big")


def _deterministic_nonce(x: int, message: bytes, q: int) -> int:
    """Derive a per-(key, message) nonce in [1, q) via HMAC-SHA256."""
    key = x.to_bytes((q.bit_length() + 7) // 8 + 8, "big")
    counter = 0
    while True:
        mac = hmac.new(key, message + counter.to_bytes(4, "big"),
                       hashlib.sha256).digest()
        mac += hmac.new(key, mac + b"\x02", hashlib.sha256).digest()
        k = int.from_bytes(mac, "big") % q
        if k != 0:
            return k
        counter += 1
