"""A simple PKI: named keys, lookup in both directions, and a process-wide
signature-verification cache.

The paper's figures use symbolic key names (``Kbob``, ``Kalice``,
``KWebCom``).  The keystore maps those names to real key pairs and lets
credentials be written with symbolic names while being signed with real keys.
It plays the role of the "System PKI" box in Figure 3.

:class:`SignatureVerificationCache` memoises the (deterministic) outcome of
Schnorr signature verification by one digest of ``(group, key, message,
signature)``, keeping at most :data:`SIGNATURE_CACHE_SIZE` outcomes, least
recently used out first.  It is for callers that keep no verdict of their
own: the shared :data:`SIGNATURE_CACHE` instance serves one-shot
:func:`~repro.keynote.compliance.evaluate_query` calls and the
translator's presented credentials.  A compliance checker keeps each
credential's verdict on its own entry and never consults it.
"""

from __future__ import annotations

import hashlib
import threading
from typing import Iterator, Mapping

from repro.crypto.keys import KeyPair, PublicKey, Signature
from repro.errors import UnknownKeyError
from repro.util.lru import LRUCache

#: outcomes a cache keeps before evicting the least recently used: a
#: caller that presents ever new credentials would otherwise keep one
#: entry per credential it ever saw
SIGNATURE_CACHE_SIZE = 4096


class SignatureVerificationCache:
    """Memoises signature-verification outcomes.

    Verification is a pure function of (group, public key, message,
    signature), so its result can be cached process-wide.  Each outcome is
    keyed by one SHA-256 digest over all of them
    (:func:`_verification_key`), 32 bytes however long the message; both
    valid and invalid outcomes are cached (an invalid signature stays
    invalid).  Past :data:`SIGNATURE_CACHE_SIZE` entries the least recently
    used is evicted (counted in :attr:`evictions`); an evicted signature
    simply verifies again, as a miss.

    The shared process-wide instance may be consulted from several
    threads at once (one-shot queries from worker threads), so lookups,
    inserts, counter bumps and :meth:`clear` are serialised under one
    lock.  The Schnorr verification itself runs *outside* the lock —
    it is pure, so two racing misses at worst both verify and store the
    same value.

    >>> cache = SignatureVerificationCache()
    >>> cache.hits, cache.misses
    (0, 0)
    """

    def __init__(self) -> None:
        self._cache: LRUCache[bytes, bool] = LRUCache(SIGNATURE_CACHE_SIZE)
        self.hits = 0
        self.misses = 0
        self._lock = threading.Lock()

    def verify(self, public: PublicKey, message: bytes,
               signature: Signature) -> bool:
        """Cached :meth:`PublicKey.verify`."""
        key = _verification_key(public, message, signature)
        with self._lock:
            cached = self._cache.get(key)
            if cached is not None:
                self.hits += 1
                return cached
            self.misses += 1
        result = public.verify(message, signature)
        with self._lock:
            self._cache.put(key, result)
        return result

    def clear(self) -> None:
        """Drop every cached outcome and zero the counters."""
        with self._lock:
            self._cache.clear()
            self._cache.evictions = 0
            self.hits = 0
            self.misses = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._cache)

    @property
    def evictions(self) -> int:
        """Outcomes dropped to stay within :data:`SIGNATURE_CACHE_SIZE`."""
        return self._cache.evictions

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {"entries": len(self._cache), "hits": self.hits,
                    "misses": self.misses}


def _verification_key(public: PublicKey, message: bytes,
                     signature: Signature) -> bytes:
    """The SHA-256 digest naming one verification: the group's (p, q, g),
    the key's y, the message and the signature's (e, s), each prefixed by
    its length so that no two distinct inputs share an encoding."""
    digest = hashlib.sha256()
    group = public.group
    for part in (group.p, group.q, group.g, public.y, message,
                 signature.e, signature.s):
        if isinstance(part, int):
            part = part.to_bytes(part.bit_length() // 8 + 1, "big",
                                 signed=True)
        digest.update(len(part).to_bytes(8, "big"))
        digest.update(part)
    return digest.digest()


#: the process-wide cache for callers that keep no verdict of their own
SIGNATURE_CACHE = SignatureVerificationCache()


class Keystore:
    """Registry of named key pairs.

    >>> ks = Keystore()
    >>> kp = ks.create("Kbob")
    >>> ks.public("Kbob") == kp.public
    True
    """

    def __init__(self) -> None:
        self._pairs: dict[str, KeyPair] = {}
        self._by_encoding: dict[str, str] = {}

    def create(self, name: str, seed: str | None = None) -> KeyPair:
        """Create (or return the existing) key pair for ``name``.

        :param seed: optional explicit derivation seed; defaults to the name.
        """
        if name in self._pairs:
            return self._pairs[name]
        pair = KeyPair.generate(seed if seed is not None else name)
        self._pairs[name] = pair
        self._by_encoding[pair.public.encode()] = name
        return pair

    def add(self, name: str, pair: KeyPair) -> None:
        """Register an externally created pair under ``name``."""
        self._pairs[name] = pair
        self._by_encoding[pair.public.encode()] = name

    def pair(self, name: str) -> KeyPair:
        """Return the key pair for ``name``.

        :raises UnknownKeyError: if no such name is registered.
        """
        try:
            return self._pairs[name]
        except KeyError:
            raise UnknownKeyError(f"no key named {name!r}") from None

    def public(self, name: str) -> PublicKey:
        """Return the public key for ``name``."""
        return self.pair(name).public

    def name_of(self, key: PublicKey | str) -> str:
        """Reverse lookup: the symbolic name of a public key.

        :raises UnknownKeyError: if the key is not registered.
        """
        encoding = key.encode() if isinstance(key, PublicKey) else key
        try:
            return self._by_encoding[encoding]
        except KeyError:
            raise UnknownKeyError("public key is not registered") from None

    def __contains__(self, name: str) -> bool:
        return name in self._pairs

    def __iter__(self) -> Iterator[str]:
        return iter(self._pairs)

    def __len__(self) -> int:
        return len(self._pairs)

    def resolve(self, symbol: str) -> str:
        """Map a symbolic name to its encoded public key (identity for
        already-encoded keys)."""
        if PublicKey.looks_like_key(symbol):
            return symbol
        return self.public(symbol).encode()

    def symbol_table(self) -> Mapping[str, str]:
        """Return {symbolic name -> encoded public key} for all entries."""
        return {name: pair.public.encode() for name, pair in self._pairs.items()}

    def display(self, encoded: str) -> str:
        """Best-effort pretty name for an encoded key (falls back to a
        truncated encoding)."""
        name = self._by_encoding.get(encoded)
        if name is not None:
            return name
        return encoded[:24] + "..." if len(encoded) > 27 else encoded
