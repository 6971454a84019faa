"""Schnorr group: a prime-order subgroup of Z_p^* used for signatures.

``DEFAULT_GROUP`` was generated with
``find_schnorr_parameters(160, 512, "repro-default-group-v1")`` and is
verified by the test suite.  512/160-bit parameters are far below modern
security margins but this is a *simulation substrate*: the framework only
needs sign/verify semantics (including rejection of forgeries), not
resistance to a funded adversary.

Powers of the generator go through a fixed-base comb
(:meth:`SchnorrGroup.exp`): one lazily built table of ``g^(d * 16^i)``
turns ``g^e`` into at most one multiplication per exponent nibble.  Neither
the comb nor the ``pow`` it replaces runs in constant time, so no
side-channel claim is made or lost.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property

from repro.crypto.prime import is_probable_prime

#: bits of the exponent one comb row covers: a row holds ``2**COMB_BITS``
#: powers, so the default group's table is 40 rows of 16 (640 ints, about
#: 60 KB) and ``g^e`` costs at most 40 multiplications
COMB_BITS = 4


@dataclass(frozen=True)
class SchnorrGroup:
    """Group parameters (p, q, g): g generates the order-q subgroup of Z_p^*."""

    p: int
    q: int
    g: int

    def validate(self) -> None:
        """Check the parameters are a well-formed Schnorr group.

        :raises ValueError: if any invariant fails.
        """
        if not is_probable_prime(self.p):
            raise ValueError("p is not prime")
        if not is_probable_prime(self.q):
            raise ValueError("q is not prime")
        if (self.p - 1) % self.q != 0:
            raise ValueError("q does not divide p-1")
        if not (1 < self.g < self.p):
            raise ValueError("g out of range")
        if pow(self.g, self.q, self.p) != 1:
            raise ValueError("g does not generate an order-q subgroup")
        if self.g == 1:
            raise ValueError("g is the identity")

    def contains(self, element: int) -> bool:
        """True if ``element`` is in the order-q subgroup."""
        return 0 < element < self.p and pow(element, self.q, self.p) == 1

    @cached_property
    def _comb(self) -> tuple[tuple[int, ...], ...]:
        """Row ``i`` holds ``g^(d * 16^i)`` for every digit ``d`` < 16.

        Built once per group on first use: one row per :data:`COMB_BITS`
        bits of ``q`` (40 x 16 entries, about 600 multiplications for the
        default group).
        """
        radix = 1 << COMB_BITS
        rows = []
        base = self.g
        for _ in range(-(-self.q.bit_length() // COMB_BITS)):
            row = [1] * radix
            for digit in range(1, radix):
                row[digit] = row[digit - 1] * base % self.p
            rows.append(tuple(row))
            base = row[-1] * base % self.p
        return tuple(rows)

    def exp(self, exponent: int) -> int:
        """Return g^exponent mod p.

        The exponent is reduced mod q first, which is exact because g has
        order q; a negative exponent therefore needs no special case.
        """
        rest = exponent % self.q
        mask = (1 << COMB_BITS) - 1
        result, p = 1, self.p
        for row in self._comb:
            digit = rest & mask
            if digit:
                result = result * row[digit] % p
            rest >>= COMB_BITS
        return result

    def hash_to_exponent(self, *parts: bytes) -> int:
        """Hash byte strings to an exponent in [0, q)."""
        h = hashlib.sha256()
        for part in parts:
            h.update(len(part).to_bytes(8, "big"))
            h.update(part)
        # Two rounds widen the digest past q's bit length to keep the
        # modular reduction bias negligible.
        first = h.digest()
        second = hashlib.sha256(first + b"\x01").digest()
        return int.from_bytes(first + second, "big") % self.q


DEFAULT_GROUP = SchnorrGroup(
    p=int(
        "8000000000000000000000000000000000000000000000000000000000000000"
        "00000000000000000000016256e6d4c7c94244bcdfa1ee1e3feead57d5f98b85",
        16,
    ),
    q=int("ac5f9a75e319c7eb85159ab1c6b3dc9b75045a7d", 16),
    g=int(
        "1494cc1e2e826c0696fd7515a8eac524001b1e4d3d4e87bfee03dcba730c3c14"
        "9c88c582158ad4caa459098a67a2fee6db6b3249f4e4d1c4c868d394a6854d07",
        16,
    ),
)
