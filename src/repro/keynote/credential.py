"""KeyNote credentials: assertions binding authorisation to keys.

Two kinds (RFC 2704):

- **Policy assertions** — ``Authorizer: POLICY``; unsigned; they are the
  local root of trust (Figure 2 / Figure 5 of the paper).
- **Signed credentials** — the authorizer is a public key and the credential
  carries a signature over its canonical bytes (Figures 4, 6, 7).
"""

from __future__ import annotations

import sys
from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field, replace
from weakref import WeakValueDictionary

from repro.crypto.keys import PrivateKey, PublicKey, Signature
from repro.crypto.keystore import Keystore
from repro.errors import CredentialError, KeyNoteSyntaxError
from repro.keynote.ast import ConditionsProgram, _WeaklyReferenced, bind
from repro.keynote.licensees import LicenseeExpr, licensees_to_text, parse_licensees
from repro.keynote.parser import (
    parse_conditions,
    parse_local_constants,
    parse_shape,
    split_fields,
)
from repro.keynote.tokens import normalise, template

POLICY_PRINCIPAL = "POLICY"
KEYNOTE_VERSION = "2"


class _NoConstants(Mapping):
    """The immutable empty Local-Constants table every credential without
    constants shares; copying or pickling it yields the shared instance."""

    __slots__ = ()

    def __getitem__(self, name: str) -> str:
        raise KeyError(name)

    def __iter__(self) -> Iterator[str]:
        return iter(())

    def __len__(self) -> int:
        return 0

    def __repr__(self) -> str:
        return "{}"

    def __reduce__(self) -> str:
        return "NO_CONSTANTS"


NO_CONSTANTS: Mapping[str, str] = _NoConstants()


#: The process's Conditions table: shape key
#: (:func:`~repro.keynote.tokens.template`) -> the shape parsed for it,
#: read and filled by :meth:`Credential.build` whatever path presents the
#: text.  Credentials cut from one template differ only in their slotted
#: literals, so they share one entry, one tree and one compile.  An entry
#: leaves with the last credential that holds its shape.
PROGRAMS: "WeakValueDictionary[tuple, ConditionsProgram]" = WeakValueDictionary()


@dataclass(frozen=True, slots=True)
class Credential(_WeaklyReferenced):
    """A parsed KeyNote assertion.

    ``authorizer`` and the licensee principals are either symbolic names
    (``"Kbob"``) or encoded public keys; symbolic names are resolved through a
    :class:`~repro.crypto.keystore.Keystore` at signing/verification time.
    Parsing interns both, so a key that authorizes one credential and is
    licensed by another is held once.

    The Conditions are held as a ``shape`` shared through
    :data:`PROGRAMS` with every credential cut from the same template,
    plus this credential's ``binding``: the literals the shape leaves as
    slots.  :attr:`conditions` puts them together on demand.  A
    credential with Local-Constants holds its own shape with no slots.
    Equality and hashing read the text (``conditions_text`` and the
    constants), never the trees.
    """

    authorizer: str
    licensees: LicenseeExpr
    conditions_text: str
    shape: ConditionsProgram = field(compare=False)
    binding: tuple[str, ...] = field(default=(), compare=False)
    comment: str = ""
    local_constants: Mapping[str, str] = field(
        default_factory=lambda: NO_CONSTANTS)
    signature: str = ""

    # -- construction --------------------------------------------------------

    @classmethod
    def build(cls, authorizer: str, licensees: str, conditions: str,
              comment: str = "",
              local_constants: dict[str, str] | None = None,
              signature: str = "",
              ) -> "Credential":
        """Build a credential from field bodies (unsigned unless a
        ``signature`` is given).

        The Conditions are parsed only when :data:`PROGRAMS` holds no
        shape for their template; otherwise only their literals are read.
        When they equal the shape's ``last_binding`` the credential holds
        that tuple, so a run of credentials cut from one template with the
        same literals (a user's proxy renewals, say) holds one binding;
        the shape keeps one binding at most and frees it with itself.
        Local-Constants are substituted at parse time, so a credential
        with them always parses its own program.

        :raises KeyNoteSyntaxError: if licensees or conditions are malformed.
        """
        constants = dict(local_constants) if local_constants else NO_CONSTANTS
        parsed_licensees = parse_licensees(licensees, constants)
        text = normalise(conditions)
        if constants:
            shape, binding = parse_conditions(conditions, constants), ()
        else:
            key, literals = template(conditions)
            shape = PROGRAMS.get(key)
            if shape is None:
                shape = PROGRAMS[key] = parse_shape(conditions, key)
            binding = shape.last_binding
            if binding != literals:
                binding = literals
                object.__setattr__(shape, "last_binding", binding)
        return cls(
            authorizer=sys.intern(authorizer),
            licensees=parsed_licensees,
            conditions_text=text,
            shape=shape,
            binding=binding,
            comment=comment,
            local_constants=constants,
            signature=signature,
        )

    @classmethod
    def from_text(cls, text: str) -> "Credential":
        """Parse the textual credential form.

        :raises KeyNoteSyntaxError: on malformed input.
        """
        fields = split_fields(text)
        if "authorizer" not in fields:
            raise KeyNoteSyntaxError("credential has no Authorizer field")
        if "licensees" not in fields:
            raise KeyNoteSyntaxError("credential has no Licensees field")
        version = fields.get("keynote-version", KEYNOTE_VERSION).strip().strip('"')
        if version != KEYNOTE_VERSION:
            raise KeyNoteSyntaxError(f"unsupported KeyNote version {version!r}")
        constants = parse_local_constants(fields["local-constants"]) \
            if "local-constants" in fields else NO_CONSTANTS
        authorizer = fields["authorizer"].strip()
        if authorizer.startswith('"') and authorizer.endswith('"'):
            authorizer = authorizer[1:-1]
        if authorizer in constants:
            authorizer = constants[authorizer]
        conditions_text = fields.get("conditions", "true").rstrip()
        if conditions_text.endswith(";"):
            conditions_text = conditions_text[:-1]
        if not conditions_text.strip():
            conditions_text = "true"
        signature = fields.get("signature", "").strip().strip('"')
        return cls.build(
            authorizer=authorizer,
            licensees=fields["licensees"],
            conditions=conditions_text,
            comment=fields.get("comment", ""),
            local_constants=constants,
            signature=signature if signature != "..." else "",
        )

    def __hash__(self) -> int:
        # The generated ``__eq__`` compares these and the constants, so
        # equal credentials hash alike; the text caches its hash.
        return hash((self.authorizer, self.licensees, self.conditions_text,
                     self.comment, self.signature))

    # -- properties ----------------------------------------------------------

    @property
    def conditions(self) -> ConditionsProgram:
        """The Conditions program this credential grants under: its shape
        with the binding's literals in the slots, built afresh on each
        read (no credential keeps one); the shape itself when it has no
        slots."""
        return bind(self.shape, self.binding)

    @property
    def is_policy(self) -> bool:
        """True for local policy assertions (``Authorizer: POLICY``)."""
        return self.authorizer.upper() == POLICY_PRINCIPAL

    def principals(self) -> frozenset[str]:
        """All principals named in the Licensees field."""
        return self.licensees.principals()

    # -- serialisation ---------------------------------------------------------

    def to_text(self, include_signature: bool = True) -> str:
        """Serialise to the RFC-2704 textual form."""
        lines = [f"KeyNote-Version: {KEYNOTE_VERSION}"]
        if self.comment:
            lines.append(f"Comment: {self.comment}")
        if self.local_constants:
            bindings = " ".join(f'{k} = "{v}"'
                                for k, v in sorted(self.local_constants.items()))
            lines.append(f"Local-Constants: {bindings}")
        authorizer = (POLICY_PRINCIPAL if self.is_policy
                      else f'"{self.authorizer}"')
        lines.append(f"Authorizer: {authorizer}")
        lines.append(f"Licensees: {licensees_to_text(self.licensees)}")
        lines.append(f"Conditions: {self.conditions_text};")
        if include_signature and self.signature:
            lines.append(f'Signature: "{self.signature}"')
        return "\n".join(lines) + "\n"

    def canonical_bytes(self) -> bytes:
        """The bytes covered by the signature: every field except Signature,
        with symbolic principals left as-is (the signature binds the text the
        authorizer actually uttered).

        Rendered afresh on every call and never kept: a compliance checker
        settles each credential's verdict once, so the bytes are asked for
        once per signing or verification, and keeping them would cost an
        admitted credential about 400 bytes for the rest of its life.
        """
        return self.to_text(include_signature=False).encode("utf-8")

    # -- signing ----------------------------------------------------------------

    def sign(self, private_key: PrivateKey) -> "Credential":
        """Return a signed copy of this credential.

        :raises CredentialError: when signing a POLICY assertion (policy
            assertions are locally trusted and never signed, RFC 2704 s4.6.6).
        """
        if self.is_policy:
            raise CredentialError("policy assertions are not signed")
        signature = private_key.sign(self.canonical_bytes())
        return replace(self, signature=signature.encode())

    def signed_by(self, keystore: Keystore) -> "Credential":
        """Sign using the keystore entry for this credential's authorizer.

        :raises UnknownKeyError: if the authorizer is not in the keystore.
        """
        return self.sign(keystore.pair(keystore_name(self.authorizer, keystore)).private)

    def verify(self, keystore: Keystore | None = None,
               cache=None) -> bool:
        """Verify the signature.

        Policy assertions are vacuously valid.  For signed credentials the
        authorizer must be an encoded key, or resolvable through the
        keystore.  The Schnorr check runs on every call unless ``cache``
        (a :class:`~repro.crypto.keystore.SignatureVerificationCache`)
        remembers its outcome: a caller that keeps no verdict of its own
        passes :data:`~repro.crypto.keystore.SIGNATURE_CACHE`.
        """
        if self.is_policy:
            return True
        signer = self.signer(keystore)
        return signer is not None and self.verify_as(signer, cache)

    def signer(self, keystore: Keystore | None = None,
               ) -> "PublicKey | str | None":
        """The key this credential's signature must verify under, resolved
        against ``keystore`` *now*: the keystore's public key for a
        symbolic authorizer, the encoded text (decoded by
        :meth:`verify_as`) for an encoded one.  None when no key can make
        the credential valid: a policy assertion, no signature, or a
        symbolic authorizer the keystore does not know.

        Splitting the lookup from :meth:`verify_as` lets a caller fix the
        verdict's inputs at one instant and pay for the decode and the
        modular exponentiations later.
        """
        if self.is_policy or not self.signature:
            return None
        if PublicKey.looks_like_key(self.authorizer):
            return self.authorizer
        if keystore is None or self.authorizer not in keystore:
            return None
        return keystore.public(self.authorizer)

    def verify_as(self, signer: "PublicKey | str", cache=None) -> bool:
        """Verify the signature under ``signer`` (as returned by
        :meth:`signer`), through ``cache`` when one is given."""
        try:
            public = (signer if isinstance(signer, PublicKey)
                      else PublicKey.decode(signer))
            signature = Signature.decode(self.signature)
        except Exception:
            return False
        if cache is None:
            return public.verify(self.canonical_bytes(), signature)
        return cache.verify(public, self.canonical_bytes(), signature)

    def verify_or_raise(self, keystore: Keystore | None = None) -> None:
        """Like :meth:`verify` but raising.

        :raises CredentialError: if the credential is unsigned or invalid.
        """
        if self.is_policy:
            return
        if not self.signature:
            raise CredentialError(
                f"credential by {self.authorizer!r} is unsigned")
        if not self.verify(keystore):
            raise CredentialError(
                f"signature on credential by {self.authorizer!r} is invalid")

    def __str__(self) -> str:
        return self.to_text()


def keystore_name(principal: str, keystore: Keystore) -> str:
    """Map a principal (symbolic or encoded) to its keystore name."""
    if PublicKey.looks_like_key(principal):
        return keystore.name_of(principal)
    return principal

