"""Test-only reference: the eager compliance-checker build.

``ComplianceChecker`` used to verify every signed credential while it was
constructed and drop the bad ones there.  It now resolves each signer at
admission and defers the check until the fixpoint first needs it.
:class:`EagerReferenceChecker` keeps the old screening, frozen, together
with ``Credential.verify`` as it was (and without the signature cache), so
the differential test in ``test_lazy_signatures.py`` can require the
deferred checks to reach the same verdicts and the same decisions.

It also indexes nothing by equality guard: every entry it admits is
unguarded, so its fixpoint reads every assertion a principal signed, in
admission order — the unindexed scan ``test_guard_index.py`` holds the
guard index to.
"""

from __future__ import annotations

from repro.crypto.keys import PublicKey, Signature
from repro.crypto.keystore import Keystore
from repro.errors import CredentialError
from repro.keynote.compliance import ComplianceChecker, _Prepared
from repro.keynote.credential import Credential
from repro.keynote.eval import CompiledConditions


def reference_verify(credential: Credential,
                     keystore: Keystore | None) -> bool:
    """The original ``Credential.verify``, minus the signature cache."""
    if credential.is_policy:
        return True
    if not credential.signature:
        return False
    try:
        if PublicKey.looks_like_key(credential.authorizer):
            public = PublicKey.decode(credential.authorizer)
        elif keystore is None:
            raise CredentialError("cannot resolve a symbolic principal "
                                  "without a keystore")
        else:
            public = keystore.public(credential.authorizer)
        signature = Signature.decode(credential.signature)
    except Exception:
        return False
    return public.verify(credential.canonical_bytes(), signature)


class _Unguarded(CompiledConditions):
    """A private compile of one program that the checker files unguarded."""

    guard = None


class EagerReferenceChecker(ComplianceChecker):
    """A checker whose every admission verifies the signature at once."""

    def _prepare(self, assertion: Credential, lazy: bool = False,
                 discard_uncompiled: bool = False,
                 ) -> "_Prepared | None":
        # Every program it is given compiles, so ``discard_uncompiled``
        # never applies.  The compile is its own: the one kept on the
        # program is shared with every other checker in the process.
        if self.verify_signatures and not reference_verify(assertion,
                                                           self.keystore):
            if self.strict:
                raise CredentialError(
                    f"invalid signature on credential by "
                    f"{assertion.authorizer!r}")
            return None
        return _Prepared(assertion, _Unguarded(assertion.conditions))
