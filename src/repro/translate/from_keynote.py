"""Policy Comprehension (Section 4.2): KeyNote credentials → RBAC relations.

The inverse of :mod:`repro.translate.to_keynote`.  Conditions are normalised
to DNF (:mod:`repro.translate.dnf`); each conjunct carrying the four RBAC
attributes becomes a ``HasPermission`` row, and each role-membership
credential (conjunct with Domain and Role but no ObjectType/Permission)
becomes a ``UserAssignment`` row for the licensee.

"This process aids comprehension of the overall policy through the
definition of the entire policy in one common format."
"""

from __future__ import annotations

from typing import Iterable

from repro.crypto.keystore import SIGNATURE_CACHE, Keystore
from repro.errors import ComprehensionError, UnknownKeyError
from repro.keynote.credential import Credential
from repro.keynote.licensees import Principal
from repro.rbac.policy import RBACPolicy
from repro.util.events import AuditLog
from repro.translate.common import (
    ATTR_APP_DOMAIN,
    ATTR_DOMAIN,
    ATTR_OBJECT_TYPE,
    ATTR_PERMISSION,
    ATTR_ROLE,
    WEBCOM_APP_DOMAIN,
)
from repro.translate.dnf import conditions_to_dnf


def comprehend_policy(credential: Credential, policy: RBACPolicy,
                      app_domain: str = WEBCOM_APP_DOMAIN) -> int:
    """Read HasPermission rows out of a Figure-5 style POLICY credential.

    Rows are added to ``policy``; the count of rows found is returned.

    :raises ComprehensionError: for credentials whose conditions fall outside
        the relational fragment.
    """
    rows = 0
    for conjunct in conditions_to_dnf(credential.conditions):
        if conjunct.get(ATTR_APP_DOMAIN, app_domain) != app_domain:
            continue  # scoped to some other application
        has_all = all(attr in conjunct for attr in
                      (ATTR_DOMAIN, ATTR_ROLE, ATTR_OBJECT_TYPE,
                       ATTR_PERMISSION))
        if has_all:
            policy.grant(conjunct[ATTR_DOMAIN], conjunct[ATTR_ROLE],
                         conjunct[ATTR_OBJECT_TYPE],
                         conjunct[ATTR_PERMISSION])
            rows += 1
    return rows


def _licensee_users(credential: Credential, keystore: Keystore | None,
                    audit: AuditLog | None = None) -> list[str]:
    """Map licensee principals back to user names.

    The Figure-6 convention is one principal per membership credential; the
    key name ``Kclaire`` maps back to user ``Claire`` when the keystore (or
    the comment) doesn't say otherwise.

    A principal the keystore cannot resolve falls back to its literal key
    name — but *only* for genuine lookup failures
    (:class:`~repro.errors.UnknownKeyError` / :class:`LookupError`), each
    disclosed as a ``translate.resolve_failed`` audit event.  Anything else
    (a TypeError from a malformed keystore, an attribute error from a stub)
    is a programming error and propagates: silently mapping it to the raw
    key would mistranslate the principal into a ghost user.
    """
    users: list[str] = []
    for key in sorted(credential.principals()):
        name = key
        if keystore is not None:
            try:
                name = keystore.name_of(keystore.resolve(key))
            except (UnknownKeyError, LookupError):
                if audit is not None:
                    audit.record(
                        0.0, "translate.resolve_failed", subject=key,
                        outcome="fallback",
                        credential=credential.authorizer or "?")
                name = key
        if name.startswith("K") and len(name) > 1:
            name = name[1:].capitalize()
        users.append(name)
    return users


def comprehend_membership(credential: Credential, policy: RBACPolicy,
                          keystore: Keystore | None = None,
                          app_domain: str = WEBCOM_APP_DOMAIN,
                          audit: AuditLog | None = None) -> int:
    """Read UserAssignment rows out of a Figure-6 style credential.

    :param audit: optional log receiving ``translate.resolve_failed``
        events for principals the keystore cannot resolve.
    :raises ComprehensionError: if the credential has compound licensees
        (memberships are per-user).
    """
    if not isinstance(credential.licensees, Principal):
        raise ComprehensionError(
            "membership credentials must license exactly one principal")
    rows = 0
    for conjunct in conditions_to_dnf(credential.conditions):
        if conjunct.get(ATTR_APP_DOMAIN, app_domain) != app_domain:
            continue
        if ATTR_DOMAIN not in conjunct or ATTR_ROLE not in conjunct:
            continue
        if ATTR_PERMISSION in conjunct or ATTR_OBJECT_TYPE in conjunct:
            continue  # that's a grant fragment, not a membership
        for user in _licensee_users(credential, keystore, audit):
            policy.assign(user, conjunct[ATTR_DOMAIN], conjunct[ATTR_ROLE])
            rows += 1
    return rows


def comprehend_credentials(credentials: Iterable[Credential],
                           keystore: Keystore | None = None,
                           app_domain: str = WEBCOM_APP_DOMAIN,
                           name: str = "comprehended",
                           verify_signatures: bool = True,
                           audit: AuditLog | None = None) -> RBACPolicy:
    """Synthesise one RBAC policy from a mixed bag of credentials.

    POLICY assertions contribute grants; signed membership credentials
    contribute assignments.  Credentials with invalid signatures are skipped
    (matching the compliance checker's behaviour); their outcomes are
    remembered in :data:`~repro.crypto.keystore.SIGNATURE_CACHE`, since
    nothing here keeps a verdict.  Pass ``audit`` to
    surface ``translate.resolve_failed`` events for unresolvable licensees.
    """
    policy = RBACPolicy(name)
    for credential in credentials:
        if verify_signatures and not credential.verify(keystore,
                                                         SIGNATURE_CACHE):
            continue
        if credential.is_policy:
            comprehend_policy(credential, policy, app_domain)
        else:
            try:
                comprehend_membership(credential, policy, keystore,
                                      app_domain, audit=audit)
            except ComprehensionError:
                continue  # not a membership credential; nothing to read
    return policy
