"""Policy Decentralisation (Section 4.5): delegation between user keys.

"Key KWebCom can delegate authorisation for role Manager in domain Finance to
Claire by writing and signing the credential shown in Figure 6. ... Claire
can delegate her role to Kfred by writing the credential shown in Figure 7."

The service issues role-membership credentials (administration → user) and
user-to-user delegations, and answers membership queries through the
compliance checker — so a delegation chain is only effective when every link
actually holds the delegated role, which is precisely what the paper's
Figure 6/7 inconsistency exercises (see DESIGN.md).
"""

from __future__ import annotations

from repro.crypto.keystore import Keystore
from repro.keynote.api import KeyNoteSession
from repro.keynote.credential import Credential
from repro.translate.common import membership_attributes
from repro.translate.to_keynote import membership_conditions


class DelegationService:
    """Issues and evaluates role-membership delegations."""

    def __init__(self, session: KeyNoteSession, keystore: Keystore,
                 admin_key: str) -> None:
        self.session = session
        self.keystore = keystore
        self.admin_key = admin_key
        keystore.create(admin_key)

    def admit_administrator(self) -> Credential:
        """Install the POLICY assertion trusting the administration key for
        *role administration* (the top of every membership chain).

        The conditions deliberately require ``Permission`` and ``ObjectType``
        to be **absent** (absent attributes evaluate to the empty string in
        KeyNote), so this root only answers membership-shaped queries —
        *action* queries must flow through the Figure-5 policy credential,
        whose conditions encode the HasPermission table.  Without this guard,
        holding any role would bypass the grant table entirely.
        """
        credential = Credential.build(
            authorizer="POLICY",
            licensees=f'"{self.admin_key}"',
            conditions=('app_domain=="WebCom" && Permission=="" '
                        '&& ObjectType==""'),
            comment="the WebCom administration key is the role authority")
        self.session.add_policy(credential)
        return credential

    def grant_role(self, user_key: str, domain: str, role: str) -> Credential:
        """Administration-signed membership (Figure 6)."""
        self.keystore.create(user_key)
        credential = Credential.build(
            authorizer=self.admin_key,
            licensees=f'"{user_key}"',
            conditions=membership_conditions(domain, role),
            comment=f"{user_key} is authorised to be a {role} "
                    f"in the {domain} domain",
        ).sign(self.keystore.pair(self.admin_key).private)
        self.session.add_credential(credential)
        return credential

    def delegate_role(self, from_key: str, to_key: str, domain: str,
                      role: str) -> Credential:
        """User-to-user delegation (Figure 7).

        The credential is always *issuable* — whether it is *effective*
        depends on whether ``from_key`` itself holds the role, which
        :meth:`holds_role` evaluates over the whole chain.
        """
        self.keystore.create(to_key)
        credential = Credential.build(
            authorizer=from_key,
            licensees=f'"{to_key}"',
            conditions=membership_conditions(domain, role),
            comment=f"{from_key} delegates {domain}/{role} to {to_key}",
        ).sign(self.keystore.pair(from_key).private)
        self.session.add_credential(credential)
        return credential

    def holds_role(self, user_key: str, domain: str, role: str) -> bool:
        """Does the chain of credentials give ``user_key`` the role?"""
        return bool(self.session.query(
            membership_attributes(domain, role), [user_key]))

    def revoke(self, credential: Credential) -> bool:
        """Drop one copy of a previously added credential (simple
        revocation-by-removal; the paper's middleware propagation handles
        the stores).

        Returns True if the credential was present.
        """
        return self.session.revoke_credential(credential)
