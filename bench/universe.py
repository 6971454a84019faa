"""The benchmark's trust universe and its installed durability root.

One universe per code version: a POLICY assertion licensing ``orgs`` keys,
each org signing credentials for its teams, each team one credential per
user, each user one credential for its short-lived proxy key::

    POLICY -> org -> team -> user -> proxy        (4 signed hops)

plus a second POLICY assertion licensing the KeyCom administrator key that
signs the Figure 8 role credentials of the ``keycom_admin`` workload.  Every
principal is an encoded public key, so the stock daemon needs no keystore.

Conditions prune the delegation search to one path per request: the org
credential tests ``vo``/``group`` and, for op ``run``, matches the ``job``
attribute against a regex; the team credential tests ``subject``; the proxy
credential allows ``submit``, ``status`` and ``run`` (``admin`` is denied at
the last hop, so a denial walks as far as an allow).

The universe is installed over the wire into a fresh root by the stock
daemon once, then cached under ``.bench_build/`` keyed by a digest of the
``src/`` sources and this module; each workload restarts the daemon on its
own copy of that root.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path

from repro.crypto.keys import KeyPair
from repro.keynote.credential import Credential

#: the KeyCom domain of the daemon's ORB (``ServePolicyPlane`` defaults)
KEYCOM_DOMAIN = "serve/orb"
JOB_REGEX = "^job-[0-9]+$"
PROXY_OPS = ("submit", "status", "run")


@dataclass(frozen=True)
class Scale:
    orgs: int
    teams: int
    users: int


FULL = Scale(orgs=4, teams=10, users=1000)
SMOKE = Scale(orgs=4, teams=4, users=100)


def keypair(role: str, index: int) -> KeyPair:
    """The deterministic key pair of one principal (``role`` in org, team,
    user, proxy, admin)."""
    return KeyPair.generate(f"bench-{role}-{index}")


def org_of(scale: Scale, user: int) -> int:
    return team_of(scale, user) % scale.orgs


def team_of(scale: Scale, user: int) -> int:
    return user % scale.teams


def request_attributes(scale: Scale, user: int) -> dict[str, str]:
    """The PEP-supplied subject attributes of a request by ``user``'s proxy."""
    return {"app_domain": "grid", "vo": f"o{org_of(scale, user)}",
            "group": f"t{team_of(scale, user)}", "subject": f"u{user}"}


def proxy_credential(user_pair: KeyPair, proxy_key: str,
                     serial: int) -> str:
    """A user's (renewable) proxy credential; ``serial`` makes each renewal
    a distinct signed assertion."""
    credential = Credential.build(
        user_pair.public.encode(), f'"{proxy_key}"',
        " || ".join(f'op=="{op}"' for op in PROXY_OPS),
        comment=f"proxy {serial}")
    return credential.sign(user_pair.private).to_text()


def role_credential(user_key: str, role: str) -> str:
    """The KeyCom administrator's Figure 8 credential proving membership of
    ``user_key`` in ``role``."""
    admin = keypair("admin", 0)
    credential = Credential.build(
        admin.public.encode(), f'"{user_key}"',
        f'app_domain=="WebCom" && Domain=="{KEYCOM_DOMAIN}" '
        f'&& Role=="{role}"')
    return credential.sign(admin.private).to_text()


def build_assertions(scale: Scale) -> tuple[list[str], list[str], dict]:
    """(policy texts, credential texts, public keys) of the universe."""
    orgs = [keypair("org", i) for i in range(scale.orgs)]
    teams = [keypair("team", i) for i in range(scale.teams)]
    users = [keypair("user", i) for i in range(scale.users)]
    proxies = [keypair("proxy", i).public.encode()
               for i in range(scale.users)]
    admin = keypair("admin", 0).public.encode()
    policies = [
        "Authorizer: POLICY\nLicensees: "
        + " || ".join(f'"{o.public.encode()}"' for o in orgs)
        + '\nConditions: app_domain=="grid";\n',
        f'Authorizer: POLICY\nLicensees: "{admin}"\n'
        f'Conditions: app_domain=="WebCom";\n',
    ]
    credentials = []
    for t, team in enumerate(teams):
        org = orgs[t % scale.orgs]
        credentials.append(Credential.build(
            org.public.encode(), f'"{team.public.encode()}"',
            f'vo=="o{t % scale.orgs}" && group=="t{t}" '
            f'&& (op != "run" || job ~= "{JOB_REGEX}")',
        ).sign(org.private).to_text())
    for u, user in enumerate(users):
        team = teams[team_of(scale, u)]
        credentials.append(Credential.build(
            team.public.encode(), f'"{user.public.encode()}"',
            f'subject=="u{u}"').sign(team.private).to_text())
    for u, user in enumerate(users):
        credentials.append(proxy_credential(user, proxies[u], 0))
    return policies, credentials, {"proxies": proxies, "admin": admin}


def source_digest(checkout: Path, scale: Scale) -> str:
    """Digest of everything the installed root depends on."""
    digest = hashlib.sha256(repr(scale).encode())
    files = sorted((checkout / "src").rglob("*.py"))
    for path in [*files, Path(__file__)]:
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


@dataclass
class Universe:
    scale: Scale
    root: Path           # installed durability root (copy before use)
    proxies: list[str]   # encoded proxy keys, by user index
    proxy_texts: list[str]  # the installed proxy credential, by user index

    def copy_root(self, into: Path) -> Path:
        target = Path(tempfile.mkdtemp(prefix="root-", dir=into))
        shutil.copytree(self.root, target, dirs_exist_ok=True)
        return target


def load_or_install(checkout: Path, scale: Scale, install) -> Universe:
    """Return the cached universe for this code version, installing it with
    ``install(root, policies, credentials)`` (over the wire) when absent."""
    build = checkout / ".bench_build"
    prefix = f"universe-{scale.users}-"
    cache = build / (prefix + source_digest(checkout, scale))
    meta_path = cache / "universe.json"
    if not meta_path.exists():
        policies, credentials, keys = build_assertions(scale)
        build.mkdir(parents=True, exist_ok=True)
        for stale in build.glob(prefix + "*"):
            shutil.rmtree(stale, ignore_errors=True)
        staging = Path(tempfile.mkdtemp(prefix="staging-", dir=build))
        install(staging / "root", policies, credentials)
        meta = {"proxies": keys["proxies"],
                "proxy_texts": credentials[-scale.users:]}
        (staging / "universe.json").write_text(json.dumps(meta))
        os.replace(staging, cache)
    meta = json.loads(meta_path.read_text())
    return Universe(scale, cache / "root", meta["proxies"],
                    meta["proxy_texts"])
