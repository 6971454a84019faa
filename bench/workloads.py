"""The four traffic mixes, built from a seed before any timing starts.

Each :class:`Traffic` method returns :class:`~loadgen.Item` objects whose
frames are already encoded and whose expected verdicts come from the
universe's construction: ``submit``/``status`` by a proxy are allowed and ``admin`` is denied; ``run``
is allowed exactly when its ``job`` matches the org credential's regex.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass
from itertools import accumulate

from loadgen import Item, frame
from universe import (
    KEYCOM_DOMAIN,
    Universe,
    keypair,
    proxy_credential,
    request_attributes,
    role_credential,
)

HOT_OPS = ("submit", "status", "admin")


@dataclass(frozen=True)
class Workload:
    """``rate`` is the open-loop request rate; every ``renew_every``-th
    open-loop slot is a proxy renewal; ``closed_cap`` bounds the items
    pre-built per closed-loop second.  Why each exists: ``README.md``."""

    name: str
    read: str                 # "hot" or "cold"
    rate: float
    renew_every: int = 0
    keycom: bool = False
    closed_cap: int = 6000


WORKLOADS = {w.name: w for w in (
    Workload("hot_mediate", read="hot", rate=1000, closed_cap=3500),
    Workload("cold_delegation", read="cold", rate=400, closed_cap=3000),
    Workload("renewal_churn", read="hot", rate=400, renew_every=40,
             closed_cap=4000),
    Workload("keycom_admin", read="hot", rate=50, keycom=True),
)}


class Traffic:
    """Seeded item factory over one universe."""

    def __init__(self, universe: Universe, seed: int) -> None:
        self.universe = universe
        self.users = universe.scale.users
        self.seed = seed
        self.rng = random.Random(seed)
        self.count = 0
        ranked = list(range(self.users))
        self.rng.shuffle(ranked)
        self.zipf_users = ranked
        self.zipf_cum = list(accumulate(1.0 / (k + 1)
                                        for k in range(self.users)))
        self.renew_order = list(range(self.users))
        self.rng.shuffle(self.renew_order)
        self.current_proxy = list(universe.proxy_texts)
        self.renewals = 0
        self.hot_keys: dict[tuple[int, str], None] = {}

    def _id(self) -> str:
        self.count += 1
        return f"s{self.seed}-{self.count}"

    def _mediate(self, user: int, op: str, extra: dict, allowed: bool,
                 method: str) -> Item:
        params = {"user": f"u{user}",
                  "user_key": self.universe.proxies[user],
                  "object_type": "grid", "operation": op,
                  "attributes": {**request_attributes(self.universe.scale,
                                                      user), **extra}}
        expected = {"allowed": allowed}
        if method == "probe":
            expected["agree"] = True
        request_id = self._id()
        kind = "read" if method == "mediate" else method
        return Item(kind, [(request_id, frame(request_id, method, params),
                            expected)])

    def hot(self, method: str = "mediate") -> Item:
        draw = self.rng.random() * self.zipf_cum[-1]
        user = self.zipf_users[bisect.bisect_left(self.zipf_cum, draw)]
        op = self.rng.choice(HOT_OPS)
        self.hot_keys[user, op] = None
        return self._mediate(user, op, {}, op != "admin", method)

    def cold(self, method: str = "mediate") -> Item:
        user = self.rng.randrange(self.users)
        malformed = self.rng.random() < 0.25
        job = f"job-{self.count}" + ("x" if malformed else "")
        return self._mediate(user, "run", {"job": job}, not malformed,
                             method)

    def read(self, workload: Workload) -> Item:
        return self.hot() if workload.read == "hot" else self.cold()

    def renewal(self) -> Item:
        """Add the user's next proxy credential, then revoke the current
        one: the proxy stays authorised throughout."""
        user = self.renew_order[self.renewals % self.users]
        self.renewals += 1
        old = self.current_proxy[user]
        new = proxy_credential(keypair("user", user),
                               self.universe.proxies[user],
                               serial=self.seed * 100000 + self.renewals)
        self.current_proxy[user] = new
        add_id, revoke_id = self._id(), self._id()
        return Item("renew", [
            (add_id, frame(add_id, "add_credential", {"text": new}),
             {"added": True}),
            (revoke_id, frame(revoke_id, "revoke", {"text": old}),
             {"revoked": True}),
        ])

    def keycom(self) -> Item:
        """One Figure 8 install of a proxy key into a fresh role."""
        user = self.rng.randrange(self.users)
        request_id = self._id()
        role = f"role-{request_id}"
        key = self.universe.proxies[user]
        params = {"user": f"u{user}", "user_key": key,
                  "domain": KEYCOM_DOMAIN, "role": role,
                  "credentials": [role_credential(key, role)],
                  "request_id": request_id}
        return Item("keycom", [(request_id,
                                frame(request_id, "update", params),
                                {"applied": True})])

    def mixed(self, workload: Workload, slot: int) -> Item:
        if workload.renew_every and slot % workload.renew_every \
                == workload.renew_every - 1:
            return self.renewal()
        return self.read(workload)

    def open_schedule(self, workload: Workload, seconds: float,
                      conns: int) -> list[tuple[int, int, Item]]:
        """``(offset_ns, connection, item)`` at the workload's fixed rate."""
        interval = 1e9 / workload.rate
        slots = int(workload.rate * seconds)
        return [(int(k * interval), k % conns, self.mixed(workload, k))
                for k in range(slots)]

    def prewarm(self) -> list[Item]:
        """One read per distinct hot request built so far, so the timed
        phases find each of them in the mediation cache."""
        return [self._mediate(user, op, {}, op != "admin", "mediate")
                for user, op in self.hot_keys]

    def probes(self, count: int) -> list[Item]:
        """Oracle probes over both read shapes (allows and denials)."""
        return [self.hot("probe") if k % 2 else self.cold("probe")
                for k in range(count)]
