"""The KeyNote compliance checker (RFC 2704 section 5).

Given an *action attribute set*, the *action authorizers* (the keys that made
the request) and a set of assertions (policy + signed credentials), compute
the request's compliance value: the most-trusted value the POLICY principal
can be shown to assign to the requesters.

Semantics.  The value of an assertion ``(A, L, C)`` for a given request is::

    val(A, L, C) = meet( C(action attributes),
                         L evaluated over principal values )

where a principal ``k``'s value is ``_MAX_TRUST`` if ``k`` is one of the
action authorizers, and otherwise the join over all assertions authored by
``k`` of their values (delegation).  The request's compliance value is the
join over all POLICY assertions of their values.  The computation is a
monotone fixpoint over a finite lattice; we evaluate it by memoised
depth-first search where principals on the current path evaluate to
``_MIN_TRUST`` (cycles cannot raise trust — delegation loops grant nothing).
The reference semantics live in
:func:`~repro.oracle.keynote_oracle.oracle_compliance_value`.

Hot-path machinery (the authorisation fast path):

- construction precompiles every assertion's Conditions program
  (:func:`~repro.keynote.eval.compile_conditions`) and canonicalises its
  authorizer once — per-query work is only the fixpoint itself.  A
  program keeps its closures, and credentials cut from one template share
  one shape and its closures
  (:data:`~repro.keynote.credential.PROGRAMS`), each evaluated against
  the credential's own binding;
- *deferred signature checks*: in non-strict mode construction resolves
  each signed credential's key but does not verify it.  The fixpoint checks
  an assertion (through the process-wide signature cache) the first time
  its conditions rise above the minimum, before reading its licensees; an
  assertion whose conditions give the minimum contributes the minimum
  whatever its signature, so skipping the check there changes no value.  A
  bad assertion leaves the index and stays held as
  :attr:`ComplianceChecker.discarded`, exactly as if construction had
  dropped it, and :meth:`ComplianceChecker.verify_pending` settles the rest
  in the background.  :meth:`ComplianceChecker.add_assertion` defers too
  when asked; strict mode and request-scoped assertions check eagerly;
- a *decision cache* memoises full query outcomes by (relevant attribute
  projection, canonical authorizer set, value set).  Values computed under a
  live cycle-break assumption are never cached (unless maximal, which
  monotonicity makes safe) — mirroring the in-query memo's taint rule.  An
  entry is kept small, since a daemon holds one per distinct request: the
  projection is only the attribute values, in the order of the referenced
  names (which a full flush guards, see below), and the entry carries its
  own dependencies in one tuple;
- *validation on read*: every cached decision carries the generation it
  was computed at and one dependency tuple: the canonical principals whose
  delegation sub-graphs the fixpoint descended and weak references to the
  prepared assertions whose conditions it evaluated (weak, so a revoked
  credential is freed at once, not when the last decision that read it
  leaves the cache).  A mutation only marks what it changed:
  :meth:`ComplianceChecker.add_assertion` stamps the new assertion's
  authorizer bucket with the new generation, and the last-copy
  :meth:`ComplianceChecker.revoke_assertion` leaves the prepared entry dead
  (``count == 0``, or freed).  A read drops an entry one of whose
  principals was stamped after it, or one of whose assertions is dead
  (counted as ``selective_evictions``), so a mutation costs O(1) however
  many decisions depend on it.  Soundness rests on monotonicity: an assertion
  authored by principal ``P`` can influence a decision only through
  ``principal_value(P)``, so a decision whose fixpoint never touched ``P``
  is unchanged by any mutation of ``P``'s assertions.  Every short-circuit
  in the search (max-join break, minimum-conditions skip, a licensee
  ``||`` stopped at the top rank) prunes only reads that cannot move a
  value already at its cap, so the recorded set covers every read the
  value depends on.  When a mutation changes the shape of the
  referenced-attribute projection (the cache key function itself), the
  checker falls back to a conservative full flush (counted as
  ``full_flushes``);
- *bounded memory*: the decision cache and the canonicalisation memo are
  least-recently-used maps (:class:`~repro.util.lru.LRUCache`) of at most
  :data:`DECISION_CACHE_SIZE` and :data:`CANON_CACHE_SIZE` entries, since
  proxy credentials and fresh attribute values make their key spaces
  unbounded; an evicted decision costs one fixpoint when it comes back.
  A stored key's attribute values are interned, so a thousand keys share
  one copy of each repeated value;
- *guard-indexed delegation*: each principal's admitted assertions sit in
  one bucket indexed by their program's equality guard
  (:attr:`CompiledConditions.guard <repro.keynote.eval.CompiledConditions.guard>`),
  an ``attribute == "literal"`` conjunct every top-level clause shares.
  The fixpoint reads a principal's unguarded assertions plus, for each
  guarded attribute, only those whose literal equals the request's value:
  every other one is worth the minimum, so skipping it changes no join and
  needs no dependency record (a decision that never read it cannot depend
  on it).  A team key signing one ``subject=="uN"`` credential per member
  costs one read per decision, not one per member;
- *request-scoped credentials*: ``query(..., extra=...)`` verifies and
  compiles only the presented assertions and overlays them on the admitted
  ones for a single fixpoint.  Such a query bypasses the decision cache in
  both directions (a cached DENY must not hide a grant a presented
  credential proves) and leaves no trace in the checker.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from itertools import chain, count
from operator import attrgetter
from sys import intern
from typing import (
    TYPE_CHECKING,
    Callable,
    Iterable,
    Iterator,
    Mapping,
    Sequence,
)
from weakref import ref

from repro.crypto.keystore import Keystore
from repro.errors import ComplianceError, CredentialError, KeyNoteSyntaxError
from repro.keynote.credential import Credential
from repro.keynote.eval import CompiledConditions, compile_conditions
from repro.keynote.licensees import Principal
from repro.keynote.values import DEFAULT_VALUE_SET, ComplianceValueSet
from repro.util.lru import LRUCache

if TYPE_CHECKING:  # pragma: no cover
    from repro.crypto.keys import PublicKey
    from repro.obs.metrics import Counter, Histogram, MetricsRegistry

#: cached decisions a checker keeps, least recently used out first: above
#: the working set of a daemon fed cache-busting traffic for seconds (an 8 s
#: cold_delegation bench run ends near 10.6k entries), not for hours
DECISION_CACHE_SIZE = 16384
#: principal -> canonical id memo entries a checker keeps (requesters are
#: remote keys, so this too grows with traffic)
CANON_CACHE_SIZE = 8192


@dataclass
class ComplianceStats:
    """Profiling counters for the delegation-graph search.

    ``memo_hits`` / ``memo_misses`` count memo-table lookups; ``max_depth``
    is the deepest delegation chain the fixpoint descended;
    ``cycles_broken`` how often a principal on the current path was cut to
    minimum trust.
    """

    queries: int = 0
    memo_hits: int = 0
    memo_misses: int = 0
    assertions_visited: int = 0
    max_depth: int = 0
    cycles_broken: int = 0

    def merge(self, other: "ComplianceStats") -> None:
        """Accumulate another stats block into this one."""
        self.queries += other.queries
        self.memo_hits += other.memo_hits
        self.memo_misses += other.memo_misses
        self.assertions_visited += other.assertions_visited
        self.max_depth = max(self.max_depth, other.max_depth)
        self.cycles_broken += other.cycles_broken

    def reset(self) -> None:
        """Zero every counter."""
        self.queries = 0
        self.memo_hits = 0
        self.memo_misses = 0
        self.assertions_visited = 0
        self.max_depth = 0
        self.cycles_broken = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "queries": self.queries,
            "memo_hits": self.memo_hits,
            "memo_misses": self.memo_misses,
            "assertions_visited": self.assertions_visited,
            "max_depth": self.max_depth,
            "cycles_broken": self.cycles_broken,
        }


class _Prepared:
    """One presented assertion with its per-checker precomputed state.

    ``verified`` is its signature verdict: True (good, or nothing to
    check), False (bad: the entry is in no bucket) or None (pending).  A
    pending entry carries the ``signer`` its credential resolved to at
    admission
    (:meth:`Credential.signer <repro.keynote.credential.Credential.signer>`).
    ``key`` is the canonical authorizer whose bucket holds the entry,
    ``seq`` its admission order and ``count`` how many times the
    credential was added and not revoked: one entry stands for every copy
    of an equal credential, and an entry whose count reached 0 is dead —
    every cached decision that read it fails validation.
    """

    __slots__ = ("credential", "compiled", "signer", "verified", "key",
                 "seq", "count", "__weakref__")

    def __init__(self, credential: Credential,
                 compiled: "CompiledConditions | None",
                 signer: "PublicKey | str | None" = None) -> None:
        self.credential = credential
        self.compiled = compiled
        self.signer = signer
        self.verified: "bool | None" = None if signer is not None else True
        self.key = ""
        self.seq = 0
        self.count = 1


_admission_order = attrgetter("seq")


class _Bucket:
    """One principal's admitted assertions, indexed by equality guard:
    ``unguarded`` entries, plus ``guarded[attribute][literal]`` for the
    entries whose program is the minimum unless ``attribute`` reads
    ``literal``.

    Fixpoints read buckets without the mutation lock, so a list grows
    only by an in-place append (an iterator then sees the new entry or
    stops before it, never skips one) and is replaced, not edited, when
    an entry leaves; ``guarded`` itself is replaced whenever an attribute
    key comes or goes, since fixpoints iterate it.

    ``stamp`` is the generation at which an assertion was last admitted
    here: a cached decision older than it may have missed that assertion.
    """

    __slots__ = ("unguarded", "guarded", "stamp")

    def __init__(self) -> None:
        self.unguarded: list[_Prepared] = []
        self.guarded: dict[str, dict[str, list[_Prepared]]] = {}
        self.stamp = 0

    def __iter__(self) -> Iterator[_Prepared]:
        yield from self.unguarded
        for by_literal in self.guarded.values():
            for entries in by_literal.values():
                yield from entries

    def __bool__(self) -> bool:
        return bool(self.unguarded or self.guarded)

    def candidates(self, attributes: Mapping[str, str],
                   ) -> "list[list[_Prepared]]":
        """The entries a request with ``attributes`` must read, in
        admission order: every other entry's program is the minimum for
        it.  A value that is not a string never equals a non-numeric
        literal in a KeyNote test, so it selects no guarded entry.

        The reads are exactly the unindexed scan with the skipped entries
        left out, so the running join, the max-value break and any
        evaluation error fall where they would without the index."""
        lists = [self.unguarded] if self.unguarded else []
        for name, by_literal in self.guarded.items():
            value = attributes.get(name, "")
            hits = by_literal.get(value) if isinstance(value, str) else None
            if hits:
                lists.append(hits)
        if len(lists) > 1:
            return [sorted(chain.from_iterable(lists), key=_admission_order)]
        return lists

    def add(self, prepared: _Prepared) -> None:
        guard = prepared.compiled.bound_guard(  # type: ignore[union-attr]
            prepared.credential.binding)
        if guard is None:
            self.unguarded.append(prepared)
            return
        name, literal = guard
        by_literal = self.guarded.get(name)
        if by_literal is None:
            self.guarded = {**self.guarded, name: {literal: [prepared]}}
        else:
            by_literal.setdefault(literal, []).append(prepared)

    def remove(self, prepared: _Prepared) -> None:
        guard = prepared.compiled.bound_guard(  # type: ignore[union-attr]
            prepared.credential.binding)
        if guard is None:
            self.unguarded = [entry for entry in self.unguarded
                              if entry is not prepared]
            return
        name, literal = guard
        by_literal = self.guarded[name]
        kept = [entry for entry in by_literal[literal]
                if entry is not prepared]
        if kept:
            by_literal[literal] = kept
        elif len(by_literal) > 1:
            del by_literal[literal]
        else:
            self.guarded = {other: entries for other, entries
                            in self.guarded.items() if other != name}


class ComplianceChecker:
    """Evaluates queries against a (mutable) set of assertions.

    :param assertions: policy assertions and signed credentials.
    :param keystore: used to resolve symbolic principals when verifying
        signatures; optional if all principals are encoded keys.
    :param verify_signatures: if True (default), signed credentials with
        missing/invalid signatures are rejected.
    :param strict: if True, a bad signature raises
        :class:`~repro.errors.CredentialError` at construction; if False
        (RFC behaviour) the assertion is silently discarded — when the
        fixpoint first needs it, or when :meth:`verify_pending` reaches it.
        A non-strict construction also discards an assertion whose
        Conditions do not compile (a trust store journalled before the
        compiler refused them may hold one), rather than raising
        :class:`~repro.errors.KeyNoteSyntaxError`.
    :param metrics: optional :class:`~repro.obs.metrics.MetricsRegistry`;
        when set, the per-query profile (memo hits/misses, assertions
        visited, fixpoint depth) is mirrored into ``keynote.*`` metrics and
        decision-cache traffic into ``keynote.cache.hit`` / ``.miss``.

    Whole query outcomes are memoised in a bounded decision cache.  Safe
    by construction: the cache key covers every attribute any assertion
    can read, the canonical authorizer set and the value set;
    :meth:`add_assertion` / :meth:`revoke_assertion` bump :attr:`generation`
    and mark what they changed, and a read drops an entry whose recorded
    dependencies were marked after it was computed.

    The assertion set is a multiset keyed by credential value: adding an
    equal credential again only counts a copy, and it takes as many
    revokes as adds to remove it.  Every mutation costs time in the one
    assertion it touches, not in the size of the set.

    Profiling: :attr:`stats` accumulates over the checker's lifetime and
    :attr:`last_query_stats` holds the profile of the most recent
    :meth:`query` alone; :attr:`cache_hits` / :attr:`cache_misses` count
    decision-cache traffic: a hit is a value served by :meth:`query` or
    :meth:`cached_decision`, a miss a fixpoint run.
    """

    def __init__(self, assertions: Iterable[Credential],
                 keystore: Keystore | None = None,
                 verify_signatures: bool = True,
                 strict: bool = False,
                 metrics: "MetricsRegistry | None" = None) -> None:
        self.keystore = keystore
        self.verify_signatures = verify_signatures
        self.strict = strict
        self.metrics = metrics
        self.stats = ComplianceStats()
        self.last_query_stats: "ComplianceStats | None" = None
        #: every presented assertion by value (admitted, pending or
        #: discarded: ``verified`` False), in first-added order; admitted
        #: ones also sit in their authorizer's bucket
        self._assertions: dict[Credential, _Prepared] = {}
        #: copies held, by ``is_policy``
        self._copies = {True: 0, False: 0}
        #: canonical principal -> its admitted assertions
        self._buckets: dict[str, _Bucket] = {}
        self._canon_cache: LRUCache[str, str] = LRUCache(CANON_CACHE_SIZE)
        #: decision key -> (compliance value, generation it was computed
        #: at, dependencies: the canonical principals whose sub-graphs the
        #: fixpoint descended and weak references to the prepared
        #: assertions whose conditions it evaluated)
        self._decision_cache: LRUCache[tuple, tuple[str, int, tuple]] = \
            LRUCache(DECISION_CACHE_SIZE)
        #: serialises assertion-set mutation against decision-cache traffic;
        #: concurrent serve handlers (or threaded harnesses) may interleave
        #: query with add/revoke, and a torn generation bump could otherwise
        #: let a stale ALLOW be re-cached as fresh
        self._mutation_lock = threading.RLock()
        self._generation = 0
        self.cache_hits = 0
        self.cache_misses = 0
        #: cached decisions dropped on read because a dependency moved
        self.selective_evictions = 0
        self.full_flushes = 0
        #: the referenced-attribute projection as a multiset: attribute ->
        #: number of admitted programs reading it, plus the number of
        #: programs whose ``$`` dereference makes the read set dynamic
        self._attribute_refs: dict[str, int] = {}
        self._dynamic_programs = 0
        #: the decision-cache key shape: the referenced attributes, whose
        #: values (in this order) key a decision, or None while some program
        #: is dynamic (keys hold every (name, value) pair).  Any change to
        #: it flushes the cache, so keys built for two shapes never meet.
        self._referenced_key: "tuple[str, ...] | None" = ()
        #: id -> admitted entry whose signature check is still deferred,
        #: oldest first
        self._pending: dict[int, _Prepared] = {}
        #: the order :meth:`verify_pending` settles them in, built on its
        #: first call and emptied once that backlog is drained
        self._backfill_order: "Iterator[_Prepared] | None" = None
        self._admissions = count()
        #: metric name -> counter, bound on first use (a counter that
        #: never counts stays out of the registry)
        self._counters: dict[str, "Counter"] = {}
        self._depth: "Histogram | None" = None
        #: called (outside the lock) after :meth:`add_assertion` leaves an
        #: admitted assertion's signature check pending, so an idle
        #: backfill knows there is work again
        self.on_deferred: "Callable[[], None] | None" = None
        for assertion in assertions:
            self._admit(assertion, lazy=not strict,
                        discard_uncompiled=not strict)

    # -- assertion-set management ---------------------------------------------

    @property
    def generation(self) -> int:
        """Bumped whenever the assertion set changes: a mutation epoch the
        in-flight store guard, decision validation and session fingerprints
        key on.  It does not flush the decision cache — a read drops only
        the entries whose dependencies moved."""
        return self._generation

    @property
    def assertions(self) -> list[Credential]:
        """Every assertion presented and not revoked — admitted, pending or
        discarded — each as many times as it was added (a read-only copy)."""
        with self._mutation_lock:
            return [held.credential for held in self._assertions.values()
                    for _ in range(held.count)]

    @property
    def discarded(self) -> list[Credential]:
        """The held assertions found bad so far (non-strict mode): dropped
        at admission, or when their deferred signature check failed, each
        as many times as it was added and not revoked.  Once
        :meth:`verify_pending` returns 0 this is every bad assertion."""
        with self._mutation_lock:
            return [held.credential for held in self._assertions.values()
                    if held.verified is False for _ in range(held.count)]

    def __contains__(self, assertion: object) -> bool:
        """Whether a copy of ``assertion`` is held, discarded or not."""
        return assertion in self._assertions

    def copies(self) -> tuple[int, int]:
        """Copies held: (POLICY assertions, signed credentials)."""
        return self._copies[True], self._copies[False]

    def verify_pending(self, limit: int | None = None) -> int:
        """Run up to ``limit`` (default: all) of the deferred signature
        checks; returns how many remain.

        Each check is exactly the one the fixpoint would run on first read,
        so calling this never changes a decision — it only moves the cost
        off the request path (the daemon calls it while idle).  The
        backlog of the first call runs in delegation order
        (:meth:`_delegation_order`); once it is drained, entries admitted
        later run oldest first, since ordering one or two new entries would
        walk every assertion again.
        """
        done = 0
        while limit is None or done < limit:
            prepared = self._next_pending()
            if prepared is None:
                break
            self._settle(prepared)
            done += 1
        with self._mutation_lock:
            if not self._pending:
                # Let go of the order: its list holds every entry it
                # listed, revoked ones included, until it is exhausted.
                self._backfill_order = iter(())
            return len(self._pending)

    def _next_pending(self) -> "_Prepared | None":
        with self._mutation_lock:
            if not self._pending:
                return None
            if self._backfill_order is None:
                self._backfill_order = iter(self._delegation_order())
            for prepared in self._backfill_order:
                if id(prepared) in self._pending:
                    return prepared
            # Entries no chain from POLICY reaches: oldest first.
            return next(iter(self._pending.values()))

    def _delegation_order(self) -> list[_Prepared]:
        """Pending entries depth first from POLICY along licensee edges —
        the order the fixpoint reads them.  A request stops paying for
        inline checks only once its whole chain is checked, so finishing
        chains one at a time frees requests sooner than admission order,
        which may check every first hop before any second one."""
        order: list[_Prepared] = []
        visited = {"POLICY"}
        stack = [iter(self._buckets.get("POLICY", ()))]
        while stack:
            prepared = next(stack[-1], None)
            if prepared is None:
                stack.pop()
                continue
            if prepared.verified is None:
                order.append(prepared)
            for principal in sorted(prepared.credential.principals(),
                                    reverse=True):
                key = self._canonical(principal)
                if key not in visited:
                    visited.add(key)
                    stack.append(iter(self._buckets.get(key, ())))
        return order

    def add_assertion(self, assertion: Credential,
                      defer: bool = False) -> bool:
        """Admit one more assertion; bumps the generation.

        Returns True if the assertion was admitted (False when its signature
        was rejected in non-strict mode).  With ``defer`` a non-strict
        checker resolves the signer only, as construction does: the check
        waits for the first read or :meth:`verify_pending`, and a pending
        assertion counts as admitted (and :attr:`on_deferred` is called).
        The authorizer's bucket is stamped with the new generation, so only
        the cached decisions whose
        fixpoint visited that principal fail validation — decisions that
        never descended into its sub-graph cannot change (monotonicity) and
        survive.  Adding a copy of an assertion already present marks
        nothing: the set of values the fixpoint joins is unchanged.

        :raises CredentialError: for a bad signature in strict mode.
        :raises KeyNoteSyntaxError: when its Conditions do not compile.
        """
        lazy = defer and not self.strict
        with self._mutation_lock:
            old_shape = self._referenced_key
            held = self._admit(assertion, lazy)
            if held.verified is None and not lazy:
                # A copy of an entry whose deferred check has not run yet:
                # this path checks eagerly.
                self._settle(held)
            admitted = held.verified is not False
            if admitted and held.count == 1:
                if self._referenced_key != old_shape:
                    # The cache key function itself changed; validation
                    # cannot address old-projection entries.
                    self._full_flush_on_churn()
                self._buckets[held.key].stamp = self._generation + 1
            self._bump_generation()
        if held.verified is None and self.on_deferred is not None:
            self.on_deferred()
        return admitted

    def revoke_assertion(self, assertion: Credential) -> bool:
        """Remove one copy of a held assertion (admitted, pending or
        discarded).  Returns True, and bumps the generation, when the copy
        was admitted or pending: only such a revoke can change a decision.
        A discarded copy is in no bucket, so it just leaves the store and
        the answer is False.

        Removing the last copy leaves the prepared entry dead, so only the
        decisions whose fixpoint evaluated it fail validation — revocation
        propagates through the delegation graph exactly as far as their
        dependencies recorded, and unrelated warm decisions survive.  No
        dependent is visited: the cost is O(1) however many there are.  The
        entry is found by value and leaves only its own guard list, so the
        cost does not grow with the assertion set either.  While other
        copies remain nothing is marked.

        Ordering (pinned by test): the entry is marked dead and the
        generation bumped *before* it leaves its bucket and before the
        memoised ``_canonical`` / referenced-attribute state is updated,
        all inside the mutation lock — a concurrent :meth:`query` either
        sees the fully-old state (and its epoch-guarded store refuses to
        cache) or the fully-new one; it can never hit a stale entry for a
        half-applied delta.  The bucket list is replaced, not edited, so a
        fixpoint iterating it reads the old set to the end.
        """
        with self._mutation_lock:
            held = self._assertions.get(assertion)
            if held is None:
                return False
            held.count -= 1  # at 0 this marks the entry dead
            self._copies[assertion.is_policy] -= 1
            if held.verified is False:
                if not held.count:
                    del self._assertions[assertion]
                return False
            self._bump_generation()
            if not held.count:
                old_shape = self._referenced_key
                del self._assertions[assertion]
                self._unindex(held)
                if self._referenced_key != old_shape:
                    self._full_flush_on_churn()
            return True

    def _prepare(self, assertion: Credential, lazy: bool = False,
                 discard_uncompiled: bool = False,
                 ) -> "_Prepared | None":
        """Verify (through the signature cache) and compile one assertion;
        None when its signature is rejected in non-strict mode, or with
        ``discard_uncompiled`` when its Conditions do not compile.

        With ``lazy`` only the signer is resolved here, so the verdict
        cannot depend on when the check runs (a key registered later does
        not rescue a credential); the key decode and the exponentiations
        wait in a pending entry.

        :raises CredentialError: for a bad signature in strict mode.
        :raises KeyNoteSyntaxError: when the Conditions do not compile and
            ``discard_uncompiled`` is False.
        """
        signer = None
        if self.verify_signatures and not assertion.is_policy:
            if lazy:
                signer = assertion.signer(self.keystore)
                valid = signer is not None
            else:
                valid = assertion.verify(self.keystore)
            if not valid:
                if self.strict:
                    raise CredentialError(
                        f"invalid signature on credential by "
                        f"{assertion.authorizer!r}")
                return None
        try:
            compiled = compile_conditions(assertion.shape)
        except KeyNoteSyntaxError:
            if not discard_uncompiled:
                raise
            return None
        return _Prepared(assertion, compiled, signer)

    def _admit(self, assertion: Credential, lazy: bool = False,
               discard_uncompiled: bool = False) -> _Prepared:
        """Count one more copy of ``assertion``, indexing it on first sight;
        returns its entry (``verified`` False when it was rejected).  A
        credential value gets one verdict per checker: a copy shares its
        entry's."""
        held = self._assertions.get(assertion)
        if held is not None:
            held.count += 1
            self._copies[assertion.is_policy] += 1
            return held
        prepared = self._prepare(assertion, lazy,
                                 discard_uncompiled)  # may raise
        self._copies[assertion.is_policy] += 1
        if prepared is None:
            held = _Prepared(assertion, None)
            held.verified = False
            self._assertions[assertion] = held
            return held
        self._assertions[assertion] = prepared
        prepared.key = self._canonical(assertion.authorizer)
        prepared.seq = next(self._admissions)
        bucket = self._buckets.get(prepared.key)
        if bucket is None:
            bucket = self._buckets[prepared.key] = _Bucket()
        bucket.add(prepared)
        if prepared.verified is None:
            self._pending[id(prepared)] = prepared
        self._count_attributes(prepared, 1)
        return prepared

    def _unindex(self, prepared: _Prepared) -> None:
        """Take an admitted entry out of its bucket, the pending set and
        the referenced-attribute projection."""
        bucket = self._buckets[prepared.key]
        bucket.remove(prepared)
        if not bucket:
            del self._buckets[prepared.key]
        self._pending.pop(id(prepared), None)
        self._count_attributes(prepared, -1)

    def _settle(self, prepared: _Prepared) -> bool:
        """The signature verdict of an admitted entry, running its deferred
        check on first use.  A bad entry stays held as :attr:`discarded`
        and leaves its bucket, retracting its attributes as a revoke
        does.  No decision needs eviction: the check is deterministic, so
        every decision that read the entry saw this verdict, and every
        other one never depended on it — unless the key shape changed,
        which flushes as a revoke would."""
        if prepared.verified is not None:
            return prepared.verified
        verdict = self._peek(prepared)
        with self._mutation_lock:
            pending = self._pending.pop(id(prepared), None)
            prepared.verified = verdict
            if pending is not None and not verdict:
                old_shape = self._referenced_key
                self._unindex(prepared)
                if self._referenced_key != old_shape:
                    self._full_flush_on_churn()
        return verdict

    @staticmethod
    def _peek(prepared: _Prepared) -> bool:
        """The signature verdict without recording it: what overlay
        queries use, since they must leave no trace in the checker."""
        verdict = prepared.verified
        if verdict is None:
            assert prepared.signer is not None
            verdict = prepared.credential.verify_as(prepared.signer)
        return verdict

    def _count_attributes(self, prepared: _Prepared, delta: int) -> None:
        """Add (``delta`` 1) or retract (-1) one program's reads in the
        referenced-attribute multiset, rebuilding the key shape only when
        a count crosses zero."""
        crossed = 1 if delta > 0 else 0  # a count left here crossed zero
        names = prepared.compiled.referenced_attributes()  # type: ignore[union-attr]
        if names is None:
            self._dynamic_programs += delta
            changed = self._dynamic_programs == crossed
        else:
            changed = False
            refs = self._attribute_refs
            for name in names:
                readers = refs.get(name, 0) + delta
                if readers:
                    refs[name] = readers
                else:
                    del refs[name]
                changed |= readers == crossed
        if changed:
            self._referenced_key = (None if self._dynamic_programs
                                    else tuple(sorted(self._attribute_refs)))

    def _bump_generation(self) -> None:
        with self._mutation_lock:
            self._generation += 1
            # Canonicalisation may change too (e.g. a key registered since).
            self._canon_cache.clear()

    def _full_flush_on_churn(self) -> None:
        """Conservative fallback when a delta invalidates the cache *key
        function* (referenced-attribute projection shape changed); counted
        only when there was a cached decision to flush."""
        if self._decision_cache:
            self.full_flushes += 1
            self._count("keynote.cache.full_flush")
            self._decision_cache.clear()

    def clear_decision_cache(self) -> None:
        """Flush cached decisions without touching the assertion set (cold
        restart for benchmarks)."""
        with self._mutation_lock:
            self._decision_cache.clear()

    def cache_info(self) -> dict[str, int]:
        """Decision-cache statistics: size, generation, hit/miss counts and
        the eviction counters (``selective_evictions`` dropped on read as
        stale, ``evictions`` dropped to stay within
        :data:`DECISION_CACHE_SIZE`), plus signature-check progress:
        ``unverified`` admitted assertions whose check is still deferred,
        and the number ``discarded`` as bad so far."""
        with self._mutation_lock:
            return {"entries": len(self._decision_cache),
                    "generation": self._generation,
                    "hits": self.cache_hits,
                    "misses": self.cache_misses,
                    "selective_evictions": self.selective_evictions,
                    "evictions": self._decision_cache.evictions,
                    "full_flushes": self.full_flushes,
                    "unverified": len(self._pending),
                    "discarded": len(self.discarded)}

    def cached_decision(self, attributes: Mapping[str, str],
                        authorizers: Iterable[str],
                        values: ComplianceValueSet = DEFAULT_VALUE_SET,
                        ) -> "tuple[tuple, str | None]":
        """The decision key for a request and its currently cached value
        (None when absent, or when the entry failed validation and was
        dropped).  Never runs the fixpoint.  A value served counts as a
        cache hit, as in :meth:`query`: the authorisation stack takes its
        L2 verdict from here and calls :meth:`query` only on a miss, which
        counts the miss."""
        with self._mutation_lock:
            key = self._decision_key(
                attributes, self._requesters(authorizers, self._canonical),
                values)
            value = self._lookup(key)
        if value is not None:
            self.cache_hits += 1
            self._count("keynote.cache.hit")
        return key, value

    def _lookup(self, key: tuple) -> "str | None":
        """The valid cached value under ``key``, or None; a stale entry is
        dropped and counted.  Called under the mutation lock."""
        entry = self._decision_cache.get(key)
        if entry is None:
            return None
        value, generation, deps = entry
        if generation != self._generation and self._moved(generation, deps):
            self._decision_cache.pop(key)
            self.selective_evictions += 1
            self._count("keynote.cache.selective_evictions")
            return None
        return value

    def _moved(self, generation: int, deps: tuple) -> bool:
        """Whether a decision computed at ``generation`` over ``deps`` may
        differ now: a principal it descended into admitted an assertion
        since (its bucket's stamp is newer; a missing bucket reads as 0),
        or an assertion it read was revoked (dead: no copy left, or already
        freed)."""
        buckets = self._buckets
        for dep in deps:
            if dep.__class__ is str:
                bucket = buckets.get(dep)
                if bucket is not None and bucket.stamp > generation:
                    return True
            else:
                prepared = dep()
                if prepared is None or not prepared.count:
                    return True
        return False

    def _canonical(self, principal: str) -> str:
        """Canonical principal id, memoised per checker: symbolic names
        resolve to encoded keys when a keystore knows them, so "Kbob" and
        the encoded key unify.  The memo is flushed on generation bumps (a
        name may have been registered since); ids are interned, so every
        decision key holds one copy of each."""
        with self._mutation_lock:
            cached = self._canon_cache.get(principal)
            if cached is None:
                cached = intern(self._resolve(principal))
                self._canon_cache.put(principal, cached)
            return cached

    def _resolve(self, principal: str) -> str:
        """The canonicalisation rule itself, without the memo."""
        if principal.upper() == "POLICY":
            return "POLICY"
        if self.keystore is not None and principal in self.keystore:
            return self.keystore.public(principal).encode()
        return principal

    # -- queries ---------------------------------------------------------------

    def query(self, attributes: Mapping[str, str],
              authorizers: Iterable[str],
              values: ComplianceValueSet = DEFAULT_VALUE_SET,
              extra: Sequence[Credential] = ()) -> str:
        """Return the compliance value of a request.

        :param attributes: the action attribute set.
        :param authorizers: the key(s) that made the request.
        :param values: the ordered compliance-value set to evaluate against.
        :param extra: request-scoped assertions presented with this request
            alone.  They are verified and compiled under the admission rules
            (a bad signature raises in strict mode and is dropped otherwise)
            and overlaid on the admitted assertions for this one fixpoint,
            so the cost scales with ``extra``, not with the assertion set.
            Such a query leaves no trace: it neither reads nor writes the
            decision cache, records no dependencies, does not bump
            :attr:`generation` and adds nothing to :attr:`assertions`,
            :attr:`discarded` or the canonicalisation memo.
        """
        if extra:
            return self._query_overlay(attributes, authorizers, values, extra)
        return self._query(attributes, authorizers, values)

    def _decision_key(self, attributes: Mapping[str, str],
                      requesters: tuple[str, ...],
                      values: ComplianceValueSet) -> tuple:
        """The decision-cache key: the attribute projection that can
        influence a decision, then the canonical requesters and the value
        set, in one flat tuple (a daemon holds one key per distinct
        request).

        Only attributes some assertion reads are part of the key;
        unreferenced attributes (a ``_cur_time`` no credential tests, say)
        cannot change the outcome, so they must not fragment the cache.
        The key holds their values alone, in :attr:`_referenced_key` order:
        the names are the same for every key until the shape changes, and
        a shape change flushes the cache.  With a ``$`` dereference
        anywhere the read set is dynamic and the full attribute set is
        keyed as (name, value) pairs.  Either way the requesters and the
        value set are the last two items, so two keys are equal only when
        all three parts are.
        """
        referenced = self._referenced_key
        if referenced is None:
            key: list = sorted(attributes.items())
        else:
            key = [attributes.get(name, "") for name in referenced]
        key.append(requesters)
        key.append(values.values)
        return tuple(key)

    @staticmethod
    def _requesters(authorizers: Iterable[str],
                    canonical: "Callable[[str], str]") -> tuple[str, ...]:
        """The canonical authorizer set as a sorted tuple: the decision-key
        form, smaller than a frozenset and just as order-free."""
        return tuple(sorted({canonical(a) for a in authorizers}))

    def _query(self, attributes: Mapping[str, str],
               authorizers: Iterable[str],
               values: ComplianceValueSet) -> str:
        requesters = self._requesters(authorizers, self._canonical)
        if not requesters:
            raise ComplianceError("a query needs at least one action authorizer")
        with self._mutation_lock:
            cache_key = self._decision_key(attributes, requesters, values)
            cached = self._lookup(cache_key)
            cached_generation = self._generation
        if cached is not None:
            self.cache_hits += 1
            profile = ComplianceStats(queries=1)
            self.last_query_stats = profile
            self.stats.merge(profile)
            self._count("keynote.queries")
            self._count("keynote.cache.hit")
            return cached
        self.cache_misses += 1
        self._count("keynote.cache.miss")
        profile = ComplianceStats(queries=1)
        deps: set = set()
        try:
            rank = self._evaluate(attributes, requesters, values, profile,
                                  deps, self._canonical, None, self._settle)
        finally:
            self._record_profile(profile)
        result = values.values[rank]
        if profile.cycles_broken == 0 or rank == values.top:
            # The taint rule of the in-query memo, applied to whole
            # decisions: a value computed under a cycle-break assumption may
            # be an under-approximation and is never cached — unless it is
            # already the maximum, which monotonicity makes safe.
            with self._mutation_lock:
                if self._generation == cached_generation:
                    # A concurrent add/revoke bumped the generation while
                    # this fixpoint ran: the value was computed over an
                    # assertion set that no longer exists, so it must not
                    # seed the *fresh* cache.  (This also guarantees the
                    # dependencies below were live at ``cached_generation``.)
                    self._decision_cache.put(
                        _interned(cache_key),
                        (result, cached_generation, tuple(deps)))
        return result

    def _query_overlay(self, attributes: Mapping[str, str],
                       authorizers: Iterable[str],
                       values: ComplianceValueSet,
                       extra: Sequence[Credential]) -> str:
        """One uncached fixpoint over the admitted assertions plus
        ``extra`` (see :meth:`query`).

        Like a decision-cache miss, the fixpoint runs without the mutation
        lock; since nothing is cached, a racing add or revoke can only yield
        the answer from one side of the mutation.  Principals the memo does
        not know are canonicalised into a per-call table: presented keys
        come from remote callers, and the checker's own memo is only
        flushed on mutations."""
        local: dict[str, str] = {}

        def canonical(principal: str) -> str:
            resolved = local.get(principal)
            if resolved is None:
                resolved = (self._canon_cache.peek(principal)
                            or self._resolve(principal))
                local[principal] = resolved
            return resolved

        requesters = self._requesters(authorizers, canonical)
        if not requesters:
            raise ComplianceError("a query needs at least one action authorizer")
        overlay: dict[str, list[_Prepared]] = {}
        for assertion in extra:
            prepared = self._prepare(assertion)
            if prepared is not None:
                overlay.setdefault(canonical(assertion.authorizer),
                                   []).append(prepared)
        profile = ComplianceStats(queries=1)
        try:
            return values.values[self._evaluate(
                attributes, requesters, values, profile, set(), canonical,
                overlay, self._peek)]
        finally:
            self._record_profile(profile)

    def _record_profile(self, profile: ComplianceStats) -> None:
        self.last_query_stats = profile
        self.stats.merge(profile)
        if self.metrics is not None:
            self._record_metrics(profile)

    def _evaluate(self, attributes: Mapping[str, str],
                  requesters: tuple[str, ...], values: ComplianceValueSet,
                  profile: ComplianceStats,
                  deps: set,
                  canonical: "Callable[[str], str]",
                  overlay: "dict[str, list[_Prepared]] | None",
                  verdict: "Callable[[_Prepared], bool]") -> int:
        """One fixpoint run on ranks in ``values``; returns the request's
        rank.  ``overlay`` holds request-scoped assertions read after each
        principal's admitted ones, and ``verdict`` settles a pending
        signature check.

        The check runs after the conditions and before the licensees: an
        assertion whose conditions give the minimum adds the minimum to the
        join whatever its signature, and a team's ~100 user credentials
        are mostly pruned that way, so checking at first read would pay for
        signatures no decision needs.

        The search records into ``deps`` every canonical principal whose
        sub-graph it descended and a weak reference to every prepared
        assertion whose value it read — the dependencies validation on read
        later checks.  A
        guard-skipped assertion is not read and not recorded: it adds the
        minimum whatever it holds, so revoking it cannot change this
        decision, and adding a sibling stamps its principal.  Requester
        short-circuits are deliberately *not* recorded: a requester's own
        assertions are never read, so mutations of them cannot change this
        decision.

        Everything a visit reads per step is bound to a local once per run,
        and the profile counters are summed locally and added to
        ``profile`` when the run ends."""
        top = values.top
        buckets = self._buckets
        record = deps.add
        memo: dict[str, int] = {}
        in_progress: set[str] = set()
        # Values computed while a cycle-break assumption was live may be
        # under-approximations; `tainted` tracks that so they are never
        # memoised (a cached under-approximation could wrongly deny a later
        # sub-query).  A maximum value is always safe to cache: monotonicity
        # means the true value can only be >= the computed one.
        tainted = False
        memo_hits = memo_misses = visited = max_depth = cycles = 0

        def principal_rank(principal: str) -> int:
            nonlocal tainted, memo_hits, memo_misses, visited, max_depth
            nonlocal cycles
            if principal in requesters:
                return top
            # Recorded before the memo check: the first (miss) visit
            # records the principal, so later memo hits are covered.
            record(principal)
            result = memo.get(principal)
            if result is not None:
                memo_hits += 1
                return result
            memo_misses += 1
            if principal in in_progress:
                tainted = True
                cycles += 1
                return 0  # delegation cycles grant nothing
            outer_taint = tainted
            tainted = False
            in_progress.add(principal)
            if len(in_progress) > max_depth:
                max_depth = len(in_progress)
            result = 0
            try:
                bucket = buckets.get(principal)
                candidates = ([] if bucket is None
                              else bucket.candidates(attributes))
                if overlay:
                    presented = overlay.get(principal)
                    if presented:
                        candidates.append(presented)
                for entries in candidates:
                    for prepared in entries:
                        visited += 1
                        rank = assertion_rank(prepared)
                        if rank > result:
                            result = rank
                            if result == top:
                                break
                    if result == top:
                        break
            finally:
                in_progress.discard(principal)
            subtree_tainted = tainted
            if not subtree_tainted or result == top:
                memo[principal] = result
            tainted = outer_taint or subtree_tainted
            return result

        def assertion_rank(prepared: _Prepared) -> int:
            record(ref(prepared))
            conditions = prepared.compiled.rank(
                attributes, values, prepared.credential.binding)
            if not conditions:
                return 0
            if prepared.verified is not True and not verdict(prepared):
                return 0
            licensees = prepared.credential.licensees
            if licensees.__class__ is Principal:
                licensed = licensee_rank(licensees.key)
            else:
                licensed = licensees.rank(licensee_rank, top)
            return conditions if conditions < licensed else licensed

        def licensee_rank(principal: str) -> int:
            key = canonical(principal)
            if key in requesters:
                return top
            # Delegation: the licensee's own assertions must carry trust
            # onward to the requesters.
            return principal_rank(key)

        try:
            return principal_rank("POLICY")
        finally:
            profile.memo_hits += memo_hits
            profile.memo_misses += memo_misses
            profile.assertions_visited += visited
            profile.max_depth = max(profile.max_depth, max_depth)
            profile.cycles_broken += cycles

    def _count(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to counter ``name`` (when metrics are attached),
        asking the registry for it only the first time."""
        counter = self._counters.get(name)
        if counter is None:
            if self.metrics is None:
                return
            counter = self._counters[name] = self.metrics.counter(name)
        counter.inc(amount)

    def _record_metrics(self, profile: ComplianceStats) -> None:
        self._count("keynote.queries")
        self._count("keynote.memo.hit", profile.memo_hits)
        self._count("keynote.memo.miss", profile.memo_misses)
        self._count("keynote.assertions_visited", profile.assertions_visited)
        self._count("keynote.cycles_broken", profile.cycles_broken)
        depth = self._depth
        if depth is None:
            assert self.metrics is not None
            depth = self._depth = self.metrics.histogram(
                "keynote.fixpoint_depth")
        depth.observe(profile.max_depth)

    def authorises(self, attributes: Mapping[str, str],
                   authorizers: Iterable[str],
                   values: ComplianceValueSet = DEFAULT_VALUE_SET,
                   threshold: str | None = None) -> bool:
        """Boolean convenience: True if the compliance value reaches
        ``threshold`` (default: the maximum value)."""
        target = threshold if threshold is not None else values.maximum
        return values.at_least(self.query(attributes, authorizers, values),
                               target)


def _interned(key: tuple) -> tuple:
    """A decision key to store, its string attribute values interned: each
    request decodes its own copies of them, and the cache would otherwise
    keep one per key.  (Requesters are interned by
    :meth:`ComplianceChecker._canonical`; a lookup key is never stored, so
    it skips this.)"""
    return tuple([intern(part) if part.__class__ is str else part
                  for part in key])


def evaluate_query(assertions: Sequence[Credential],
                   attributes: Mapping[str, str],
                   authorizers: Iterable[str],
                   keystore: Keystore | None = None,
                   values: ComplianceValueSet = DEFAULT_VALUE_SET,
                   verify_signatures: bool = True,
                   strict: bool = False) -> str:
    """One-shot query without building a checker explicitly.

    ``strict`` behaves exactly as on :class:`ComplianceChecker`, so a
    one-shot query is indistinguishable from an explicitly built checker
    with the same options.  Signature
    verification rides the process-wide cache
    (:data:`~repro.crypto.keystore.SIGNATURE_CACHE`): repeated one-shot
    calls over the same credentials verify each signature once, not once
    per call.
    """
    checker = ComplianceChecker(assertions=list(assertions), keystore=keystore,
                                verify_signatures=verify_signatures,
                                strict=strict)
    return checker.query(attributes, authorizers, values)
