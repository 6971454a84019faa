"""A brute-force KeyNote compliance evaluator (RFC 2704 section 5).

The production :class:`~repro.keynote.compliance.ComplianceChecker` computes
the compliance value by memoised depth-first search over precompiled
condition programs, with a taint-tracked decision cache on top.  This module
computes the *same* value the slow, obvious way — a Kleene iteration of the
defining equations from bottom over the whole principal graph::

    value(k) = _MAX_TRUST                       if k is a requester
    value(k) = ⋁ { val(A, L, C) : k authored (A, L, C) }   otherwise
    val(A, L, C) = C(attributes)  ⋀  L(value)

iterated until nothing changes.  The equations are monotone over a finite
lattice, so the iteration reaches the least fixpoint — the semantics under
which delegation cycles grant nothing, exactly what the DFS's cycle-break
rule implements.  Conditions are evaluated with the tree-walking
:class:`~repro.keynote.eval.ConditionEvaluator` on every visit: no
compilation, no memoisation, no caches of any kind.  The walker reads
each assertion's shared shape with the assertion's own binding (the
literals its slots stand for), so no tree is built per call.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from repro.crypto.keystore import Keystore
from repro.errors import ComplianceError
from repro.keynote.credential import Credential
from repro.keynote.eval import ConditionEvaluator
from repro.keynote.values import DEFAULT_VALUE_SET, ComplianceValueSet


def _canonical(principal: str, keystore: Keystore | None) -> str:
    """The checker's canonicalisation rule, restated."""
    if principal.upper() == "POLICY":
        return "POLICY"
    if keystore is not None and principal in keystore:
        return keystore.public(principal).encode()
    return principal


def oracle_compliance_value(assertions: Sequence[Credential],
                            attributes: Mapping[str, str],
                            authorizers: Iterable[str],
                            values: ComplianceValueSet = DEFAULT_VALUE_SET,
                            keystore: Keystore | None = None) -> str:
    """Compliance value of a request by naive fixpoint iteration.

    :param assertions: every admitted assertion (the oracle does no
        signature screening — pass the set the subject checker admitted).
    :param attributes: the action attribute set.
    :param authorizers: the key(s) that made the request.
    :raises ComplianceError: when no authorizer is given.
    """
    requesters = {_canonical(a, keystore) for a in authorizers}
    if not requesters:
        raise ComplianceError("a query needs at least one action authorizer")

    by_authorizer: dict[str, list[Credential]] = {}
    principals: set[str] = {"POLICY"}
    for assertion in assertions:
        author = _canonical(assertion.authorizer, keystore)
        by_authorizer.setdefault(author, []).append(assertion)
        principals.add(author)
        for licensee in assertion.principals():
            principals.add(_canonical(licensee, keystore))

    value: dict[str, str] = {p: values.minimum for p in principals}
    evaluator = ConditionEvaluator(attributes, values)

    def principal_value(principal: str) -> str:
        if principal in requesters:
            return values.maximum
        return value.get(principal, values.minimum)

    def assertion_value(assertion: Credential) -> str:
        conditions_value = evaluator.program_value(assertion.shape,
                                                   assertion.binding)
        if conditions_value == values.minimum:
            return values.minimum
        licensee_value = assertion.licensees.value(
            lambda key: principal_value(_canonical(key, keystore)), values)
        return values.meet([conditions_value, licensee_value])

    # Kleene iteration from bottom.  Each pass can only raise values
    # (monotone equations over a finite lattice), so it stabilises within
    # |principals| * |values| passes; the bound below is a belt-and-braces
    # guard against a non-monotone bug, not a tuning knob.
    for _ in range(len(principals) * len(values) + 2):
        changed = False
        for principal in sorted(principals):
            if principal in requesters:
                continue
            best = values.minimum
            for assertion in by_authorizer.get(principal, ()):
                best = values.join([best, assertion_value(assertion)])
            if best != value[principal]:
                value[principal] = best
                changed = True
        if not changed:
            break

    return principal_value("POLICY")


def oracle_authorises(assertions: Sequence[Credential],
                      attributes: Mapping[str, str],
                      authorizers: Iterable[str],
                      values: ComplianceValueSet = DEFAULT_VALUE_SET,
                      keystore: Keystore | None = None,
                      threshold: str | None = None) -> bool:
    """Boolean convenience mirroring
    :meth:`~repro.keynote.compliance.ComplianceChecker.authorises`."""
    target = threshold if threshold is not None else values.maximum
    return values.at_least(
        oracle_compliance_value(assertions, attributes, authorizers,
                                values, keystore), target)
