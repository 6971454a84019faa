"""Conformance oracle: naive reference semantics for the authorisation plane.

The production code answers every authorisation question through layers of
machinery grown for speed and resilience — precompiled conditions, memoised
fixpoints, generation-stamped decision caches, batched queries, mediation
caches, circuit breakers.  This package answers the *same* questions with
deliberately naive implementations a reviewer can check against Section 2
and RFC 2704 by eye:

- :mod:`repro.oracle.rbac_oracle` — the extended RBAC relations as plain
  set comprehensions with an iterate-to-fixpoint hierarchy closure;
- :mod:`repro.oracle.keynote_oracle` — the KeyNote compliance value as a
  Kleene iteration from bottom over the whole principal graph, using the
  tree-walking condition evaluator (no memo, no caches, no compilation);
- :mod:`repro.oracle.gen` — seeded generators for random policies,
  deployments, credential graphs and request workloads;
- :mod:`repro.oracle.differ` — the differential harness cross-checking
  every backend, translator, cache and the full mediation stack against
  the oracle, shrinking any disagreement to a minimal replayable case.
"""

from repro._lazy import lazy_facade

#: public name -> the submodule defining it, imported on first read
_EXPORTS = {
    "RBACOracle": "rbac_oracle",
    "oracle_authorises": "keynote_oracle",
    "oracle_compliance_value": "keynote_oracle",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_facade(__name__, _EXPORTS)
