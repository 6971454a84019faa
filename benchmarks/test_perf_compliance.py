"""Perf-1: KeyNote compliance-checker throughput and scaling.

The paper reports no performance numbers; these benches characterise the
reproduction, including the memoised delegation-graph search on a
diamond-heavy credential set where an unmemoised search would revisit
principals exponentially often (the DESIGN.md ablation measured both).
"""

import pytest

from repro.crypto import Keystore
from repro.keynote.compliance import ComplianceChecker
from repro.keynote.credential import Credential
from repro.oracle.keynote_oracle import oracle_compliance_value


def build_chain(keystore: Keystore, depth: int) -> list[Credential]:
    """A linear delegation chain of the given depth."""
    names = [f"Kchain{i}" for i in range(depth + 1)]
    for name in names:
        keystore.create(name)
    assertions = [Credential.build("POLICY", f'"{names[0]}"', 'x=="1"')]
    for a, b in zip(names, names[1:]):
        assertions.append(
            Credential.build(a, f'"{b}"', 'x=="1"').sign(
                keystore.pair(a).private))
    return assertions


def build_diamond_lattice(keystore: Keystore, layers: int,
                          width: int) -> tuple[list[Credential], str]:
    """A layered lattice: every key of layer i delegates to every key of
    layer i+1 — the worst case for non-memoised search."""
    grid = [[f"Kl{i}w{j}" for j in range(width)] for i in range(layers)]
    for row in grid:
        for name in row:
            keystore.create(name)
    assertions = [
        Credential.build("POLICY",
                         " || ".join(f'"{n}"' for n in grid[0]), "true")]
    for upper, lower in zip(grid, grid[1:]):
        for issuer in upper:
            licensees = " || ".join(f'"{n}"' for n in lower)
            assertions.append(
                Credential.build(issuer, licensees, "true").sign(
                    keystore.pair(issuer).private))
    return assertions, grid[-1][0]


@pytest.mark.parametrize("depth", [2, 8, 32])
def test_perf_chain_depth(benchmark, depth):
    keystore = Keystore()
    assertions = build_chain(keystore, depth)
    checker = ComplianceChecker(assertions, keystore=keystore)
    leaf = f"Kchain{depth}"
    result = benchmark(checker.query, {"x": "1"}, [leaf])
    assert result == "true"


@pytest.mark.parametrize("n_credentials", [10, 100, 400])
def test_perf_credential_count(benchmark, n_credentials):
    """Many irrelevant credentials must not slow the relevant chain much
    (the checker indexes by authorizer)."""
    keystore = Keystore()
    assertions = build_chain(keystore, 4)
    for i in range(n_credentials):
        keystore.create(f"Knoise{i}")
        keystore.create(f"Knoise{i}b")
        assertions.append(Credential.build(
            f"Knoise{i}", f'"Knoise{i}b"', 'y=="9"').sign(
                keystore.pair(f"Knoise{i}").private))
    checker = ComplianceChecker(assertions, keystore=keystore)
    result = benchmark(checker.query, {"x": "1"}, ["Kchain4"])
    assert result == "true"


@pytest.mark.parametrize("siblings", [10, 100, 1000])
def test_perf_same_signer_fan_out(benchmark, siblings):
    """One team key signs a ``subject``-guarded credential per member: a
    cold decision reads only the sibling whose guard matches the request,
    so the reads stay flat as the team grows.  The request is the newest
    member's, which an admission-order scan of the team would reach last.
    Each round starts cold so the fixpoint runs, not the decision cache."""
    keystore = Keystore()
    team = keystore.create("Kteam")
    assertions = [Credential.build("POLICY", '"Kteam"', 'app=="grid"')]
    for i in range(siblings):
        assertions.append(Credential.build(
            "Kteam", f'"Kuser{i}"', f'subject=="u{i}"').sign(team.private))
    checker = ComplianceChecker(assertions, keystore=keystore)

    newest = siblings - 1

    def cold_query():
        checker.clear_decision_cache()
        return checker.query({"app": "grid", "subject": f"u{newest}"},
                             [f"Kuser{newest}"])

    assert benchmark(cold_query) == "true"
    # POLICY's assertion and the one matching team credential.
    assert checker.last_query_stats.assertions_visited == 2


def test_perf_memoisation_ablation(benchmark):
    """The lattice would make an unmemoised search revisit every principal
    once per path; memoisation collapses that.  Each round starts cold so
    the fixpoint runs, not the decision cache."""
    keystore = Keystore()
    assertions, leaf = build_diamond_lattice(keystore, layers=5, width=4)
    checker = ComplianceChecker(assertions, keystore=keystore)

    def cold_query():
        checker.clear_decision_cache()
        return checker.query({}, [leaf])

    assert benchmark(cold_query) == "true"


def test_memoisation_agrees_with_naive():
    """The memoised search equals the naive oracle (not timed)."""
    keystore = Keystore()
    assertions, leaf = build_diamond_lattice(keystore, layers=4, width=3)
    memo = ComplianceChecker(assertions, keystore=keystore)
    for authorizer in ([leaf], ["Kl3w1"], ["Kl0w0"], ["Kl2w2", "Kl3w0"]):
        assert memo.query({}, authorizer) == oracle_compliance_value(
            assertions, {}, authorizer, keystore=keystore)


def test_memoisation_ablation_is_measurable():
    """The profile counters show the lattice's shared principals served
    from the memo, so no assertion is visited more than once (not
    timed)."""
    keystore = Keystore()
    assertions, leaf = build_diamond_lattice(keystore, layers=5, width=4)
    memo = ComplianceChecker(assertions, keystore=keystore)
    assert memo.query({}, [leaf]) == "true"
    assert memo.last_query_stats.memo_hits > 0
    assert memo.last_query_stats.assertions_visited <= len(assertions)


def _validated_checker(dependents: int) -> tuple[ComplianceChecker,
                                                  Credential]:
    """A checker holding ``dependents`` cached decisions that all read one
    team credential (each request carries a fresh ``job`` value, which a
    second team credential makes part of the key)."""
    team_grant = Credential.build("Kteam", '"Kuser"', 'op=="read"')
    checker = ComplianceChecker([
        Credential.build("POLICY", '"Kteam"', 'app=="grid"'),
        team_grant,
        Credential.build("Kteam", '"Kuser"', 'job=="never"'),
        # Keeps ``op`` in the key shape when team_grant leaves.
        Credential.build("Kother", '"Kuser"', 'op=="write"'),
    ], verify_signatures=False)
    for n in range(dependents):
        checker.query({"app": "grid", "op": "read", "job": f"j{n}"},
                      ["Kuser"])
    return checker, team_grant


@pytest.mark.parametrize("dependents", [100, 10000])
def test_perf_revoke_with_many_dependents(benchmark, dependents):
    """A revoke marks the credential dead and visits none of the decisions
    that read it, so a revoke/re-add round costs the same with 100 or
    10,000 dependents; each stale decision is dropped on its next read."""
    checker, team_grant = _validated_checker(dependents)

    def churn():
        checker.revoke_assertion(team_grant)
        checker.add_assertion(team_grant)

    benchmark(churn)
    info = checker.cache_info()
    assert info["entries"] == dependents  # touched none of them
    assert info["selective_evictions"] == info["full_flushes"] == 0
    assert checker.query({"app": "grid", "op": "read", "job": "j0"},
                         ["Kuser"]) == "true"
    assert checker.cache_info()["selective_evictions"] == 1


def test_perf_warm_hit_validation(benchmark):
    """A warm hit after an unrelated mutation checks the decision's
    dependencies (the principals and credentials its fixpoint read)
    before serving it; the decision survives and keeps hitting."""
    keystore = Keystore()
    assertions = build_chain(keystore, 8)
    checker = ComplianceChecker(assertions, keystore=keystore)
    assert checker.query({"x": "1"}, ["Kchain8"]) == "true"
    keystore.create("Kelsewhere")
    checker.add_assertion(Credential.build(
        "Kelsewhere", '"Kchain8"', 'x=="1"').sign(
            keystore.pair("Kelsewhere").private))
    hits = checker.cache_hits
    assert benchmark(checker.query, {"x": "1"}, ["Kchain8"]) == "true"
    assert checker.cache_hits > hits
    assert checker.cache_misses == 1
    assert checker.selective_evictions == 0
