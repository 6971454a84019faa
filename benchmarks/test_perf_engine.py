"""Perf-8: the compiled bitset RBAC engine.

Times the engine at a pytest-benchmark-friendly scale on a seeded
synthetic universe (layered role hierarchy, Zipfian assignments and
requests):

- cold build + first pass over the requests (interning, closure
  construction, answering);
- warm ``check_access`` throughput over the same requests;
- incremental delta maintenance (grant + assign churn on a built engine);
- compiled KeyNote conditions (the closures of the benchmark universe's
  four Conditions shapes) vs the tree-walking evaluator.

Answers are checked against the naive oracle in ``tests/rbac`` and
``tests/test_fuzz_engine.py``; these benches only time.
"""

import random

import pytest

from repro.keynote.eval import ConditionEvaluator, compile_conditions
from repro.keynote.parser import parse_conditions
from repro.keynote.values import DEFAULT_VALUE_SET
from repro.rbac.hierarchy import RoleHierarchy
from repro.rbac.model import DomainRole
from repro.rbac.policy import RBACPolicy

_USERS = 5_000
_ROLES = 500
_BATCH = 2_000
_DOMAINS = 8
_OBJECT_TYPES = ("invoice", "ledger", "queue", "topic", "component",
                 "interface", "method", "file")
_PERMISSIONS = ("read", "write", "invoke", "configure")


def _zipf_choices(rng, population, k):
    """``k`` draws from ``population`` under a Zipfian (1/rank) skew."""
    weights = [1.0 / rank for rank in range(1, len(population) + 1)]
    return rng.choices(population, weights=weights, k=k)


def build_universe(users, roles, seed=8):
    """A seeded policy: each role past the first few dominates 1-2 roles
    of strictly earlier index (a deep acyclic hierarchy), two grants per
    role, and Zipfian user assignments."""
    rng = random.Random(seed)
    hierarchy = RoleHierarchy()
    role_list = [DomainRole(f"d{i % _DOMAINS}", f"r{i}") for i in range(roles)]
    for index in range(8, roles):
        for _ in range(rng.randint(1, 2)):
            hierarchy.add_inheritance(role_list[index],
                                      role_list[rng.randrange(0, index)])
    policy = RBACPolicy("perf", hierarchy=hierarchy)
    for role in role_list:
        for _ in range(2):
            policy.grant(role.domain, role.role,
                         rng.choice(_OBJECT_TYPES), rng.choice(_PERMISSIONS))
    for index, role in enumerate(_zipf_choices(rng, role_list, users)):
        policy.assign(f"u{index}", role.domain, role.role)
    return policy


def build_requests(policy, count, seed=8):
    """A Zipfian request mix over the policy's users and objects."""
    rng = random.Random(seed + 1)
    subjects = _zipf_choices(rng, sorted(policy.users()), count)
    object_types = _zipf_choices(rng, _OBJECT_TYPES, count)
    permissions = rng.choices(_PERMISSIONS, k=count)
    return list(zip(subjects, object_types, permissions))


def _universe():
    policy = build_universe(_USERS, _ROLES)
    return policy, build_requests(policy, _BATCH)


def _answer(policy, requests):
    check = policy.check_access
    return [check(user, object_type, permission)
            for user, object_type, permission in requests]


def test_perf_engine_cold_build_and_batch(benchmark):
    def cold():
        policy, requests = _universe()
        return _answer(policy, requests)

    answers = benchmark(cold)
    assert len(answers) == _BATCH


def test_perf_engine_warm_batch(benchmark):
    policy, requests = _universe()
    _answer(policy, requests)  # build + prime
    answers = benchmark(_answer, policy, requests)
    assert len(answers) == _BATCH


def test_perf_engine_delta_maintenance(benchmark):
    policy, requests = _universe()
    _answer(policy, requests)  # build
    toggle = [0]

    def churn():
        toggle[0] += 1
        user = f"u{toggle[0] % _USERS}"
        policy.assign(user, "d0", "r0")
        policy.unassign(user, "d0", "r0")
        return policy.check_access(user, "invoice", "read")

    benchmark(churn)
    assert policy.engine_stats()["builds"] == 1


_CONDITIONS = ('app_domain == "webcom" && (op == "stage" || op == "combine")'
               ' && level < 4')
_ATTRS = {"app_domain": "webcom", "op": "stage", "level": "2"}


def test_perf_keynote_tree_walk(benchmark):
    program = parse_conditions(_CONDITIONS)

    def walk():
        return ConditionEvaluator(_ATTRS,
                                  DEFAULT_VALUE_SET).program_value(program)

    assert benchmark(walk) == "true"


#: the benchmark universe's four Conditions shapes (``bench/universe.py``),
#: each with a request it grants
_SHAPES = {
    "policy": ('app_domain=="grid"', {"app_domain": "grid"}),
    "org": ('vo=="o0" && group=="t0" '
            '&& (op != "run" || job ~= "^job-[0-9]+$")',
            {"vo": "o0", "group": "t0", "op": "run", "job": "job-17"}),
    "team": ('subject=="u7"', {"subject": "u7"}),
    "proxy": ('op=="submit" || op=="status" || op=="run"', {"op": "run"}),
}


@pytest.mark.parametrize("shape", sorted(_SHAPES))
def test_perf_keynote_bytecode(benchmark, shape):
    """The compiled closures of one bench shape (the name predates them)."""
    text, attributes = _SHAPES[shape]
    compiled = compile_conditions(parse_conditions(text))
    assert benchmark(compiled.value, attributes, DEFAULT_VALUE_SET) == "true"
