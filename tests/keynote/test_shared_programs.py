"""Each distinct Conditions program is parsed and compiled once.

Recovery parses every distinct Conditions text once through a table that
lives only for the recovery call, and a ``ComplianceChecker`` shares one
compiled program among the admitted assertions that carry the same text,
through a table counted by those assertions.  The tests count parses and
compiles instead of timing them, and pin what the checker's table may
hold: nothing of a request-scoped credential, a revoked assertion or a
discarded one, and no shared program for an assertion with Local-Constants.
"""

from collections import Counter

import repro.keynote.compliance as compliance_module
import repro.keynote.credential as credential_module
from repro.crypto.keys import KeyPair
from repro.keynote.api import KeyNoteSession
from repro.keynote.compliance import ComplianceChecker
from repro.keynote.credential import Credential
from repro.oracle.keynote_oracle import oracle_compliance_value
from repro.serve.plane import ServePolicyPlane
from repro.store.durable import DurablePolicyNode

SIGNER = KeyPair.generate("shared-programs-signer")
FORGER = KeyPair.generate("shared-programs-forger")
TEXTS = ('op=="run"', 'op=="submit" || op=="run"',
         'subject=="u1" && op=="run"')
POLICY = Credential.build("POLICY", f'"{SIGNER.public.encode()}"',
                          'app=="grid"')


def signed(licensee: str, conditions: str) -> Credential:
    return Credential.build(SIGNER.public.encode(), f'"{licensee}"',
                            conditions).sign(SIGNER.private)


def universe(n: int) -> list[Credential]:
    """``n`` distinct credentials sharing ``len(TEXTS)`` condition texts."""
    return [signed(f"Kuser{i}", TEXTS[i % len(TEXTS)]) for i in range(n)]


def count_parses(monkeypatch) -> Counter:
    calls: Counter = Counter()
    parse = credential_module.parse_conditions

    def counting(text, constants=None):
        calls[text] += 1
        return parse(text, constants)

    monkeypatch.setattr(credential_module, "parse_conditions", counting)
    return calls


def count_compiles(monkeypatch) -> Counter:
    calls: Counter = Counter()
    compile_conditions = compliance_module.compile_conditions

    def counting(program):
        calls[program] += 1
        return compile_conditions(program)

    monkeypatch.setattr(compliance_module, "compile_conditions", counting)
    return calls


def programs(checker: ComplianceChecker) -> int:
    return checker.cache_info()["programs"]


class TestRecovery:
    def test_k_parses_and_k_compiles_for_n_credentials(self, tmp_path,
                                                       monkeypatch):
        credentials = universe(60)
        node = DurablePolicyNode.recover(tmp_path)
        node.session.add_policy(POLICY)
        for credential in credentials[:30]:
            node.session.add_credential(credential)
        node.snapshot()
        for credential in credentials[30:]:
            node.session.add_credential(credential)
        for credential in credentials[:6]:
            node.session.revoke_credential(credential)
        node.close()

        parses = count_parses(monkeypatch)
        compiles = count_compiles(monkeypatch)
        node = DurablePolicyNode.recover(tmp_path)
        texts = {POLICY.conditions_text, *TEXTS}
        assert set(parses) == texts
        assert sum(parses.values()) == len(texts)
        checker = node.session.checker
        assert sum(compiles.values()) == len(texts)
        assert programs(checker) == len(texts)
        assert len(node.session.credentials) == 54

        live = [POLICY, *credentials[6:]]
        for index in (5, 6, 7, 31, 59):
            for op in ("run", "submit", "admin"):
                attributes = {"app": "grid", "op": op, "subject": "u1"}
                expected = oracle_compliance_value(
                    live, attributes, [f"Kuser{index}"])
                assert node.session.query(
                    attributes, [f"Kuser{index}"]).compliance_value == \
                    expected
        node.close()

    def test_a_fresh_checker_compiles_each_text_once(self, monkeypatch):
        compiles = count_compiles(monkeypatch)
        checker = ComplianceChecker([POLICY, *universe(30)])
        assert sum(compiles.values()) == len(TEXTS) + 1
        assert programs(checker) == len(TEXTS) + 1


class TestLocalConstants:
    def test_a_credential_with_local_constants_gets_its_own_program(
            self, monkeypatch):
        text = ('KeyNote-Version: 2\nLocal-Constants: R = "run"\n'
                'Authorizer: POLICY\nLicensees: "Ka"\nConditions: op == R;\n')
        with_constants = [Credential.from_text(text, {}),
                          Credential.from_text(text.replace('"Ka"', '"Kb"'),
                                               {})]
        plain = Credential.build("POLICY", '"Kc"', "op == R")
        assert plain.conditions_text == with_constants[0].conditions_text
        # A constant the program never reads leaves it equal to the plain
        # one; it still compiles its own.
        unused = Credential.from_text(
            'Local-Constants: X = "x"\nAuthorizer: POLICY\n'
            'Licensees: "Kd"\nConditions: op == R;\n')
        assert unused.conditions == plain.conditions
        compiles = count_compiles(monkeypatch)
        assert programs(ComplianceChecker(with_constants)) == 0
        checker = ComplianceChecker([plain, *with_constants, unused])
        assert sum(compiles.values()) == 2 + 4
        assert programs(checker) == 1
        run = {"op": "run"}
        assert checker.query(run, ["Ka"]) == "true"
        assert checker.query(run, ["Kb"]) == "true"
        assert checker.query(run, ["Kc"]) == "false"
        assert checker.query({"op": "x", "R": "x"}, ["Kc"]) == "true"
        assert checker.query({"op": "x", "R": "x"}, ["Kd"]) == "true"

    def test_the_recovery_table_skips_local_constants(self):
        table: dict = {}
        text = ('Local-Constants: R = "run"\nAuthorizer: POLICY\n'
                'Licensees: "Ka"\nConditions: op == R;\n')
        Credential.from_text(text, table)
        assert table == {}
        plain = Credential.from_text(
            'Authorizer: POLICY\nLicensees: "Ka"\nConditions: op == R;\n',
            table)
        assert table == {"op == R": plain.conditions}

    def test_whitespace_inside_a_literal_is_not_shared(self):
        wide = Credential.build("POLICY", '"Ka"', 'x == "a  b"')
        narrow = Credential.build("POLICY", '"Kb"', 'x == "a b"')
        assert wide.conditions_text == narrow.conditions_text
        assert wide.conditions != narrow.conditions
        checker = ComplianceChecker([wide, narrow])
        assert checker.query({"x": "a  b"}, ["Ka"]) == "true"
        assert checker.query({"x": "a  b"}, ["Kb"]) == "false"
        assert checker.query({"x": "a b"}, ["Kb"]) == "true"
        assert checker.revoke_assertion(narrow)
        assert programs(checker) == 1
        assert checker.revoke_assertion(wide)
        assert programs(checker) == 0


class TestLifetime:
    def test_revoking_the_last_holder_removes_the_entry(self):
        credentials = universe(6)
        checker = ComplianceChecker([POLICY, *credentials])
        assert programs(checker) == 4
        # A copy adds a count, not a holder.
        assert checker.add_assertion(credentials[0])
        for credential in credentials[0::3]:
            assert checker.revoke_assertion(credential)
        assert programs(checker) == 4
        assert checker.revoke_assertion(credentials[0])
        assert programs(checker) == 3
        assert checker.query({"op": "run"}, ["Kuser0"]) == "false"
        assert checker.query({"op": "run", "app": "grid"},
                             ["Kuser1"]) == "true"
        assert checker.add_assertion(credentials[0])
        assert programs(checker) == 4
        assert checker.query({"op": "run", "app": "grid"},
                             ["Kuser0"]) == "true"

    def test_a_discarded_assertion_releases_its_program(self):
        forged = Credential.build(SIGNER.public.encode(), '"Kforged"',
                                  'op=="forged"').sign(FORGER.private)
        checker = ComplianceChecker([POLICY, forged])
        assert programs(checker) == 2
        assert checker.verify_pending() == 0
        assert checker.discarded == [forged]
        assert programs(checker) == 1

    def test_a_request_scoped_credential_leaves_nothing(self):
        session = KeyNoteSession()
        session.add_policy(POLICY)
        session.add_credential(signed("Kuser0", TEXTS[0]))
        checker = session.checker
        before = checker.cache_info()
        for extra in (signed("Kproxy", TEXTS[0]),
                      signed("Kproxy", 'op=="fresh"')):
            session.query({"app": "grid", "op": "run"}, ["Kproxy"],
                          extra_credentials=[extra])
        assert checker.cache_info()["programs"] == before["programs"] == 2
        assert checker._programs[TEXTS[0]].holders == 1

    def test_keycom_updates_with_distinct_roles_leave_the_table(self):
        plane = ServePolicyPlane()
        admin = KeyPair.generate("shared-programs-admin")
        plane.session.add_policy(
            f'Authorizer: POLICY\nLicensees: "{admin.public.encode()}"\n'
            'Conditions: app_domain=="WebCom";')
        checker = plane.session.checker
        before = programs(checker)
        for index in range(500):
            role = f"R{index}"
            credential = Credential.build(
                admin.public.encode(), '"Kmember"',
                f'app_domain=="WebCom" && Domain=="{plane.middleware.domain}"'
                f' && Role=="{role}"').sign(admin.private)
            reply = plane.keycom_update({
                "user": f"user{index}", "user_key": "Kmember",
                "domain": plane.middleware.domain, "role": role,
                "credentials": [credential.to_text()],
                "request_id": f"install-{index}"})
            assert reply["applied"]
        assert programs(checker) == before
