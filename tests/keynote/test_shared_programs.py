"""Each distinct Conditions text is parsed and compiled once per process.

:data:`repro.keynote.credential.PROGRAMS` maps a normalised Conditions
text to the program parsed from it, weakly: ``Credential.build`` reads
and fills it whichever path presents the text (recovery, a wire add or
revoke, a KeyCom install, a request-scoped credential), and
``compile_conditions`` keeps a program's closures on the program.  An
entry leaves when the last credential holding its program is freed.

The tests count parses and compiles instead of timing them.  Every text
a test counts carries a ``nonce`` unique to that test (a conjunct no
request sets, so it never changes a verdict), and the test checks the
table holds none of its texts before it counts: no other live holder can
make a parse look shared.
"""

import gc
from collections import Counter
from dataclasses import replace

import pytest

import repro.keynote.credential as credential_module
import repro.keynote.eval as eval_module
from repro.crypto.keys import KeyPair
from repro.keynote.api import KeyNoteSession
from repro.keynote.compliance import ComplianceChecker
from repro.keynote.credential import PROGRAMS, Credential
from repro.oracle.keynote_oracle import oracle_compliance_value
from repro.serve.plane import ServePolicyPlane
from repro.store.durable import DurablePolicyNode
from repro.webcom.keycom import PROCESSED_WINDOW

SIGNER = KeyPair.generate("shared-programs-signer")
FORGER = KeyPair.generate("shared-programs-forger")
#: the Conditions templates, each completed by :func:`texts`
TEMPLATES = ('op=="run"', '(op=="submit" || op=="run")',
             'subject=="u1" && op=="run"')
GRID = {"app": "grid", "op": "run"}


@pytest.fixture
def nonce(request) -> str:
    """A token unique to the running test."""
    return request.node.name


def texts(nonce: str) -> tuple[str, ...]:
    return tuple(f'{template} && nonce!="{nonce}"' for template in TEMPLATES)


def policy(nonce: str) -> Credential:
    return Credential.build("POLICY", f'"{SIGNER.public.encode()}"',
                            f'app=="grid" && nonce!="{nonce}"')


def signed(licensee: str, conditions: str, comment: str = "") -> Credential:
    return Credential.build(SIGNER.public.encode(), f'"{licensee}"',
                            conditions, comment=comment).sign(SIGNER.private)


def universe(n: int, nonce: str) -> list[Credential]:
    """``n`` distinct credentials sharing ``len(TEMPLATES)`` texts."""
    conditions = texts(nonce)
    return [signed(f"Kuser{i}", conditions[i % len(conditions)])
            for i in range(n)]


def held(nonce: str) -> list[str]:
    """The table's texts that carry ``nonce``."""
    gc.collect()
    return [text for text in list(PROGRAMS) if f'"{nonce}"' in text]


def count_parses(monkeypatch) -> Counter:
    calls: Counter = Counter()
    parse = credential_module.parse_conditions

    def counting(text, constants=None):
        calls[text] += 1
        return parse(text, constants)

    monkeypatch.setattr(credential_module, "parse_conditions", counting)
    return calls


def count_compiles(monkeypatch) -> Counter:
    """Compiles by the compiled program's hash (a program is not kept, so
    counting leaves every lifetime as it was)."""
    calls: Counter = Counter()
    compiled_type = eval_module.CompiledConditions

    class Counting(compiled_type):
        __slots__ = ()

        def __init__(self, program):
            calls[hash(program)] += 1
            super().__init__(program)

    monkeypatch.setattr(eval_module, "CompiledConditions", Counting)
    return calls


class TestRecovery:
    def test_k_parses_and_k_compiles_for_n_credentials(self, tmp_path,
                                                       monkeypatch, nonce):
        node = DurablePolicyNode.recover(tmp_path)
        node.session.add_policy(policy(nonce))
        credentials = universe(60, nonce)
        for credential in credentials[:30]:
            node.session.add_credential(credential)
        node.snapshot()
        for credential in credentials[30:]:
            node.session.add_credential(credential)
        for credential in credentials[:6]:
            node.session.revoke_credential(credential)
        node.close()
        live = [policy(nonce).to_text(),
                *(credential.to_text() for credential in credentials[6:])]
        del node, credentials, credential
        assert held(nonce) == []

        parses = count_parses(monkeypatch)
        compiles = count_compiles(monkeypatch)
        node = DurablePolicyNode.recover(tmp_path)
        expected = {policy(nonce).conditions_text, *texts(nonce)}
        assert set(parses) == expected
        assert sum(parses.values()) == len(expected)
        assert sum(compiles.values()) == len(expected)
        assert len(node.session.credentials) == 54
        trees = {id(assertion.conditions)
                 for assertion in node.session.checker.assertions}
        assert len(trees) == len(expected) == len(held(nonce))

        live_credentials = [Credential.from_text(text) for text in live]
        assert sum(parses.values()) == len(expected)  # all table hits
        for index in (5, 6, 7, 31, 59):
            for op in ("run", "submit", "admin"):
                attributes = {"app": "grid", "op": op, "subject": "u1"}
                expected_value = oracle_compliance_value(
                    live_credentials, attributes, [f"Kuser{index}"])
                assert node.session.query(
                    attributes, [f"Kuser{index}"]).compliance_value == \
                    expected_value
        node.close()

    def test_a_fresh_checker_compiles_each_text_once(self, monkeypatch,
                                                     nonce):
        assertions = [policy(nonce), *universe(30, nonce)]
        compiles = count_compiles(monkeypatch)
        ComplianceChecker(assertions)
        assert sum(compiles.values()) == len(TEMPLATES) + 1
        # The closures stay on the programs: a second build compiles
        # nothing.
        ComplianceChecker(assertions)
        assert sum(compiles.values()) == len(TEMPLATES) + 1


class TestLocalConstants:
    def test_a_credential_with_local_constants_gets_its_own_program(
            self, monkeypatch, nonce):
        conditions = f'op == R && nonce != "{nonce}"'
        text = ('KeyNote-Version: 2\nLocal-Constants: R = "run"\n'
                'Authorizer: POLICY\nLicensees: "Ka"\n'
                f'Conditions: {conditions};\n')
        with_constants = [Credential.from_text(text),
                          Credential.from_text(text.replace('"Ka"', '"Kb"'))]
        plain = Credential.build("POLICY", '"Kc"', conditions)
        assert plain.conditions_text == with_constants[0].conditions_text
        assert PROGRAMS[plain.conditions_text] is plain.conditions
        assert len({id(plain.conditions),
                    *(id(c.conditions) for c in with_constants)}) == 3
        # A constant the program never reads leaves it equal to the plain
        # one; it still parses its own.
        unused = Credential.from_text(
            'Local-Constants: X = "x"\nAuthorizer: POLICY\n'
            f'Licensees: "Kd"\nConditions: {conditions};\n')
        assert unused.conditions == plain.conditions
        assert unused.conditions is not plain.conditions
        compiles = count_compiles(monkeypatch)
        ComplianceChecker(with_constants)
        checker = ComplianceChecker([plain, *with_constants, unused])
        assert sum(compiles.values()) == 4  # one per program object
        run = {"op": "run"}
        assert checker.query(run, ["Ka"]) == "true"
        assert checker.query(run, ["Kb"]) == "true"
        assert checker.query(run, ["Kc"]) == "false"
        assert checker.query({"op": "x", "R": "x"}, ["Kc"]) == "true"
        assert checker.query({"op": "x", "R": "x"}, ["Kd"]) == "true"

    def test_the_recovery_table_skips_local_constants(self, nonce):
        conditions = f'op == R && nonce != "{nonce}"'
        with_constants = Credential.from_text(
            'Local-Constants: R = "run"\nAuthorizer: POLICY\n'
            f'Licensees: "Ka"\nConditions: {conditions};\n')
        assert held(nonce) == []
        plain = Credential.from_text(
            f'Authorizer: POLICY\nLicensees: "Ka"\nConditions: {conditions};\n')
        assert held(nonce) == [plain.conditions_text]
        assert PROGRAMS[plain.conditions_text] is plain.conditions
        assert with_constants.conditions != plain.conditions

    def test_whitespace_inside_a_literal_is_not_shared(self):
        wide = Credential.build("POLICY", '"Ka"', 'x == "a  b"')
        narrow = Credential.build("POLICY", '"Kb"', 'x  ==\t"a b"')
        assert wide.conditions_text == 'x == "a  b"'
        assert narrow.conditions_text == 'x == "a b"'
        assert wide.conditions != narrow.conditions
        assert PROGRAMS[wide.conditions_text] is wide.conditions
        assert PROGRAMS[narrow.conditions_text] is narrow.conditions
        checker = ComplianceChecker([wide, narrow])
        assert checker.query({"x": "a  b"}, ["Ka"]) == "true"
        assert checker.query({"x": "a  b"}, ["Kb"]) == "false"
        assert checker.query({"x": "a b"}, ["Kb"]) == "true"
        assert checker.revoke_assertion(narrow)
        assert checker.revoke_assertion(wide)


class TestLosslessText:
    @pytest.mark.parametrize("literal", ["x  y", "x\ty", 'say \\"hi\\"  ',
                                         "# not a comment"])
    def test_the_text_parses_back_to_the_program(self, literal):
        written = Credential.build("POLICY", '"Ka"',
                                   f'a == "{literal}"  # comment\n|| b == "1"')
        journalled = written.to_text()
        program = written.conditions
        del written
        gc.collect()
        read = Credential.from_text(journalled)
        assert read.conditions == program
        assert read.conditions_text == \
            f'a == "{literal}" # comment\n|| b == "1"'
        value = literal.replace('\\"', '"')
        checker = ComplianceChecker([read])
        assert checker.query({"a": value}, ["Ka"]) == "true"
        collapsed = " ".join(value.split())
        if collapsed != value:
            assert checker.query({"a": collapsed}, ["Ka"]) == "false"

    def test_a_durable_plane_grants_the_literal_after_recovery(self, tmp_path):
        team = KeyPair.generate("shared-programs-team")
        proxy = KeyPair.generate("shared-programs-proxy").public.encode()
        text = Credential.build(team.public.encode(), f'"{proxy}"',
                                'a == "x  y"').sign(team.private).to_text()
        plane = ServePolicyPlane(root=tmp_path)
        plane.add_policy({"text": f'Authorizer: POLICY\n'
                                  f'Licensees: "{team.public.encode()}"\n'
                                  f'Conditions: app_domain=="grid";'})
        assert plane.add_credential({"text": text})["added"]

        def allowed(plane, value):
            return plane.mediate({
                "user": "u", "user_key": proxy, "object_type": "job",
                "operation": "run",
                "attributes": {"app_domain": "grid", "a": value}})["allowed"]

        assert [allowed(plane, "x  y"), allowed(plane, "x y")] == [True, False]
        # crash: the WAL is not closed and no snapshot is written; with
        # the plane gone, recovery parses the journalled text
        del plane
        gc.collect()
        assert 'a == "x  y"' not in PROGRAMS
        again = ServePolicyPlane(root=tmp_path)
        assert [allowed(again, "x  y"), allowed(again, "x y")] == [True, False]
        again.close()


    @pytest.mark.parametrize("raw", [
        'app_domain == "grid"   # issued  by\tthe team',
        'app_domain == "grid"  # team\n  && a == "1"'])
    def test_text_signed_in_the_earlier_form_still_verifies(self, tmp_path,
                                                            raw):
        """Earlier versions signed and journalled ``" ".join(text.split())``
        as the Conditions text, trailing comments included.  That text is
        its own normal form, so such a credential keeps its signature over
        the wire and across a crash."""
        team = KeyPair.generate("shared-programs-team")
        proxy = KeyPair.generate("shared-programs-proxy").public.encode()
        earlier = replace(Credential.build(team.public.encode(),
                                           f'"{proxy}"', raw),
                          conditions_text=" ".join(raw.split()))
        text = earlier.sign(team.private).to_text()
        assert Credential.from_text(text).conditions_text == \
            earlier.conditions_text
        plane = ServePolicyPlane(root=tmp_path)
        plane.add_policy({"text": f'Authorizer: POLICY\n'
                                  f'Licensees: "{team.public.encode()}"\n'
                                  f'Conditions: app_domain=="grid";'})
        assert plane.add_credential({"text": text})["added"]

        def allowed(plane):
            return plane.mediate({
                "user": "u", "user_key": proxy, "object_type": "job",
                "operation": "run",
                "attributes": {"app_domain": "grid"}})["allowed"]

        assert allowed(plane)
        del plane  # crash: recovery verifies the journalled text
        gc.collect()
        again = ServePolicyPlane(root=tmp_path)
        assert allowed(again)
        again.close()


class TestWirePath:
    def _plane(self, nonce: str, k: int):
        """A plane whose POLICY licenses :data:`SIGNER`, and the texts of
        ``k`` proxy credentials cut from one template."""
        plane = ServePolicyPlane()
        plane.add_policy({"text": policy(nonce).to_text()})
        conditions = texts(nonce)[1]
        proxies = [signed(f"Kproxy{i}", conditions, f"proxy {i}").to_text()
                   for i in range(k)]
        return plane, proxies

    def test_k_wire_adds_parse_once_and_hold_one_tree(self, monkeypatch,
                                                      nonce):
        plane, proxies = self._plane(nonce, 50)
        assert held(nonce) == [policy(nonce).conditions_text]
        parses = count_parses(monkeypatch)
        for text in proxies:
            assert plane.add_credential({"text": text})["added"]
        assert parses == Counter({texts(nonce)[1]: 1})
        trees = {id(credential.conditions)
                 for credential in plane.session.credentials}
        assert len(trees) == 1
        assert plane.session.query(GRID, ["Kproxy7"]).compliance_value == \
            "true"

    def test_a_revoke_of_a_held_credential_parses_no_conditions(
            self, monkeypatch, nonce):
        plane, proxies = self._plane(nonce, 10)
        for text in proxies:
            plane.add_credential({"text": text})
        parses = count_parses(monkeypatch)
        for text in proxies:
            assert plane.revoke_credential({"text": text})["revoked"]
        assert parses == Counter()
        assert plane.session.credentials == []

    def test_the_entry_leaves_with_its_last_holder(self, nonce):
        plane, proxies = self._plane(nonce, 10)
        text = texts(nonce)[1]
        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            for proxy in proxies:
                plane.add_credential({"text": proxy})
            assert text in PROGRAMS
            for proxy in proxies[:-1]:
                plane.revoke_credential({"text": proxy})
            assert text in PROGRAMS
            plane.revoke_credential({"text": proxies[-1]})
            assert text not in PROGRAMS
        finally:
            if enabled:
                gc.enable()


class TestLifetime:
    def test_revoking_the_last_holder_removes_the_entry(self, nonce):
        credentials = universe(6, nonce)
        checker = ComplianceChecker([policy(nonce), *credentials])
        text = credentials[0].conditions_text  # also credentials[3]'s
        # A copy adds a count, not a second program.
        assert checker.add_assertion(credentials[0])
        for credential in credentials[0::3]:
            assert checker.revoke_assertion(credential)
        assert checker.revoke_assertion(credentials[0])
        assert checker.query({"op": "run"}, ["Kuser0"]) == "false"
        assert checker.query(GRID, ["Kuser1"]) == "true"
        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            assert text in PROGRAMS  # the list still holds both
            del credentials[0::3], credential
            assert text not in PROGRAMS
        finally:
            if enabled:
                gc.enable()
        again = universe(1, nonce)[0]
        assert checker.add_assertion(again)
        assert checker.query(GRID, ["Kuser0"]) == "true"

    def test_a_discarded_assertion_releases_its_program(self, nonce):
        forged = Credential.build(SIGNER.public.encode(), '"Kforged"',
                                  f'op=="forged" && nonce!="{nonce}"'
                                  ).sign(FORGER.private)
        checker = ComplianceChecker([policy(nonce), forged])
        assert checker.verify_pending() == 0
        assert checker.discarded == [forged]
        assert checker.query({"app": "grid", "op": "forged"},
                             ["Kforged"]) == "false"
        text = forged.conditions_text
        # Held as discarded until revoked: then nothing holds the program.
        assert checker.revoke_assertion(forged) is False
        del forged
        assert text not in held(nonce)

    def test_a_request_scoped_credential_leaves_nothing(self, nonce):
        session = KeyNoteSession()
        session.add_policy(policy(nonce))
        session.add_credential(signed("Kuser0", texts(nonce)[0]))
        checker = session.checker
        fresh = f'op=="fresh" && nonce!="{nonce}"'
        extras = [signed("Kproxy", texts(nonce)[0]), signed("Kproxy", fresh)]
        for extra in extras:
            session.query({"app": "grid", "op": "run"}, ["Kproxy"],
                          extra_credentials=[extra])
        assert not any(extra in checker for extra in extras)
        # The shared text's program is the admitted credential's.
        assert extras[0].conditions is checker.assertions[1].conditions
        del extras, extra
        assert sorted(held(nonce)) == sorted(
            [policy(nonce).conditions_text, texts(nonce)[0]])

    def test_keycom_updates_with_distinct_roles_leave_the_table(self, nonce):
        plane = ServePolicyPlane()
        admin = KeyPair.generate("shared-programs-admin")
        plane.session.add_policy(
            f'Authorizer: POLICY\nLicensees: "{admin.public.encode()}"\n'
            'Conditions: app_domain=="WebCom";')
        domain = plane.middleware.domain
        for index in range(500):
            role = f"R{index}"
            credential = Credential.build(
                admin.public.encode(), '"Kmember"',
                f'app_domain=="WebCom" && Domain=="{domain}"'
                f' && Role=="{role}" && nonce!="{nonce}"').sign(admin.private)
            reply = plane.keycom_update({
                "user": f"user{index}", "user_key": "Kmember",
                "domain": domain, "role": role,
                "credentials": [credential.to_text()],
                "request_id": f"install-{index}"})
            assert reply["applied"]
        del credential
        # Only the requests KeyCom keeps still hold their programs.
        assert len(held(nonce)) == PROCESSED_WINDOW
        assert plane.session.credentials == []
