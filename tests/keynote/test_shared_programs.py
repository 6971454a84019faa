"""Each distinct Conditions shape is parsed and compiled once per process.

:data:`repro.keynote.credential.PROGRAMS` maps a shape key
(:func:`~repro.keynote.tokens.template`: the token stream with each
string literal compared with a lone attribute left as a slot) to the
shape parsed for it, weakly: ``Credential.build`` reads and fills it
whichever path presents the text (recovery, a wire add or revoke, a
KeyCom install, a request-scoped credential), and ``compile_conditions``
keeps a shape's closures on the shape.  A credential keeps the shape and
its binding (the slotted literals); ``Credential.conditions`` builds the
concrete tree on demand.  An entry leaves when the last credential
holding its shape is freed.

The tests count parses and compiles instead of timing them.  Every text
a test counts carries a ``nonce`` unique to that test: an attribute
named after the test (a conjunct no request sets, so it never changes a
verdict), which makes the shape the test's own.  The test checks the
table holds none of its shapes before it counts: no other live holder
can make a parse look shared.
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
from repro.keynote.tokens import template
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
    """An attribute name unique to the running test."""
    return request.node.name


def texts(nonce: str) -> tuple[str, ...]:
    return tuple(f'{conditions} && {nonce}!="-"' for conditions in TEMPLATES)


def shape_key(text: str) -> tuple:
    return template(text)[0]


def policy(nonce: str) -> Credential:
    return Credential.build("POLICY", f'"{SIGNER.public.encode()}"',
                            f'app=="grid" && {nonce}!="-"')


def signed(licensee: str, conditions: str, comment: str = "") -> Credential:
    return Credential.build(SIGNER.public.encode(), f'"{licensee}"',
                            conditions, comment=comment).sign(SIGNER.private)


def universe(n: int, nonce: str) -> list[Credential]:
    """``n`` distinct credentials sharing ``len(TEMPLATES)`` texts."""
    conditions = texts(nonce)
    return [signed(f"Kuser{i}", conditions[i % len(conditions)])
            for i in range(n)]


def held(nonce: str) -> list[tuple]:
    """The table's shape keys that carry ``nonce``."""
    gc.collect()
    return [key for key in list(PROGRAMS) if nonce in key]


def count_parses(monkeypatch) -> Counter:
    """Conditions parses by text: a shape's, or a program with
    Local-Constants."""
    calls: Counter = Counter()
    parse_shape = credential_module.parse_shape
    parse_conditions = credential_module.parse_conditions

    def counting_shape(text, key):
        calls[text] += 1
        return parse_shape(text, key)

    def counting_conditions(text, constants=None):
        calls[text] += 1
        return parse_conditions(text, constants)

    monkeypatch.setattr(credential_module, "parse_shape", counting_shape)
    monkeypatch.setattr(credential_module, "parse_conditions",
                        counting_conditions)
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
        shapes = {id(assertion.shape)
                  for assertion in node.session.checker.assertions}
        assert len(shapes) == len(expected) == len(held(nonce))

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
        conditions = f'op == R && {nonce} != "-"'
        text = ('KeyNote-Version: 2\nLocal-Constants: R = "run"\n'
                'Authorizer: POLICY\nLicensees: "Ka"\n'
                f'Conditions: {conditions};\n')
        with_constants = [Credential.from_text(text),
                          Credential.from_text(text.replace('"Ka"', '"Kb"'))]
        plain = Credential.build("POLICY", '"Kc"', conditions)
        assert plain.conditions_text == with_constants[0].conditions_text
        assert PROGRAMS[shape_key(plain.conditions_text)] is plain.shape
        assert len({id(plain.shape),
                    *(id(c.shape) for c in with_constants)}) == 3
        assert [c.binding for c in with_constants] == [(), ()]
        # A constant the program never reads leaves it equal to the plain
        # one; it still parses its own.
        unused = Credential.from_text(
            'Local-Constants: X = "x"\nAuthorizer: POLICY\n'
            f'Licensees: "Kd"\nConditions: {conditions};\n')
        assert unused.conditions == plain.conditions
        assert unused.shape is not plain.shape
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
        conditions = f'op == R && {nonce} != "-"'
        with_constants = Credential.from_text(
            'Local-Constants: R = "run"\nAuthorizer: POLICY\n'
            f'Licensees: "Ka"\nConditions: {conditions};\n')
        assert held(nonce) == []
        plain = Credential.from_text(
            f'Authorizer: POLICY\nLicensees: "Ka"\nConditions: {conditions};\n')
        assert held(nonce) == [shape_key(plain.conditions_text)]
        assert PROGRAMS[shape_key(plain.conditions_text)] is plain.shape
        assert with_constants.conditions != plain.conditions

    def test_whitespace_inside_a_literal_is_not_shared(self):
        """The two texts share a shape, but each binding keeps its
        literal as written."""
        wide = Credential.build("POLICY", '"Ka"', 'x == "a  b"')
        narrow = Credential.build("POLICY", '"Kb"', 'x  ==\t"a b"')
        assert wide.conditions_text == 'x == "a  b"'
        assert narrow.conditions_text == 'x == "a b"'
        assert wide.conditions != narrow.conditions
        assert PROGRAMS[shape_key(wide.conditions_text)] is wide.shape
        assert wide.shape is narrow.shape
        assert (wide.binding, narrow.binding) == (("a  b",), ("a b",))
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
                                'spaced == "x  y"').sign(team.private).to_text()
        plane = ServePolicyPlane(root=tmp_path)
        plane.add_policy({"text": f'Authorizer: POLICY\n'
                                  f'Licensees: "{team.public.encode()}"\n'
                                  f'Conditions: app_domain=="grid";'})
        assert plane.add_credential({"text": text})["added"]

        def allowed(plane, value):
            return plane.mediate({
                "user": "u", "user_key": proxy, "object_type": "job",
                "operation": "run",
                "attributes": {"app_domain": "grid", "spaced": value}}
            )["allowed"]

        assert [allowed(plane, "x  y"), allowed(plane, "x y")] == [True, False]
        # crash: the WAL is not closed and no snapshot is written; with
        # the plane gone, recovery parses the journalled text's shape and
        # reads its literal
        del plane
        gc.collect()
        assert shape_key('spaced == "x  y"') not in PROGRAMS
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
        assert held(nonce) == [shape_key(policy(nonce).conditions_text)]
        parses = count_parses(monkeypatch)
        for text in proxies:
            assert plane.add_credential({"text": text})["added"]
        assert parses == Counter({texts(nonce)[1]: 1})
        shapes = {id(credential.shape)
                  for credential in plane.session.credentials}
        assert len(shapes) == 1
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
        text = shape_key(texts(nonce)[1])
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


class TestSharedBindings:
    """Credentials cut one after another from one template with equal
    literals hold one binding tuple: the shape keeps the last binding cut
    from it, and a credential whose literals equal it holds it."""

    def test_equal_literals_hold_one_binding(self, nonce):
        conditions = f'({TEMPLATES[1]} || op=="status") && {nonce}!="-"'
        proxies = [Credential.build(f"Kuser{i}", f'"Kproxy{i}"', conditions,
                                    comment=f"proxy {i}")
                   for i in range(1000)]
        assert len({id(proxy.binding) for proxy in proxies}) == 1
        assert proxies[0].binding == ("submit", "run", "status", "-")
        assert proxies[0].shape.last_binding is proxies[0].binding

    def test_distinct_literals_hold_their_own(self, nonce):
        members = [Credential.build("Kteam", f'"Kuser{i}"',
                                    f'subject=="u{i}" && {nonce}!="-"')
                   for i in range(1000)]
        assert len({id(member.shape) for member in members}) == 1
        assert len({id(member.binding) for member in members}) == 1000
        assert [member.binding for member in members] == \
            [(f"u{i}", "-") for i in range(1000)]

    def test_recovered_credentials_share_their_binding(self, tmp_path,
                                                       nonce):
        node = DurablePolicyNode.recover(tmp_path)
        node.session.add_policy(policy(nonce))
        conditions = texts(nonce)[1]
        for i in range(40):
            node.session.add_credential(
                signed(f"Kproxy{i}", conditions, f"proxy {i}"))
        node.snapshot()
        for i in range(40, 50):
            node.session.add_credential(
                signed(f"Kproxy{i}", conditions, f"proxy {i}"))
        node.close()
        node = DurablePolicyNode.recover(tmp_path)
        proxies = node.session.credentials
        assert len(proxies) == 50
        assert len({id(proxy.binding) for proxy in proxies}) == 1
        node.close()


class TestLifetime:
    def test_revoking_the_last_holder_removes_the_entry(self, nonce):
        credentials = universe(6, nonce)
        checker = ComplianceChecker([policy(nonce), *credentials])
        text = shape_key(credentials[0].conditions_text)  # also [3]'s
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
                                  f'op=="forged" && {nonce}!="-"'
                                  ).sign(FORGER.private)
        checker = ComplianceChecker([policy(nonce), forged])
        assert checker.verify_pending() == 0
        assert checker.discarded == [forged]
        assert checker.query({"app": "grid", "op": "forged"},
                             ["Kforged"]) == "false"
        text = shape_key(forged.conditions_text)
        # Held as discarded until revoked: then nothing holds the shape.
        assert checker.revoke_assertion(forged) is False
        del forged
        assert text not in held(nonce)

    def test_a_request_scoped_credential_leaves_nothing(self, nonce):
        session = KeyNoteSession()
        session.add_policy(policy(nonce))
        session.add_credential(signed("Kuser0", texts(nonce)[0]))
        checker = session.checker
        fresh = f'fresh=="yes" && {nonce}!="-"'
        extras = [signed("Kproxy", texts(nonce)[0]), signed("Kproxy", fresh)]
        for extra in extras:
            session.query({"app": "grid", "op": "run"}, ["Kproxy"],
                          extra_credentials=[extra])
        assert not any(extra in checker for extra in extras)
        # The shared template's shape is the admitted credential's.
        assert extras[0].shape is checker.assertions[1].shape
        del extras, extra
        assert sorted(held(nonce)) == sorted(
            [shape_key(policy(nonce).conditions_text),
             shape_key(texts(nonce)[0])])

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
                f' && Role=="{role}" && {nonce}!="-"').sign(admin.private)
            reply = plane.keycom_update({
                "user": f"user{index}", "user_key": "Kmember",
                "domain": domain, "role": role,
                "credentials": [credential.to_text()],
                "request_id": f"install-{index}"})
            assert reply["applied"]
        del credential
        # Every role shares one shape; the requests KeyCom keeps hold it
        # and each keeps only its own literals.
        assert len(held(nonce)) == 1
        kept = [request.credentials[0]
                for request, _ in plane.keycom.processed]
        assert len(kept) == PROCESSED_WINDOW
        assert {id(credential.shape) for credential in kept} == \
            {id(PROGRAMS[held(nonce)[0]])}
        assert len({credential.binding for credential in kept}) == \
            PROCESSED_WINDOW
        assert plane.session.credentials == []
        # The entry leaves with the last request that holds it.
        del kept
        plane.keycom.processed.clear()
        assert held(nonce) == []


class TestShapes:
    """Credentials cut from one template differ only in literals their
    shape leaves as slots: they share one tree and one compile, and each
    keeps its binding."""

    @pytest.mark.parametrize("text, key, literals", [
        ('subject=="u17"', ("subject", "==", None), ("u17",)),
        ('"u17" != subject', (None, "!=", "subject"), ("u17",)),
        ('a < "m" && (b >= "x" || !c == "y")',
         ("a", "<", None, "&&", "(", "b", ">=", None, "||", "!", "c", "==",
          None, ")"), ("m", "x", "y")),
        # a numeric literal, a pattern, a clause value, a folded
        # comparison, an operand of another operator and a reserved word
        # stay in the key
        ('a == "01"', ("a", "==", '"01"'), ()),
        ('a ~= "^x"', ("a", "~=", '"^x"'), ()),
        ('a == "x" -> "high"', ("a", "==", None, "->", '"high"'), ("x",)),
        ('"x" == "y"', ('"x"', "==", '"y"'), ()),
        ('a . "x" == "y"', ("a", ".", '"x"', "==", '"y"'), ()),
        ('a == "x" . b', ("a", "==", '"x"', ".", "b"), ()),
        ('true == "x"', ("true", "==", '"x"'), ()),
        ('$a == "x"', ("$", "a", "==", '"x"'), ()),
        # escapes are read, layout and comments are not tokens
        ('a  ==  "say \\"hi\\""  # note\n', ("a", "==", None),
         ('say "hi"',)),
        ('a == "x" # b == "y"\n && c == "z"  # d\n ',
         ("a", "==", None, "&&", "c", "==", None), ("x", "z")),
    ])
    def test_the_template_slots_literals_compared_with_an_attribute(
            self, text, key, literals):
        assert template(text) == (key, literals)

    def test_one_parse_and_one_compile_for_a_template(self, monkeypatch,
                                                      nonce):
        policy = Credential.build("POLICY", '"Kteam"', "true")
        ComplianceChecker([policy])
        parses = count_parses(monkeypatch)
        compiles = count_compiles(monkeypatch)
        members = [Credential.build("Kteam", f'"Kuser{i}"',
                                    f'subject=="u{i}" && {nonce}!="-"')
                   for i in range(40)]
        assert sum(parses.values()) == 1
        assert len({id(member.shape) for member in members}) == 1
        assert [member.binding for member in members] == \
            [(f"u{i}", "-") for i in range(40)]
        checker = ComplianceChecker([policy, *members],
                                    verify_signatures=False)
        assert sum(compiles.values()) == 1
        for member in members[:3]:
            assert member.conditions == credential_module.parse_conditions(
                member.conditions_text)
        # Each member is granted its own literal only.
        assert checker.query({"subject": "u7"}, ["Kuser7"]) == "true"
        assert checker.query({"subject": "u8"}, ["Kuser7"]) == "false"
        # The guard index reads its literal from each binding: the POLICY
        # and one member are read, not the other 39.
        assert checker.last_query_stats.assertions_visited == 2

    def test_the_benchmark_templates_hold_one_program_each(self):
        """The benchmark universe's 1000 team -> user credentials hold one
        compiled program, and its 10 org -> team credentials one."""
        orgs = [Credential.build(
            f"Korg{t % 4}", f'"Kteam{t}"',
            f'vo=="o{t % 4}" && group=="t{t}" '
            f'&& (op != "run" || job ~= "^job-[0-9]+$")')
            for t in range(10)]
        users = [Credential.build(f"Kteam{u % 10}", f'"Kuser{u}"',
                                  f'subject=="u{u}"') for u in range(1000)]
        policy = Credential.build(
            "POLICY", " || ".join(f'"Korg{o}"' for o in range(4)),
            'app_domain=="grid"')
        checker = ComplianceChecker([policy, *orgs, *users],
                                    verify_signatures=False)
        for group in (orgs, users):
            assert len({id(c.shape) for c in group}) == 1
            assert len({id(c.shape.compiled) for c in group}) == 1
        grid = {"app_domain": "grid", "vo": "o3", "group": "t7",
                "subject": "u17", "op": "run", "job": "job-1"}
        assert checker.query(grid, ["Kuser17"]) == "true"
        assert checker.query({**grid, "subject": "u27"},
                             ["Kuser17"]) == "false"
        assert checker.query({**grid, "job": "x"}, ["Kuser17"]) == "false"

    def test_a_keycom_install_of_a_fresh_role_compiles_nothing(
            self, monkeypatch, nonce):
        plane = ServePolicyPlane()
        admin = KeyPair.generate("shared-programs-admin")
        plane.session.add_policy(
            f'Authorizer: POLICY\nLicensees: "{admin.public.encode()}"\n'
            'Conditions: app_domain=="WebCom";')
        domain = plane.middleware.domain

        def install(index: int) -> None:
            text = Credential.build(
                admin.public.encode(), '"Kmember"',
                f'app_domain=="WebCom" && Domain=="{domain}"'
                f' && Role=="R{index}" && {nonce}!="-"'
            ).sign(admin.private).to_text()
            assert plane.keycom_update({
                "user": f"user{index}", "user_key": "Kmember",
                "domain": domain, "role": f"R{index}",
                "credentials": [text],
                "request_id": f"install-{index}"})["applied"]

        install(0)
        parses = count_parses(monkeypatch)
        compiles = count_compiles(monkeypatch)
        for index in range(1, 6):
            install(index)
        assert parses == Counter()
        assert compiles == Counter()
        assert len(held(nonce)) == 1
