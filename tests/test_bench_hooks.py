"""Every hook the traced benchmark run installs still resolves.

``bench/daemon.py --trace-out`` wraps each function listed in its
``TRACED`` table and patches a few more hooks before it starts the
daemon; a name that no longer exists crashes the traced run.  The table
is read from the source with :func:`ast.literal_eval` (the bench module
is not imported), and each entry is resolved the way ``Tracer.install``
resolves it: a dotted path's last part must sit in its owner's own
``__dict__``.
"""

import ast
import importlib
from pathlib import Path

import pytest

DAEMON = Path(__file__).resolve().parent.parent / "bench" / "daemon.py"


def _traced_table() -> list:
    tree = ast.parse(DAEMON.read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets]
                == ["TRACED"]):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED table in {DAEMON}")


TRACED = _traced_table()


def test_the_table_is_read():
    assert TRACED
    assert all(len(entry) == 3 for entry in TRACED)


@pytest.mark.parametrize("module_name,path,span", TRACED,
                         ids=[span for _module, _path, span in TRACED])
def test_traced_entry_resolves(module_name, path, span):
    module = importlib.import_module(module_name)
    owner_name, _, attr = path.rpartition(".")
    owner = getattr(module, owner_name) if owner_name else module
    assert attr in vars(owner), f"{module_name}.{path} ({span}) is gone"
    raw = vars(owner)[attr]
    assert callable(getattr(raw, "__func__", raw))


def test_the_patched_hooks_resolve():
    import repro.serve.server as server
    from repro.crypto.keystore import (SIGNATURE_CACHE,
                                       SignatureVerificationCache)

    assert callable(server.decode_frame)
    assert callable(vars(server.ReproServer)["start"])
    assert callable(vars(SignatureVerificationCache)["verify"])
    assert isinstance(SIGNATURE_CACHE.misses, int)
    assert set(SIGNATURE_CACHE.stats()) >= {"misses"}
