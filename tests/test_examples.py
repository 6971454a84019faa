"""Every script under ``examples/`` runs to completion.

Each example is the project's own walk-through of one public surface; a
refactor that breaks one would otherwise go unnoticed, since no other
test imports them.  Each runs in a fresh interpreter with ``src`` on the
path (as with the package installed) and a scratch working directory.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def test_the_examples_are_found():
    assert len(EXAMPLES) >= 6


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.name)
def test_the_example_exits_cleanly(script, tmp_path):
    source = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ,
           "PYTHONPATH": source + (os.pathsep + path if path else "")}
    finished = subprocess.run([sys.executable, str(script)], cwd=tmp_path,
                              env=env, capture_output=True, text=True,
                              timeout=120)
    assert finished.returncode == 0, finished.stdout + finished.stderr
