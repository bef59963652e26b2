"""Every script under ``examples/`` runs to completion.

Each runs in a fresh interpreter with ``PYTHONPATH=src``, as its
docstring tells a reader to run it, so an API change that breaks an
example fails here.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
_EXAMPLES = sorted((_ROOT / "examples").glob("*.py"))


@pytest.mark.parametrize("script", _EXAMPLES, ids=lambda path: path.stem)
def test_example_runs(script):
    env = dict(os.environ, PYTHONPATH=str(_ROOT / "src"))
    done = subprocess.run([sys.executable, str(script)], cwd=_ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
