"""The deterministic scripts print exactly their recorded output.

``tests/data`` holds the stdout of ``scripts/extension_catalog.py``,
``scripts/profile_atlas.py`` and ``scripts/cli_snapshot.py``; a change that
moves any catalog entry, witness, line profile, or the value, witness or
first violator of a bound that the CLI prints shows up here as a text
difference.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name", ["extension_catalog", "profile_atlas", "cli_snapshot"])
def test_script_stdout_matches_snapshot(name):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / f"{name}.py")],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (ROOT / "tests" / "data" / f"{name}.out").read_text()
