"""The deterministic scripts and CLI commands print exactly their recorded output.

``tests/data`` holds the stdout of ``scripts/extension_catalog.py`` and
``scripts/profile_atlas.py``; a change that moves any catalog entry, witness
or line profile shows up here as a text difference. ``cli_snapshot.out``
holds the stdout and exit code of ``delta --json``, ``check --delta 4`` and
``check --delta 2`` on the six constructions at delta 5, rank 7, and the
sporadic matrix, so a change to the identity-anchored scan that moves a
value, a witness or a first violator of a bound shows up the same way.
"""

import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from deltamod import build_A, build_A_lee, partitions, sporadic_rank3
from deltamod.cli import run

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name", ["extension_catalog", "profile_atlas"])
def test_script_stdout_matches_snapshot(name):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / f"{name}.py")],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (ROOT / "tests" / "data" / f"{name}.out").read_text()


def cli_snapshot(tmp_dir: Path) -> str:
    """``delta --json`` and ``check --delta 4|2`` on each snapshot matrix: a
    ``$`` line naming the command, its stdout, then its exit code."""
    mats = [(f"A(5, {p}, 7)", build_A(5, p, 7).matrix) for p in partitions(4)]
    mats += [("A_lee(5, 7)", build_A_lee(5, 7).matrix), ("sporadic", sporadic_rank3())]
    out = []
    for name, m in mats:
        path = tmp_dir / "m.txt"
        path.write_text(m.to_text())
        for argv in (["delta", "--json"], ["check", "--delta", "4"], ["check", "--delta", "2"]):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = run(argv + [str(path)])
            out.append(f"$ {' '.join(argv)} {name}\n{buf.getvalue()}exit {code}\n")
    return "".join(out)


def test_cli_stdout_matches_snapshot(tmp_path):
    assert cli_snapshot(tmp_path) == (ROOT / "tests" / "data" / "cli_snapshot.out").read_text()
