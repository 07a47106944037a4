"""Import-graph guard: the command path never loads ``scipy.stats``.

Importing ``scipy.stats`` takes longer than importing the rest of ``repro``
together; the library needs only the Student-t tails, which it takes from
``scipy.special``.  Helpers off the command path import ``scipy.stats``
lazily.  This test runs the real commands in a fresh interpreter and fails if a
module-scope import brings it back.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)

PROBE = """
import contextlib, io, json, sys

import repro
import repro.cli

loaded = {"import": sorted(m for m in sys.modules if m.startswith("scipy.stats"))}
for argv in (  # 0.02 is the "tiny" scale alias
    ["analyze", "--scale", "0.02"],
    ["filter", "--scale", "0.02", "--json"],
):
    with contextlib.redirect_stdout(io.StringIO()):
        code = repro.cli.main(argv)
    if code:
        raise SystemExit(f"{argv} exited with {code}")
    loaded[" ".join(argv)] = sorted(m for m in sys.modules if m.startswith("scipy.stats"))
print(json.dumps(loaded))
"""


def test_commands_never_import_scipy_stats():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", PROBE],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.strip().splitlines()[-1])
    offenders = {stage: mods for stage, mods in loaded.items() if mods}
    assert not offenders, f"scipy.stats loaded on the command path: {offenders}"
