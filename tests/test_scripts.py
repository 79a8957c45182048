"""The advertised experiments run end to end: the loopback demo in both
flavors (the only script that drives ``HttpFetcher``, ``HttpTransport`` and
the stub server together), a small seeded campaign through ``atsa fuzz``, and
the standard-library smoke check, which imports neither ``cryptography`` nor
``click``.
Each runs as a subprocess in development mode with resource warnings as
errors."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "command, verdict",
    [
        ([str(ROOT / "scripts" / "demo_loopback.py"), "--flavor", "enclaved"], "chain check: intact"),
        ([str(ROOT / "scripts" / "demo_loopback.py"), "--flavor", "open"], "chain check: intact"),
        (["-m", "atsa.cli", "fuzz", "--seed", "1", "--per-category", "2"], "result: PASS"),
        ([str(ROOT / "scripts" / "stdlib_smoke.py")], "stdlib smoke: ok"),
    ],
    ids=["demo-enclaved", "demo-open", "campaign", "stdlib-smoke"],
)
def test_script_runs_clean(command, verdict):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    completed = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error::ResourceWarning", *command],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert completed.returncode == 0, completed.stderr
    assert verdict in completed.stdout
    # A leak at interpreter exit is printed, not raised, and leaves the exit code 0.
    assert "ResourceWarning" not in completed.stderr
