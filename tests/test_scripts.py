"""Smoke tests: every script under scripts/ runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "argv",
    [
        ["hardness_demo.py", "--items", "4", "--seed", "1"],
        ["nash_welfare_demo.py"],
        ["run_random_suite.py", "--count", "3"],
    ],
    ids=lambda argv: argv[0],
)
def test_script_exits_0(argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
