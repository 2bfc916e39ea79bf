"""Smoke tests: every script under scripts/ runs to completion."""

import os
import runpy
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


def test_hardness_demo_exits_1_on_a_mismatch(monkeypatch, capsys):
    import gapfair

    monkeypatch.setattr(gapfair, "solve_knapsack_via_fefx", lambda kp, probe_trace: -1)
    monkeypatch.setattr(sys, "argv", ["hardness_demo.py", "--items", "3"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(ROOT / "scripts" / "hardness_demo.py"), run_name="__main__")
    assert exc.value.code == 1
    assert "matches DP: False" in capsys.readouterr().out


def test_paired_bench_against_itself(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "paired_bench.py"), str(ROOT),
         "--count", "2", "--repeats", "2", "--imports", "2"],
        env=env,
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert "2 instances x 2 runs per side, outputs identical" in lines[0]
    assert lines[1].startswith("pipeline change/parent ratio ")
    assert lines[2].startswith("import   change/parent ratio ")
