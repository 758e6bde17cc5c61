"""``python -m toricfrob`` runs the CLI from a source checkout."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _run_module(*argv):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-m", "toricfrob", *argv],
        env=env, capture_output=True, text=True, timeout=60,
    )


def test_module_help_exits_0():
    result = _run_module("--help")
    assert result.returncode == 0
    assert "usage" in result.stdout


def test_module_refuses_composite_p():
    result = _run_module("cech", "incidence", "--a", "2", "--b", "-4", "--p", "4")
    assert result.returncode == 1
    assert result.stdout == ""
    assert "not prime" in result.stderr
