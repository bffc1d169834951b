"""The experiment scripts run to completion and print their report."""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).parent.parent / "scripts"


@pytest.mark.parametrize("name", ["completion_experiment.py", "pleat_square_demo.py",
                                  "triangle_counterexample.py"])
def test_script_runs(name):
    proc = subprocess.run([sys.executable, str(SCRIPTS / name)], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
