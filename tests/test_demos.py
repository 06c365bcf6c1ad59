"""Every walkthrough under demos/ runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import qeclab

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_the_demos_are_found():
    assert len(DEMOS) >= 7


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(tmp_path, demo):
    # in a child process with a timeout, so that a hang fails the test
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(qeclab.__file__)))
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path,
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr[-3000:]
    assert proc.stdout
    assert proc.stderr == ""
