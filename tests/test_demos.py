"""Every demo script runs to completion as a user would run it."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    # run in a scratch directory, which also takes their temporary files:
    # demos write plots and run outputs, and leave them for the reader
    env["TMPDIR"] = str(tmp_path)
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_experiment_harness_demo_removes_its_temp_dir(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    work, temp = tmp_path / "cwd", tmp_path / "tmp"
    work.mkdir()
    temp.mkdir()
    env["TMPDIR"] = str(temp)
    demo = ROOT / "demos" / "05_experiment_harness.py"
    proc = subprocess.run([sys.executable, str(demo)], cwd=work, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert list(temp.iterdir()) == []
