"""Smoke test: every script under demos/ runs to completion."""

from pathlib import Path
import os
import subprocess
import sys

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert DEMOS  # an empty glob would leave test_demo_runs with no case


@pytest.mark.parametrize("script", DEMOS, ids=[path.name for path in DEMOS])
def test_demo_runs(script, tmp_path):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.run(
        [sys.executable, str(script)], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
