"""Every demo script runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_demos_run():
    demos = sorted((ROOT / "demos").glob("*.py"))
    assert demos
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    for demo in demos:
        done = subprocess.run(
            [sys.executable, str(demo)], env=env, capture_output=True,
            text=True, timeout=120,
        )
        assert done.returncode == 0, (demo.name, done.stderr)
