import os
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", sorted(p.name for p in DEMOS.glob("*.py")))
def test_certificate_demos_run(name, tmp_path):
    # the demos exercise the dense pencils, the implicit DnC operators, every
    # certificate test and the solvers end to end; they run in a scratch
    # directory because some write CSV files there
    env = dict(os.environ)
    src = str(DEMOS.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    proc = subprocess.run([sys.executable, str(DEMOS / name)], capture_output=True,
                          text=True, env=env, cwd=tmp_path, timeout=300)
    assert proc.returncode == 0, f"{name} failed:\n{proc.stderr}"
