import os
import subprocess
import sys
from pathlib import Path

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def test_certificate_demos_run():
    # these demos exercise the dense pencils, the implicit DnC operators and
    # every certificate test end to end
    env = dict(os.environ)
    src = str(DEMOS.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    for name in ("03_certificates.py", "05_discrete_time.py", "06_divide_and_conquer.py"):
        proc = subprocess.run([sys.executable, str(DEMOS / name)], capture_output=True,
                              text=True, env=env, timeout=300)
        assert proc.returncode == 0, f"{name} failed:\n{proc.stderr}"
