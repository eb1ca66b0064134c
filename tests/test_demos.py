"""The narrative demos run end to end."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", ["worked_example.py", "hierarchy_tour.py",
                                  "sampling_convergence.py"])
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    r = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], env=env,
                       capture_output=True, text=True, timeout=300)
    assert r.returncode == 0, r.stderr
