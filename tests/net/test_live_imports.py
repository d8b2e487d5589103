"""Live processes do not import numpy.

Only ``LinearRegressionCalibrator.fit`` uses numpy, and the live runtime
runs with calibration off; every cluster child that imported it anyway
paid ~0.2 s of CPU and ~15 MB of RSS at start-up.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"


def test_live_entry_points_leave_numpy_unimported():
    code = ("import sys\n"
            "import repro.net.server, repro.gateway.cluster, repro.chaos\n"
            "print(sorted(m for m in sys.modules"
            " if m == 'numpy' or m.startswith('numpy.')))\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
