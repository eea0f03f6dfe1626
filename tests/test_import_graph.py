"""Importing the command line loads only the scipy subpackages it uses.

scipy.integrate alone pulls in scipy.optimize, scipy.linalg,
scipy.sparse.linalg and scipy.spatial, about a third of a second and
~24 MB that every run pays at start-up; this check catches the next
import that brings them back.
"""

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
UNWANTED = ("scipy.integrate", "scipy.optimize", "scipy.linalg", "scipy.sparse.linalg",
            "scipy.spatial")


def test_cli_import_leaves_heavy_scipy_out():
    code = ("import sys; import spherelab.cli; "
            f"print(','.join(m for m in {UNWANTED!r} if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""
