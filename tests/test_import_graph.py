"""Importing the command line loads numpy alone, and loads it whole.

spherelab's runtime needs no scipy: importing scipy.fft alone pulls in
scipy.special, about a third of a second and over 20 MB that every run
would pay at start-up.  The numpy submodules the experiments use
(numpy.random, numpy.polynomial.legendre) load on first use, so they are
imported up front: an experiment that loaded them mid-run would pay for
them in its own timings.
"""

import functools
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
START_UP = ("numpy.random", "numpy.polynomial.legendre")


@functools.cache
def _modules_after_cli_import():
    code = "import sys; import spherelab.cli; print('\\n'.join(sys.modules))"
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_cli_import_loads_no_scipy():
    modules = _modules_after_cli_import()
    assert sorted(m for m in modules if m == "scipy" or m.startswith("scipy.")) == []


def test_cli_import_loads_start_up_numpy_modules():
    modules = _modules_after_cli_import()
    assert [m for m in START_UP if m not in modules] == []
