"""spherelab runs BLAS on one thread, so its outputs do not depend on how
many threads OpenBLAS would use: a threaded dot or gemv splits its
reduction by the thread count, which moves the last digits of the node
sums that CSV bodies print in full."""

import ctypes
import os
import subprocess
import sys

import pytest

from spherelab import _accel

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
GET_NUM_THREADS = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads")


def _openblas_threads():
    """The thread count of the OpenBLAS mapped into this process, read
    through its own get_num_threads, or None when none is mapped."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line[line.find("/"):].strip() for line in fh if "openblas" in line})
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in GET_NUM_THREADS:
            if hasattr(lib, name):
                get = getattr(lib, name)
                get.argtypes, get.restype = [], ctypes.c_int
                return get()
    return None


def test_import_pins_openblas_to_one_thread():
    threads = _openblas_threads()
    if threads is None:
        pytest.skip("numpy loaded no OpenBLAS")
    assert threads == 1
    assert _accel.blas_threads() == 1


def _lp_closed_csv(tmp_path, threads):
    config = tmp_path / "small.ini"
    config.write_text("[quadrature]\nrefine_depth = 2\n")
    out = tmp_path / f"threads{threads}"
    env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS=str(threads))
    proc = subprocess.run([sys.executable, "-m", "spherelab.cli", "lp-closed",
                           "--config", str(config), "--out", str(out)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return (out / "lp-closed.csv").read_bytes()


def test_csv_bodies_do_not_depend_on_blas_threads(tmp_path):
    # at this size the two-thread OpenBLAS splits lp-closed's node
    # reductions when spherelab leaves its thread count alone
    assert _lp_closed_csv(tmp_path, 1) == _lp_closed_csv(tmp_path, 2)
