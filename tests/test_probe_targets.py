"""Every function the benchmark tracer wraps still exists where it looks.

`perfbench/tracer.py` rebinds each `(module, path)` of its PROBES list; a
renamed or inherited target makes `perfbench/run.py --trace 1` crash, so
the lookup is checked here, the way `tracer.install` performs it.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _probes():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(module, path) for module, path, _, _ in tracer.PROBES]


@pytest.mark.parametrize("module_name, path", _probes())
def test_probe_target_resolves(module_name, path):
    module = importlib.import_module(module_name)
    if "." in path:
        cls_name, attr = path.split(".")
        # install() reads the class's own __dict__: an inherited method fails
        assert attr in vars(getattr(module, cls_name)), path
    else:
        assert callable(getattr(module, path)), path
