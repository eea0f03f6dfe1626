"""Every function the benchmark tracer wraps still exists where it looks.

`perfbench/tracer.py` rebinds each `(module, path)` of its PROBES list; a
renamed or inherited target makes `perfbench/run.py --trace 1` crash, so
the lookup is checked here, the way `tracer.install` performs it, and so
are the parameter names at the positions its hooks read.
"""

import importlib
import importlib.util
import inspect
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


# Hooks that read arguments by position, with the parameter names they
# expect there: a reordered signature keeps its name and would silently
# feed the hook the wrong argument.
POSITIONAL_HOOKS = [
    ("spherelab.forms", "PolyForm.evaluate", {1: "points"}),
    ("spherelab._accel", "regularized_sums", {0: "weights", -1: "deltas"}),
    ("spherelab._accel", "log_regularized_sums", {0: "weights", -1: "deltas"}),
    ("spherelab._accel", "band_power_sum", {0: "q", 1: "ms"}),
    ("spherelab.ensemble", "NodeEvaluator.values", {0: "self", 1: "a"}),
    ("spherelab.ensemble", "NodeEvaluator.slot1_sums", {0: "self", 1: "a"}),
]


@pytest.mark.parametrize("module_name, path, expected", POSITIONAL_HOOKS)
def test_hooked_argument_positions(module_name, path, expected):
    assert (module_name, path) in _probes()
    target = importlib.import_module(module_name)
    for part in path.split("."):
        target = getattr(target, part)
    names = list(inspect.signature(target).parameters)
    assert {i: names[i] for i in expected} == expected, path
