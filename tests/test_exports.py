"""Every name a spherelab module exports in __all__ is defined there.

A deletion that leaves a stale export breaks only `from module import *`,
which no code path runs; this check makes it fail here instead.
"""

import importlib
import pkgutil

import pytest

import spherelab


def _exports():
    modules = [spherelab] + [importlib.import_module(f"spherelab.{info.name}")
                             for info in pkgutil.iter_modules(spherelab.__path__)]
    return [(module.__name__, name) for module in modules
            for name in getattr(module, "__all__", ())]


@pytest.mark.parametrize("module_name, name", _exports())
def test_export_resolves(module_name, name):
    assert hasattr(importlib.import_module(module_name), name)
