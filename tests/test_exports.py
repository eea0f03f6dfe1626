"""Every name a spherelab module exports in __all__ is defined there, and
something in the package uses it.

A deletion that leaves a stale export breaks only `from module import *`,
which no code path runs; the first check makes it fail here instead.  An
export that only tests reach is code the lab never runs; the second check
keeps such names out of src; a test oracle lives with the tests that use it.
The lab is fixed at S^3 in C^2, so the third check keeps dimension
parameters out of the public signatures.
"""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import spherelab

SRC = Path(spherelab.__file__).parent


def _exports():
    modules = [spherelab] + [importlib.import_module(f"spherelab.{info.name}")
                             for info in pkgutil.iter_modules(spherelab.__path__)]
    return [(module.__name__, name) for module in modules
            for name in getattr(module, "__all__", ())]


@pytest.mark.parametrize("module_name, name", _exports())
def test_export_resolves(module_name, name):
    assert hasattr(importlib.import_module(module_name), name)


def _definition_lines(tree, name):
    """Line span of the module-level definition or assignment of name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name:
            return range(node.lineno, node.end_lineno + 1)
        targets = node.targets if isinstance(node, ast.Assign) else []
        if any(isinstance(t, ast.Name) and t.id == name for t in targets):
            return range(node.lineno, node.end_lineno + 1)
    return range(0)


def _used(path, name, skip):
    """Whether a source file loads name (bare or as an attribute) outside
    the line span skip."""
    return any(((isinstance(node, ast.Name) and node.id == name
                 and isinstance(node.ctx, ast.Load))
                or (isinstance(node, ast.Attribute) and node.attr == name))
               and node.lineno not in skip
               for node in ast.walk(ast.parse(path.read_text())))


def test_exports_used_in_src():
    unused = []
    for module_name, name in _exports():
        home = Path(importlib.import_module(module_name).__file__)
        skip = _definition_lines(ast.parse(home.read_text()), name)
        if not any(_used(path, name, skip if path == home else range(0))
                   for path in SRC.glob("*.py")):
            unused.append(f"{module_name}.{name}")
    assert not unused, f"exported, but nothing in src uses them: {unused}"


def _public_functions():
    """(qualified name, function) of every exported function and class,
    the classes' public methods, classmethods and __init__ included."""
    out = []
    for module_name, name in _exports():
        obj = getattr(importlib.import_module(module_name), name)
        if inspect.isfunction(obj):
            out.append((f"{module_name}.{name}", obj))
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if attr.startswith("_") and attr != "__init__":
                    continue
                member = getattr(member, "__func__", member)  # class/static methods
                if inspect.isfunction(member):
                    out.append((f"{module_name}.{name}.{attr}", member))
    return out


def test_no_dimension_parameters():
    offenders = [qualname for qualname, fn in _public_functions()
                 if {"n", "ncplx", "dim"} & set(inspect.signature(fn).parameters)]
    assert not offenders, f"public signatures with a dimension parameter: {offenders}"
