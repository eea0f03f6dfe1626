"""Every name a spherelab module exports in __all__ is defined there, and
something in the package uses it, as it does every module-level function
and class, private ones included.

A deletion that leaves a stale export breaks only `from module import *`,
which no code path runs; the first check makes it fail here instead.  An
export or a helper that only tests reach is code the lab never runs (a
refactor can leave one behind); the second check keeps such names out of
src; a test oracle lives with the tests that use it.
The lab is fixed at S^3 in C^2, so the third check keeps dimension
parameters out of the public signatures.
"""

import ast
import importlib
import inspect
import pkgutil
from collections import defaultdict
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


def _loads(tree):
    """name -> the lines where the tree loads it, bare or as an attribute."""
    lines = defaultdict(set)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            lines[node.id].add(node.lineno)
        elif isinstance(node, ast.Attribute):
            lines[node.attr].add(node.lineno)
    return lines


def test_exports_used_in_src():
    trees = {path: ast.parse(path.read_text()) for path in SRC.glob("*.py")}
    checked = {(Path(importlib.import_module(module_name).__file__), name)
               for module_name, name in _exports()}
    checked |= {(path, node.name) for path, tree in trees.items() for node in tree.body
                if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    loads = {path: _loads(tree) for path, tree in trees.items()}
    unused = []
    for home, name in sorted(checked):
        skip = _definition_lines(trees[home], name)
        if not any(line not in skip or path != home
                   for path in trees for line in loads[path][name]):
            unused.append(f"{home.stem}.{name}")
    assert not unused, f"defined or exported, but nothing in src uses them: {unused}"


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
