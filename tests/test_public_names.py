"""Tests for the package's public surface: one list of names per module."""

import ast
import importlib
from itertools import combinations
from pathlib import Path

import structsolve as ss

MODULES = ("cauchy_gko", "core", "dft", "diagnostics", "oracle", "sweep", "testgen", "toeplitz")
SRC = Path(ss.__file__).parent


def _module(name):
    return importlib.import_module(f"structsolve.{name}")


def _all(name):
    return _module(name).__all__


def test_module_name_lists_are_pairwise_disjoint():
    # the package star-imports each module, so a name in two lists would
    # silently take the later module's object
    for a, b in combinations(MODULES, 2):
        assert not set(_all(a)) & set(_all(b)), (a, b)


def test_package_exports_the_sorted_union_of_the_module_lists():
    union = [name for module in MODULES for name in _all(module)]
    assert ss.__all__ == sorted(union)
    for module in MODULES:
        for name in _all(module):
            assert getattr(ss, name) is getattr(_module(module), name), name


def test_every_module_is_star_imported_by_the_package():
    found = {path.stem for path in SRC.glob("*.py")} - {"__init__", "cli"}
    assert found == set(MODULES)


def _imported_modules(path):
    tree = ast.parse(path.read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.module:
                yield node.module.rsplit(".", 1)[-1]
            else:
                yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from (alias.name.rsplit(".", 1)[-1] for alias in node.names)


def test_only_the_sweep_and_the_package_import_the_oracle():
    # the dense references check the library; the library itself takes its
    # dense matrices from core, and only the sweep's cond column needs GE/PP
    importers = {
        path.name for path in SRC.glob("*.py") if "oracle" in _imported_modules(path)
    }
    assert importers == {"__init__.py", "sweep.py"}
