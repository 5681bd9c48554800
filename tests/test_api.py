"""The public API is consistent: every name the package declares resolves."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import congrlab

# __main__ runs the CLI on import, so it is not a library module
MODULES = sorted(
    info.name
    for info in pkgutil.iter_modules(congrlab.__path__, "congrlab.")
    if not info.name.endswith(".__main__")
)


def _package_imports():
    """(module, name) for every `from .module import name` in __init__.py."""
    tree = ast.parse(Path(congrlab.__file__).read_text())
    return [
        (f"congrlab.{node.module}", alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names what the module lacks: {missing}"


def test_package_imports_resolve():
    imports = _package_imports()
    assert imports
    for module_name, name in imports:
        assert hasattr(importlib.import_module(module_name), name), (module_name, name)
        assert hasattr(congrlab, name), name


@pytest.mark.parametrize(
    "owner, name",
    [
        (congrlab.harmonic, "DomainTooSmall"),
        (congrlab.HarmonicTable, "value"),
        (congrlab.PowerSumTable, "value"),
    ],
    ids=["DomainTooSmall", "HarmonicTable.value", "PowerSumTable.value"],
)
def test_deleted_api_stays_deleted(owner, name):
    # the lemma suites index a table's `h` tuple, zero-padded past H_{p-1},
    # and every reader of a power-sum table indexes its `sums` tuple, so no
    # index check or past-the-end query is left to export
    assert not hasattr(owner, name)
    assert not hasattr(congrlab, name)
