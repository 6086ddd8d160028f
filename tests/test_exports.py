"""Every exported name resolves, and the package re-exports only names that
some module exports, so a deletion cannot leave a dangling export."""

import importlib

import pytest

import kmmix

MODULES = ["chain", "cli", "coupling", "mixing", "orthopoly", "spectral"]


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"kmmix.{name}")
    missing = [export for export in module.__all__ if not hasattr(module, export)]
    assert not missing, missing
    assert len(set(module.__all__)) == len(module.__all__)


def test_package_exports_resolve_and_come_from_a_module():
    assert all(hasattr(kmmix, export) for export in kmmix.__all__)
    exported = {}
    for name in MODULES:
        module = importlib.import_module(f"kmmix.{name}")
        exported.update((export, getattr(module, export)) for export in module.__all__)
    # the package's own names (its version) are dunders
    strays = [export for export in kmmix.__all__ if not export.startswith("__")
              and (export not in exported or getattr(kmmix, export) is not exported[export])]
    assert not strays, strays
