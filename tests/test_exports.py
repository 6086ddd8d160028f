"""Every exported name resolves, and the package re-exports only names that
some module exports, so a deletion cannot leave a dangling export.  Every
kmmix module and name the bench scripts import resolves too, so a deletion
fails here rather than in every bench job."""

import ast
import importlib
import pathlib

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


def bench_imports() -> list:
    """(script, module, name) for each kmmix import in bench/*.py, name None
    for a plain `import kmmix.module`."""
    found = []
    for path in sorted((pathlib.Path(__file__).resolve().parent.parent / "bench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "kmmix":
                found += [(path.name, node.module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                found += [(path.name, alias.name, None) for alias in node.names
                          if alias.name.split(".")[0] == "kmmix"]
    return found


def test_bench_imports_resolve():
    found = bench_imports()
    assert ("checks.py", "kmmix.chain", "tv_oracle") in found
    missing = []
    for script, module, name in found:
        try:
            resolved = importlib.import_module(module)
        except ImportError:
            missing.append((script, module))
            continue
        if name is not None and not hasattr(resolved, name):
            missing.append((script, f"{module}.{name}"))
    assert not missing, missing
