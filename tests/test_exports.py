"""Every exported name resolves, and the package re-exports only names that
some module exports, so a deletion cannot leave a dangling export.  Every
kmmix module and name the bench scripts import resolves too, and so does
every target of the bench tracer but a pinned few, with every parameter its
counter reads, so a deletion or a rename fails here rather than in every
bench job."""

import ast
import importlib
import inspect
import pathlib

import pytest

import kmmix

MODULES = ["chain", "cli", "coupling", "mixing", "orthopoly", "spectral"]
BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


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
    for path in sorted(BENCH.glob("*.py")):
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


# bench/tracing.py targets the package no longer has; their per-layer
# metrics read 0 until the tracer is pointed at the code that does the work
ABSENT_TARGETS = {"chain.evolve", "orthopoly.q_values", "spectral.ac_fixed", "mixing.tv_exact",
                  "mixing.series_cutoff", "mixing.tv_series_fixed", "mixing.kernel_spectral"}


def tracer_targets() -> list:
    """(span, module, name, reads) of each Target in bench/tracing.py's
    TARGETS, reads being the parameter names its counter takes by arg("...")."""
    tree = ast.parse((BENCH / "tracing.py").read_text())
    functions = {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    targets = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                   and getattr(node.targets[0], "id", None) == "TARGETS")
    found = []
    for call in targets.elts:
        span, module, name = (ast.literal_eval(node) for node in call.args[:3])
        counter = call.args[3] if len(call.args) > 3 else None
        if isinstance(counter, ast.Name):  # a counter defined as a function
            counter = functions[counter.id]
        reads = {ast.literal_eval(node.args[0]) for node in ast.walk(counter or ast.Module([], []))
                 if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "arg"}
        found.append((span, module, name, reads))
    return found


def test_bench_tracer_targets_resolve():
    # a target that stops resolving zeroes its per-layer metrics silently, and
    # a counter reading a renamed parameter crashes the traced run
    found = tracer_targets()
    assert ("orthopoly.q_bracket_matrix", "kmmix.orthopoly", "q_bracket_matrix",
            {"n_max", "x"}) in found
    absent, unknown = set(), []
    for span, module, name, reads in found:
        target = getattr(importlib.import_module(module), name, None)
        if target is None:
            absent.add(span)
            continue
        parameters = inspect.signature(target).parameters
        unknown += [(span, read) for read in sorted(reads) if read not in parameters]
    assert absent == ABSENT_TARGETS
    assert not unknown, unknown
