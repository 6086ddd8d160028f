"""Span tracing of kmmix from outside the package, and the per-layer metrics
derived from the spans.

A Tracer wraps target functions by identity: every binding of a target's
function object in every loaded kmmix module is replaced by one wrapper, so
a name imported into another module (cli's `from .mixing import tv_exact`)
is traced as well, and uninstall puts every original back.  A target whose
module or function no longer exists is reported as absent instead of
stopping the run.  Spans are kept in memory and summarised after the pass.
"""

import importlib
import inspect
import statistics
import sys
import time
from typing import Callable, NamedTuple, Optional


class Target(NamedTuple):
    span: str                   # span name, also the metric prefix
    module: str
    name: str
    count: Optional[Callable] = None  # (arg, result) -> {counter: increment}


def _size(x):
    return getattr(x, "size", 1)


def _active_steps(arg, curve):
    """Replica-steps taken while uncoupled: the replicas still apart at the
    start of each step t = 1..horizon, read from the survival curve."""
    replicas = arg("replicas")
    active = sum(round(float(s) * replicas) for s in curve.survival[:-1])
    return {"active_steps": active, "slots": replicas * arg("horizon")}


TARGETS = [
    Target("cli.main", "kmmix.cli", "main"),
    Target("cli.emit", "kmmix.cli", "_emit_doc"),
    Target("chain.evolve", "kmmix.chain", "evolve", lambda arg, _: {"steps": arg("t")}),
    Target("chain.tv_oracle", "kmmix.chain", "tv_oracle"),
    Target("orthopoly.q_values", "kmmix.orthopoly", "q_values",
           lambda arg, _: {"points": _size(arg("x"))}),
    Target("orthopoly.q_bracket_matrix", "kmmix.orthopoly", "q_bracket_matrix",
           lambda arg, _: {"cells": (arg("n_max") + 1) * _size(arg("x"))}),
    Target("spectral.build_measure", "kmmix.spectral", "build_measure"),
    Target("spectral.integrate_psi", "kmmix.spectral", "integrate_psi"),
    Target("spectral.ac_fixed", "kmmix.spectral", "_ac_fixed",
           lambda arg, _: {"nodes": arg("n_nodes") - 1}),
    Target("mixing.tv_exact", "kmmix.mixing", "tv_exact"),
    Target("mixing.series_cutoff", "kmmix.mixing", "_series_cutoff",
           lambda arg, result: {"terms": result[0] + 1}),
    Target("mixing.tv_series_fixed", "kmmix.mixing", "_tv_series_fixed",
           lambda arg, _: {"node_terms": (arg("n_cut") + 1) * (arg("n_nodes") - 1)}),
    Target("mixing.kernel_spectral", "kmmix.mixing", "kernel_spectral"),
    Target("mixing.t_mix", "kmmix.mixing", "t_mix"),
    Target("coupling.simulate", "kmmix.coupling", "_simulate", _active_steps),
    Target("coupling.uniforms", "kmmix.coupling", "_uniforms",
           lambda arg, _: {"draws": arg("replicas")}),
    Target("coupling.step", "kmmix.coupling", "_step"),
]

# Errors counted as mixing.errors when they propagate through any span.
ERROR_TYPES = [("kmmix.spectral", "QuadratureError"), ("kmmix.mixing", "ConvergenceError"),
               ("kmmix.mixing", "RouteDisagreement")]


class Stats:
    """Totals of one span name over a pass."""

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.counts = {}


class Recording:
    """The spans of one traced pass: [target index, start, end, parent]."""

    def __init__(self, names):
        self.names = names
        self.spans = []
        self.stack = []
        self.counts = [{} for _ in names]
        self.errors = []

    def _self_times(self) -> list:
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [(end - start) - c for (_, start, end, _), c in zip(self.spans, child)]

    def summary(self) -> dict:
        stats = {name: Stats() for name in self.names}
        for (idx, _, _, _), own in zip(self.spans, self._self_times()):
            s = stats[self.names[idx]]
            s.calls += 1
            s.self_s += own
        for name, counts in zip(self.names, self.counts):
            stats[name].counts = dict(counts)
        return stats

    def by_root(self) -> list:
        """For each top-level span (one per CLI job): its duration and the
        self time of every span name under it."""
        roots, root_of = [], []
        for _, start, end, parent in self.spans:
            if parent < 0:
                roots.append((end - start, {}))
            root_of.append(len(roots) - 1 if parent < 0 else root_of[parent])
        for (idx, _, _, _), own, r in zip(self.spans, self._self_times(), root_of):
            split = roots[r][1]
            split[self.names[idx]] = split.get(self.names[idx], 0.0) + own
        return roots

    def calls_within(self, inner: str, outer: str) -> int:
        """Calls of span `inner` that have a span `outer` among their callers."""
        i_in, i_out = self.names.index(inner), self.names.index(outer)
        found = 0
        for idx, _, _, parent in self.spans:
            if idx != i_in:
                continue
            while parent >= 0 and self.spans[parent][0] != i_out:
                parent = self.spans[parent][3]
            found += parent >= 0
        return found

    def to_json(self) -> dict:
        return {"names": self.names, "spans": self.spans,
                "errors": [repr(e) for e in self.errors]}


class Tracer:
    def __init__(self, targets=TARGETS):
        self.targets = list(targets)
        self.absent = []
        self._saved = []  # (module, attribute, original)

    def install(self) -> Recording:
        """Wrap every target found and return the Recording it fills."""
        self.absent = []
        found = []
        for target in self.targets:
            try:
                fn = getattr(importlib.import_module(target.module), target.name, None)
            except ImportError:
                fn = None
            if callable(fn):
                found.append((target, fn))
            else:
                self.absent.append(f"{target.module}.{target.name}")
        rec = Recording([t.span for t, _ in found])
        errors = tuple(e for e in (getattr(sys.modules.get(m), n, None) for m, n in ERROR_TYPES)
                       if isinstance(e, type))
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "kmmix" or name.startswith("kmmix."))]
        for idx, (target, fn) in enumerate(found):
            wrapper = _wrap(fn, idx, target.count, rec, errors)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._saved.append((mod, attr, fn))
                        setattr(mod, attr, wrapper)
        return rec

    def uninstall(self):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved = []


def _arg_getter(fn):
    params = list(inspect.signature(fn).parameters.values())
    position = {p.name: i for i, p in enumerate(params)}
    defaults = {p.name: p.default for p in params}

    def bind(args, kwargs):
        def arg(name):
            i = position[name]
            return args[i] if i < len(args) else kwargs.get(name, defaults[name])
        return arg
    return bind


def _wrap(fn, idx, count, rec, errors):
    bind = _arg_getter(fn) if count else None
    spans, stack, counts = rec.spans, rec.stack, rec.counts[idx]
    clock = time.perf_counter

    def wrapper(*args, **kwargs):
        span = [idx, 0.0, 0.0, stack[-1] if stack else -1]
        stack.append(len(spans))
        spans.append(span)
        span[1] = clock()
        try:
            result = fn(*args, **kwargs)
        except errors as exc:
            if not any(e is exc for e in rec.errors):
                rec.errors.append(exc)
            raise
        finally:
            span[2] = clock()
            stack.pop()
        if count:
            for key, value in count(bind(args, kwargs), result).items():
                counts[key] = counts.get(key, 0) + value
        return result

    return wrapper


# ---- per-layer metrics -----------------------------------------------------

def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(recs: list, overhead_s: float) -> dict:
    """Per-layer metrics of a workload from its traced passes: counts from the
    first pass (they repeat exactly), self times as medians over the passes.
    Returns {name: (value, unit)}; a span whose target was absent reads 0."""
    stats = [rec.summary() for rec in recs]
    first, rec0 = stats[0], recs[0]

    def count(span, key="calls"):
        if span not in first:
            return 0
        return first[span].calls if key == "calls" else first[span].counts.get(key, 0)

    def self_s(*span_names):
        return statistics.median(sum(s[n].self_s for n in span_names if n in s)
                                 for s in stats)

    if "mixing.tv_exact" in rec0.names and "mixing.t_mix" in rec0.names:
        tv_evals = rec0.calls_within("mixing.tv_exact", "mixing.t_mix")
    else:
        tv_evals = 0
    draws = count("coupling.uniforms", "draws")
    active = count("coupling.simulate", "active_steps")
    return {
        "cli.self_s": (self_s("cli.main", "cli.emit"), "s"),
        "chain.evolve.calls": (count("chain.evolve"), "count"),
        "chain.evolve.steps": (count("chain.evolve", "steps"), "count"),
        "chain.evolve.self_s": (self_s("chain.evolve"), "s"),
        "chain.tv_oracle.calls": (count("chain.tv_oracle"), "count"),
        "chain.tv_oracle.self_s": (self_s("chain.tv_oracle"), "s"),
        "orthopoly.q_values.calls": (count("orthopoly.q_values"), "count"),
        "orthopoly.q_values.points": (count("orthopoly.q_values", "points"), "count"),
        "orthopoly.q_values.self_s": (self_s("orthopoly.q_values"), "s"),
        "orthopoly.q_bracket_matrix.calls": (count("orthopoly.q_bracket_matrix"), "count"),
        "orthopoly.q_bracket_matrix.cells": (count("orthopoly.q_bracket_matrix", "cells"),
                                             "count"),
        "orthopoly.q_bracket_matrix.self_s": (self_s("orthopoly.q_bracket_matrix"), "s"),
        "spectral.integrate_psi.calls": (count("spectral.integrate_psi"), "count"),
        "spectral.integrate_psi.self_s": (self_s("spectral.integrate_psi"), "s"),
        "spectral.ac_fixed.passes": (count("spectral.ac_fixed"), "count"),
        "spectral.ac_fixed.nodes": (count("spectral.ac_fixed", "nodes"), "count"),
        "spectral.ac_fixed.self_s": (self_s("spectral.ac_fixed"), "s"),
        "spectral.doubling_ratio": (_ratio(count("spectral.ac_fixed"),
                                           count("spectral.integrate_psi")), "ratio"),
        "spectral.build_measure.calls": (count("spectral.build_measure"), "count"),
        "mixing.tv_exact.calls": (count("mixing.tv_exact"), "count"),
        "mixing.tv_exact.self_s": (self_s("mixing.tv_exact"), "s"),
        "mixing.series_cutoff.calls": (count("mixing.series_cutoff"), "count"),
        "mixing.series_cutoff.self_s": (self_s("mixing.series_cutoff"), "s"),
        "mixing.series_terms": (count("mixing.series_cutoff", "terms"), "count"),
        "mixing.tv_series_fixed.passes": (count("mixing.tv_series_fixed"), "count"),
        "mixing.tv_series_fixed.node_terms": (count("mixing.tv_series_fixed", "node_terms"),
                                              "count"),
        "mixing.tv_series_fixed.self_s": (self_s("mixing.tv_series_fixed"), "s"),
        "mixing.tv_doubling_ratio": (_ratio(count("mixing.tv_series_fixed"),
                                            count("mixing.tv_exact")), "ratio"),
        "mixing.kernel_spectral.calls": (count("mixing.kernel_spectral"), "count"),
        "mixing.kernel_spectral.self_s": (self_s("mixing.kernel_spectral"), "s"),
        "mixing.t_mix.calls": (count("mixing.t_mix"), "count"),
        "mixing.t_mix.tv_evals": (tv_evals, "count"),
        "mixing.errors": (len(rec0.errors), "count"),
        "coupling.simulate.self_s": (self_s("coupling.simulate"), "s"),
        "coupling.uniforms.calls": (count("coupling.uniforms"), "count"),
        "coupling.uniforms.draws": (draws, "count"),
        "coupling.uniforms.self_s": (self_s("coupling.uniforms"), "s"),
        "coupling.step.calls": (count("coupling.step"), "count"),
        "coupling.step.self_s": (self_s("coupling.step"), "s"),
        "coupling.active_ratio": (_ratio(active, count("coupling.simulate", "slots")),
                                  "ratio"),
        "coupling.draws_per_active_step": (_ratio(draws, active), "ratio"),
        "trace.overhead_s": (overhead_s, "s"),
    }
