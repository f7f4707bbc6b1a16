"""Spans and call counts around drmin's public functions, from outside.

The tracer replaces module and class attributes with wrappers at the
places where callers look the names up (``drmin.cli.validate`` rather
than ``drmin.weierstrass.validate`` for the CLI's calls), so drmin carries
no tracing code.  A span records (name, start, end, parent, op); a counter
only counts calls, for functions called too often to time one by one.
A target that no longer exists is skipped and listed in ``missing``; the
metrics that depend only on it are then reported as absent, as are the
counts of a hook that fails on changed arguments or results.
"""

from __future__ import annotations

import functools
import importlib
import os
import time


def _grid_nodes(args, kwargs, index):
    grid = kwargs.get("grid", args[index] if len(args) > index else None)
    return grid.nu * grid.nv


def _after_validate(tracer, args, kwargs, result):
    tracer.add("weierstrass.nodes", _grid_nodes(args, kwargs, 2))
    tracer.add("weierstrass.nodes_masked", int((~result.node_ok).sum()))


def _after_march(marches):
    # each march order takes nu*nv - 1 RK4 steps: the base line plus
    # one line per node on it
    def after(tracer, args, kwargs, result):
        tracer.add("synthesis.rk4_steps", marches * (_grid_nodes(args, kwargs, 2) - 1))

    return after


def _after_mesh_write(tracer, args, kwargs, result):
    tracer.add("synthesis.mesh_bytes", os.path.getsize(args[1]))


# (span name, dotted names to wrap, hook run after the call)
SPANS = [
    ("cli.validate", ["drmin.cli.cmd_validate"], None),
    ("cli.synthesize", ["drmin.cli.cmd_synthesize"], None),
    ("cli.verify", ["drmin.cli.cmd_verify"], None),
    ("cli.export", ["drmin.cli.cmd_export"], None),
    ("weierstrass.validate",
     ["drmin.cli.validate", "drmin.synthesis.validate", "drmin.weierstrass.validate"],
     _after_validate),
    ("weierstrass.report_csv", ["drmin.weierstrass.ValidationReport.to_csv"], None),
    ("expr.parse", ["drmin.expr.parse"], None),
    ("synthesis.synthesize", ["drmin.cli.synthesize", "drmin.synthesis.synthesize"],
     _after_march(1)),
    ("synthesis.path_independence",
     ["drmin.cli.path_independence", "drmin.synthesis.path_independence"], _after_march(2)),
    ("synthesis.mesh_write", ["drmin.synthesis.SurfaceMesh.to_csv"], _after_mesh_write),
    ("synthesis.mesh_read", ["drmin.synthesis.SurfaceMesh.from_csv"], None),
    ("verify.verify_mesh", ["drmin.cli.verify_mesh", "drmin.verify.verify_mesh"], None),
    ("verify.pullback", ["drmin.verify.pullback"], None),
    ("verify.tension_residual", ["drmin.verify.tension_residual"], None),
    ("verify.report_csv", ["drmin.verify.VerificationReport.to_csv"], None),
    ("presets.reference_error", ["drmin.cli.reference_error", "drmin.presets.reference_error"],
     None),
]

COUNTERS = [
    ("expr.evaluate_calls", ["drmin.expr.evaluate"]),
    ("spaces.frame_matrix_calls", ["drmin.synthesis.frame_matrix"]),
    ("spaces.metric_at_calls", ["drmin.verify.metric_at"]),
    ("spaces.christoffel_at_calls", ["drmin.verify.christoffel_at"]),
]

# counts derived from call arguments rather than observed inside drmin
COMPUTED_COUNTS = {
    "weierstrass.nodes": "nu*nv of the grid passed to each validate call",
    "synthesis.rk4_steps": "nu*nv - 1 per march order, from the grid passed in",
    "synthesis.mesh_bytes": "size on disk of each mesh CSV written",
}


def _resolve(path):
    """(owner, attribute name) for a dotted name, or None if a part is gone."""
    parts = path.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for part in parts[cut:-1]:
            owner = getattr(owner, part, None)
        return (owner, parts[-1]) if owner is not None else None
    return None


class Tracer:
    """Installs wrappers, and records while ``active`` is true."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op index]
        self.counts = {}
        self.present = set()  # span and counter names with at least one target
        self.missing = []
        self.failed_hooks = set()  # spans whose counting hook raised
        self.active = False
        self.op = -1
        self._stack = []
        self._patches = []

    def add(self, name, amount):
        self.counts[name] = self.counts.get(name, 0) + amount

    def install(self):
        for name, targets, after in SPANS:
            for target in targets:
                self._patch(target, name, lambda fn, name=name, after=after: self._span(fn, name, after))
        for name, targets in COUNTERS:
            for target in targets:
                self._patch(target, name, lambda fn, name=name: self._counter(fn, name))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, target, name, make):
        found = _resolve(target)
        raw = vars(found[0]).get(found[1]) if found else None
        if raw is None:
            if target not in self.missing:
                self.missing.append(target)
            return
        self.present.add(name)
        if isinstance(raw, classmethod):
            wrapped = classmethod(make(raw.__func__))
        else:
            wrapped = make(raw)
        self._patches.append((found[0], found[1], raw))
        setattr(found[0], found[1], wrapped)

    def _span(self, fn, name, after):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            record = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1, tracer.op]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(record)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                tracer._stack.pop()
            if after is not None:
                try:
                    after(tracer, args, kwargs, result)
                except Exception:  # e.g. a changed signature: drop the counts
                    tracer.failed_hooks.add(name)
            return result

        return wrapper

    def _counter(self, fn, name):
        tracer = self
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.active:
                counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    # -- reductions over the recorded spans --------------------------------

    # ``scale`` maps an op index to the factor its times are reported with

    def total(self, name, scale):
        return sum((end - start) * scale[op] for n, start, end, _, op in self.spans if n == name)

    def self_time(self, name, scale):
        """Span time of ``name`` minus the time its direct children cover."""
        own = {i for i, s in enumerate(self.spans) if s[0] == name}
        children = sum((end - start) * scale[op]
                       for _, start, end, parent, op in self.spans if parent in own)
        return self.total(name, scale) - children
