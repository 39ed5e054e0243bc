"""Spans recorded from outside the package, by wrapping the names it calls.

A span is one call of a wrapped function: its name, its duration and the
span that was open when it started.  Spans are folded into per-name totals
as they close (an hpath pool makes hundreds of thousands of DFS calls, too
many to keep one record each); a span's self time is its duration minus the
durations of the spans it directly contains.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter

import cds_forge
import cds_forge.solver

# Public calls the benchmark makes or the solver makes on its behalf, and the
# kernels cds_forge.solver imports into its own namespace.  Patching the name
# in the module that calls it attributes exactly that module's calls.
SOLVER_HOOKS = (
    "greedy_phase1",
    "phase2_merge",
    "verify_certificate",
    "_dfs_splits",
    "induced_components",
    "split_counts",
    "restricted_shortest_path",
    "snapshot",
)
PACKAGE_HOOKS = ("read_edge_list", "exact_min_cds", "verify_certificate")


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.ms = defaultdict(float)
        self.self_ms = defaultdict(float)
        self.calls_under = defaultdict(int)  # (parent, name) -> calls
        self.dfs_vertices = 0
        self.missing: list[str] = []
        self._stack: list[list] = []  # [name, child seconds]
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name, fn):
        stack = self._stack
        calls, ms, self_ms, under = self.calls, self.ms, self.self_ms, self.calls_under

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                calls[name] += 1
                under[(parent, name)] += 1
                ms[name] += dt * 1000.0
                self_ms[name] += (dt - frame[1]) * 1000.0
                if name == "_dfs_splits":
                    self.dfs_vertices += len(args[1] if len(args) > 1 else kwargs["s"])

        return traced

    def install(self):
        """Patch the hooks; a hook the package no longer has is recorded in
        `missing` so its metrics are reported absent instead of failing."""
        targets = [(cds_forge.solver, n) for n in SOLVER_HOOKS]
        targets += [(cds_forge, n) for n in PACKAGE_HOOKS]
        for module, name in targets:
            fn = getattr(module, name, None)
            if fn is None:
                self.missing.append(name)
                continue
            self._patched.append((module, name, fn))
            setattr(module, name, self.wrap(name, fn))

    def uninstall(self):
        for module, name, fn in reversed(self._patched):
            setattr(module, name, fn)
        self._patched.clear()
