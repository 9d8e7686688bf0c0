"""Span tracing for the benchmark's traced runs, installed from outside the package.

Every public function of interest is replaced in each ``nematicflow`` module
that binds it (``constitutive`` lives in ``physics``, ``solver`` and
``diagnostics``), and each method on its class, so no call bypasses the
wrapper.  A span is ``[name, parent, start, end, bytes]``; spans are appended
when they open, so a parent always precedes its children, and they stay in
memory until the benchmark writes them out.

Sweep members run in pool workers.  Workers forked from a traced process
inherit the wrappers; the member wrapper sends the worker's spans back inside
the member summary and the pool wrapper grafts them under the calling span.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
import os
import sys
import time

SPANS_KEY = "_perfbench_spans"
STEP = "solver.step_pair"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._pid = os.getpid()
        self._undo: list[tuple] = []

    # -- wrappers ------------------------------------------------------------

    def wrap(self, name, fn, transform_bytes=False):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, clock(), 0.0, 0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[3] = clock()
            if transform_bytes:
                rec[4] = args[-1].nbytes + out.nbytes
            return out
        return traced

    def _wrap_member(self, fn):
        traced = self.wrap("cli.sweep_member", fn)

        @functools.wraps(fn)
        def member(payload):
            if os.getpid() == self._pid:
                return traced(payload)
            self.spans.clear()
            self._stack.clear()
            summary = traced(payload)
            summary[SPANS_KEY] = list(self.spans)
            return summary
        return member

    def _pool_class(self, base):
        tracer = self

        class TracedPool(base):
            def map(self, fn, *iterables, **kwargs):
                for summary in super().map(fn, *iterables, **kwargs):
                    tracer.adopt(summary.pop(SPANS_KEY, None))
                    yield summary
        return TracedPool

    def adopt(self, child_spans):
        """Graft spans recorded in a worker under the currently open span."""
        if not child_spans:
            return
        offset = len(self.spans)
        here = self._stack[-1] if self._stack else -1
        for name, parent, start, end, nbytes in child_spans:
            self.spans.append([name, parent + offset if parent >= 0 else here,
                               start, end, nbytes])

    # -- installation ----------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind_everywhere(self, fn, wrapped):
        for modname, mod in list(sys.modules.items()):
            if modname.split(".")[0] != "nematicflow" or mod is None:
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._set(mod, attr, wrapped)

    def install(self):
        import nematicflow.cli as cli
        from nematicflow import coeffs, config, diagnostics, physics, solver, spectral

        grid = spectral.SpectralGrid
        for op in ("fft", "ifft"):
            self._set(grid, op, self.wrap(f"spectral.{op}", getattr(grid, op), True))
        for op in ("dealias", "gradient", "div_tensor", "leray", "truncate_modes"):
            self._set(grid, op, self.wrap(f"spectral.{op}", getattr(grid, op)))
        self._set(grid, "__init__", self.wrap("spectral.grid_init", grid.__init__))
        self._set(solver.Stepper, "step_pair",
                  self.wrap(STEP, solver.Stepper.step_pair))
        self._set(solver.Stepper, "__init__",
                  self.wrap("solver.stepper_init", solver.Stepper.__init__))
        monitor = diagnostics.BlowupMonitorState
        self._set(monitor, "update", self.wrap("diagnostics.monitor_update", monitor.update))

        for name, fn in (
            ("physics.constitutive", physics.constitutive),
            ("physics.momentum_rhs", physics.momentum_rhs),
            ("physics.director_rhs", physics.director_rhs),
            ("diagnostics.channels", diagnostics.channels),
            ("diagnostics.write_timeseries", diagnostics.write_timeseries),
            ("cli.save_snapshot", spectral.save_snapshot),
            ("solver.run", solver.run),
            ("config.parse", config.parse_config_text),
            ("coeffs.validate", coeffs.validate),
            ("config.build_initial_state", config.build_initial_state),
        ):
            self._rebind_everywhere(fn, self.wrap(name, fn))

        self._set(cli, "_sweep_member", self._wrap_member(cli._sweep_member))
        self._set(cli, "ProcessPoolExecutor", self._pool_class(cli.ProcessPoolExecutor))
        self._set(cli, "json", _JsonWithTracedDump(self.wrap("cli.manifest_dump", json.dump)))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


class _JsonWithTracedDump:
    """Stands in for the ``json`` module inside ``nematicflow.cli``."""

    def __init__(self, dump):
        self.dump = dump

    def __getattr__(self, attr):
        return getattr(json, attr)


# -- analysis ------------------------------------------------------------------

SAMPLE_NAMES = ("physics.constitutive", "diagnostics.channels", "diagnostics.monitor_update")


def summarise(spans):
    """Per span name (zeros for names never seen): calls and transform bytes
    inside and outside step_pair, inclusive and self seconds, and durations;
    plus the seconds spent sampling (the outermost constitutive, channels and
    monitor spans outside step_pair).
    """
    n = len(spans)
    in_step = [False] * n
    child = [0.0] * n
    for i, (name, parent, start, end, _) in enumerate(spans):
        if parent >= 0:
            in_step[i] = in_step[parent] or spans[parent][0] == STEP
            child[parent] += end - start
    per_name = defaultdict(lambda: {"calls_step": 0, "calls_sample": 0, "bytes_step": 0,
                                    "total_s": 0.0, "self_s": 0.0, "durations": []})
    sample_s = 0.0
    for i, (name, parent, start, end, nbytes) in enumerate(spans):
        s = per_name[name]
        s["calls_step" if in_step[i] else "calls_sample"] += 1
        if in_step[i]:
            s["bytes_step"] += nbytes
        elif name in SAMPLE_NAMES and (parent < 0 or spans[parent][0] not in SAMPLE_NAMES):
            sample_s += end - start
        s["total_s"] += end - start
        s["self_s"] += end - start - child[i]
        s["durations"].append(end - start)
    return per_name, sample_s
