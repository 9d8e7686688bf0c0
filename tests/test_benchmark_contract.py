"""The benchmark's tracer patches package attributes by name.

perfbench/tracing.py replaces functions and methods of ``nematicflow`` by
name for its traced runs.  Installing it here makes a rename or deletion of
any of those names fail this suite, not only a traced benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

import nematicflow.cli  # noqa: F401  (the tracer patches cli too)
from nematicflow import BlowupMonitorState, SpectralGrid, Stepper

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _namespaces():
    modules = [mod for name, mod in sorted(sys.modules.items())
               if name.split(".")[0] == "nematicflow" and mod is not None]
    return modules + [SpectralGrid, Stepper, BlowupMonitorState]


def test_tracer_installs_and_restores_every_attribute():
    owners = _namespaces()
    before = [dict(vars(owner)) for owner in owners]
    original_fft = SpectralGrid.fft
    tracer = _load_tracing().Tracer()
    try:
        tracer.install()
        assert SpectralGrid.fft is not original_fft
    finally:
        tracer.uninstall()
    for owner, saved in zip(owners, before):
        now = dict(vars(owner))
        assert now.keys() == saved.keys(), owner
        changed = [name for name in saved if now[name] is not saved[name]]
        assert changed == [], (owner, changed)
