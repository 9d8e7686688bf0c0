"""The benchmark's tracer patches package attributes by name.

perfbench/tracing.py replaces functions and methods of ``nematicflow`` by
name for its traced runs.  Installing it here makes a rename or deletion of
any of those names fail this suite, not only a traced benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

import nematicflow.cli  # the tracer patches cli too
from nematicflow import (BlowupMonitorState, SpectralGrid, Stepper, TimeStepperConfig,
                         run)

from conftest import smooth_state

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


def test_step_pair_traces_constitutive_and_both_rhs(grid2d, alpha_one):
    """One traced step records exactly one constitutive, one momentum_rhs and
    one director_rhs span, each a child of the step's span, so the per-layer
    RHS self times measure the code the step runs."""
    st = smooth_state(grid2d, alpha_one, seed=3)
    stepper = Stepper(grid2d, alpha_one, TimeStepperConfig(dt=1e-3, t_end=0.01))
    tracer = _load_tracing().Tracer()
    try:
        tracer.install()
        stepper.step_pair(st)
    finally:
        tracer.uninstall()
    names = [span[0] for span in tracer.spans]
    step = names.index("solver.step_pair")
    children = [name for name, parent, *_ in tracer.spans if parent == step]
    for name in ("physics.constitutive", "physics.momentum_rhs", "physics.director_rhs"):
        assert names.count(name) == 1, (name, names)
        assert children.count(name) == 1, (name, children)


def test_run_traces_one_channels_and_monitor_span_per_sample(grid2d, alpha_one):
    """A traced run() records one channels and one monitor_update span per
    sample, taken inside the steps or of the final state, and one
    constitutive span per step plus one for the final sample.  The
    benchmark's per-layer metrics divide by the monitor spans, and refuse a
    traced run that has none."""
    st = smooth_state(grid2d, alpha_one, seed=3)
    tracer = _load_tracing().Tracer()
    try:
        tracer.install()
        traj = run(st, TimeStepperConfig(dt=1e-3, t_end=7e-3), cadence=3)
    finally:
        tracer.uninstall()
    names = [span[0] for span in tracer.spans]
    assert traj.sample_steps == [0, 3, 6, 7]
    assert names.count("diagnostics.channels") == len(traj.reports) == 4
    assert names.count("diagnostics.monitor_update") == len(traj.monitor.times) == 4
    assert names.count("physics.constitutive") == traj.n_steps + 1


SWEEP_CFG = """\
[grid]
dim = 2
n = 16

[coefficients]
alpha = 1.0
nu = 1.0

[initial_condition]
preset = perturbed-director
amplitude = 0.1

[stepper]
dt = 0.001
t_end = 0.004

[run]
seed = 5
"""


def test_traced_parallel_sweep_returns_every_members_spans(tmp_path):
    """A 2-member `sweep --threads 2` under the tracer maps through its
    subclass of cli.ProcessPoolExecutor: each worker's solver.run span comes
    back to the calling process, one per member."""
    cfg = tmp_path / "sweep.ini"
    cfg.write_text(SWEEP_CFG)
    tracer = _load_tracing().Tracer()
    try:
        tracer.install()
        rc = nematicflow.cli.main(["sweep", "--config", str(cfg), "--axis", "dt",
                                   "--values", "0.001,0.0005", "--threads", "2",
                                   "--output-dir", str(tmp_path / "out")])
    finally:
        tracer.uninstall()
    assert rc == 0
    names = [span[0] for span in tracer.spans]
    assert names.count("cli.sweep_member") == names.count("solver.run") == 2, names
