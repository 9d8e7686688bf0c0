"""Time stepping: fixed points, invariant maintenance, convergence, blow-up paths."""

import json
import math
from dataclasses import astuple

import numpy as np
import pytest

import nematicflow.diagnostics
import nematicflow.solver
from nematicflow import (BlowUpError, FieldState, LeslieCoefficients,
                         ParameterError, RegularizationConfig, RegimeError,
                         Stepper, TimeStepperConfig, case2_lower_bound_check,
                         constitutive, eta_margin, from_alpha,
                         reconstruct_pressure, run, step)
from nematicflow.cli import main
from nematicflow.config import (build_coefficients, build_grid,
                                build_initial_state, build_regularization,
                                build_stepper_config, parse_config_text,
                                taylor_green_velocity)
from nematicflow.spectral import random_band_limited

from conftest import _full_transform_reference, box_mask, smooth_state


# 3D non-Parodi Case 2 set
CASE2 = LeslieCoefficients(lambda1=-1.0, lambda2=0.2, mu1=0.5, mu2=-0.5,
                           mu3=0.5, mu4=1.0, mu5=0.6, mu6=0.4)


def quiescent(grid, coeffs):
    d = np.zeros((3,) + grid.shape)
    d[2] = 1.0
    return FieldState(grid=grid, coeffs=coeffs, time=0.0,
                      u=np.zeros((grid.dim,) + grid.shape), d=d)


def test_config_validation():
    with pytest.raises(ParameterError):
        TimeStepperConfig(dt=0.0, t_end=1.0)
    with pytest.raises(ParameterError):
        TimeStepperConfig(dt=2.0, t_end=1.0)
    with pytest.raises(ParameterError):
        TimeStepperConfig(dt=1e-3, t_end=1.0, scheme="rk4")
    with pytest.raises(ParameterError):
        TimeStepperConfig(dt=1e-3, t_end=1.0, max_vorticity_sup=0.0)


def test_quiescent_is_bitwise_fixed_point(grid2d, alpha_one):
    st = quiescent(grid2d, alpha_one)
    cfg = TimeStepperConfig(dt=1e-3, t_end=0.05)
    stepper = Stepper(grid2d, alpha_one, cfg)
    cur = st
    for _ in range(50):
        cur, _ = stepper.step_pair(cur)
    assert np.array_equal(cur.u, st.u)
    assert np.array_equal(cur.d, st.d)


def test_stepper_rejects_bad_regime(grid2d):
    from nematicflow import LeslieCoefficients
    bad = LeslieCoefficients(lambda1=-1.0, lambda2=0.0, mu1=0.0, mu2=-0.5,
                             mu3=0.5, mu4=0.0, mu5=0.0, mu6=0.0)
    with pytest.raises(RegimeError):
        Stepper(grid2d, bad, TimeStepperConfig(dt=1e-3, t_end=0.01))


def test_step_preserves_mean_velocity_and_divergence(grid2d, alpha_one):
    st = smooth_state(grid2d, alpha_one, seed=1)
    mean0 = [grid2d.mean(st.u[i]) for i in range(2)]
    cfg = TimeStepperConfig(dt=5e-4, t_end=0.02)
    traj = run(st, cfg, cadence=10)
    fin = traj.final_state
    for i in range(2):
        assert grid2d.mean(fin.u[i]) == pytest.approx(mean0[i], abs=1e-13)
    assert grid2d.sup_norm(grid2d.divergence(fin.u)) < 1e-10
    # fields stay band-limited
    uhat = grid2d.fft(fin.u)
    assert np.max(np.abs(uhat[:, ~box_mask(grid2d, grid2d.band)])) < 1e-10


@pytest.mark.parametrize("scheme,lo,hi", [
    ("semi-implicit-euler", 0.9, 1.4),
    ("imex-bdf2", 1.7, 2.3),
])
def test_temporal_order(grid2d, scheme, lo, hi):
    c = from_alpha(1.0, 1.0)
    rng = np.random.default_rng(2)
    u0 = taylor_green_velocity(grid2d, 0.1)
    d0 = np.zeros((3,) + grid2d.shape)
    d0[2] = 1.0
    d0 += 0.05 * random_band_limited(grid2d, 3, 2, rng)
    T = 0.04

    def final(dt):
        st = FieldState(grid=grid2d, coeffs=c, time=0.0, u=u0, d=d0)
        tr = run(st, TimeStepperConfig(dt=dt, t_end=T, scheme=scheme), cadence=10 ** 9)
        return tr.final_state

    ref = final(T / 1024)
    dts = [T / 16, T / 32, T / 64]
    errs = [grid2d.l2_norm(final(dt).u - ref.u) + grid2d.l2_norm(final(dt).d - ref.d)
            for dt in dts]
    order = np.polyfit([math.log(d) for d in dts], [math.log(e) for e in errs], 1)[0]
    assert lo < order < hi


def test_bdf2_history_chains_through_run(grid2d, alpha_one):
    """run() must produce the same trajectory as manual step_pair chaining."""
    st = smooth_state(grid2d, alpha_one, seed=3)
    cfg = TimeStepperConfig(dt=1e-3, t_end=0.01, scheme="imex-bdf2")
    traj = run(st, cfg, cadence=10 ** 9)
    stepper = Stepper(grid2d, alpha_one, cfg)
    cur = st
    for _ in range(10):
        cur, _ = stepper.step_pair(cur)
    assert np.array_equal(cur.u, traj.final_state.u)
    assert np.array_equal(cur.d, traj.final_state.d)


def test_bdf2_reboots_on_time_mismatch(grid2d, alpha_one):
    """Feeding a state that does not chain from the previous output falls
    back to the one-step scheme instead of using stale history."""
    st = smooth_state(grid2d, alpha_one, seed=3)
    cfg = TimeStepperConfig(dt=1e-3, t_end=0.01, scheme="imex-bdf2")
    stepper = Stepper(grid2d, alpha_one, cfg)
    a, _ = stepper.step_pair(st)
    stepper.step_pair(a)
    # restart from st, which is not the state the last step returned
    b, _ = stepper.step_pair(st)
    assert np.array_equal(a.u, b.u)
    assert np.array_equal(a.d, b.d)


def test_bdf2_reboots_on_new_state_at_same_time(grid2d, alpha_one):
    """History belongs to the state object the stepper returned: another
    state at the same time takes the one-step scheme, bitwise."""
    st = smooth_state(grid2d, alpha_one, seed=3)
    cfg = TimeStepperConfig(dt=1e-3, t_end=0.01, scheme="imex-bdf2")
    stepper = Stepper(grid2d, alpha_one, cfg)
    a, _ = stepper.step_pair(st)
    b = a.with_fields(0.5 * a.u, a.d, a.time)
    got, _ = stepper.step_pair(b)
    want, _ = Stepper(grid2d, alpha_one, cfg).step_pair(b)
    assert np.array_equal(got.u, want.u)
    assert np.array_equal(got.d, want.d)


def test_one_shot_step_matches_stepper(grid2d, alpha_one):
    st = smooth_state(grid2d, alpha_one, seed=5)
    cfg = TimeStepperConfig(dt=1e-3, t_end=0.01)
    a = step(st, cfg)
    b, _ = Stepper(grid2d, alpha_one, cfg).step_pair(st)
    assert np.array_equal(a.u, b.u)
    assert np.array_equal(a.d, b.d)
    assert a.time == st.time + cfg.dt


def test_regularized_step_from_rest_matches_plain(grid2d, alpha_one):
    """At u = 0 the advective terms and the r-term all vanish, so one step of
    the regularized scheme equals one plain step.  (They diverge afterwards:
    the generated velocity feeds different convective forms.)"""
    st = smooth_state(grid2d, alpha_one, seed=7, u_amp=0.0)
    cfg = TimeStepperConfig(dt=1e-3, t_end=0.01)
    reg = RegularizationConfig(M=8, r=4.0)
    plain = step(st, cfg)
    regd = step(st, cfg, reg=reg)
    assert grid2d.sup_norm(plain.u - regd.u) < 1e-13
    assert grid2d.sup_norm(plain.d - regd.d) < 1e-13


def test_n_modes_truncates_velocity(grid2d, alpha_one):
    st = smooth_state(grid2d, alpha_one, seed=8, kmax=6)
    reg = RegularizationConfig(M=2, r=4.0, N_modes=2)
    cfg = TimeStepperConfig(dt=1e-3, t_end=0.01)
    fin = run(st, cfg, reg=reg, cadence=10 ** 9).final_state
    uhat = grid2d.fft(fin.u)
    outside = ~box_mask(grid2d, 2)
    assert np.max(np.abs(uhat[:, outside])) < 1e-10
    # the director band is untouched by N_modes
    dhat = grid2d.fft(fin.d)
    assert np.max(np.abs(dhat[:, outside & box_mask(grid2d, grid2d.band)])) > 1e-6


def test_vorticity_threshold_raises(grid2d, alpha_one):
    u0 = taylor_green_velocity(grid2d, 1.0)
    d = np.zeros((3,) + grid2d.shape)
    d[2] = 1.0
    st = FieldState(grid=grid2d, coeffs=alpha_one, time=0.0, u=u0, d=d)
    cfg = TimeStepperConfig(dt=1e-3, t_end=0.01, max_vorticity_sup=1e-6)
    stepper = Stepper(grid2d, alpha_one, cfg)
    with pytest.raises(BlowUpError) as exc:
        stepper.step_pair(st)
    # the carried state is the last finite one
    assert exc.value.state is st
    assert exc.value.time == 0.0


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_nonfinite_step_raises_blowup(grid2d, alpha_one):
    """|d| = 1e120 overflows the penalty force: the step raises BlowUpError
    with the last finite state, not the ParameterError of a state built from
    non-finite fields, which outside input still gets."""
    d = np.zeros((3,) + grid2d.shape)
    d[2] = 1e120
    st = FieldState(grid=grid2d, coeffs=alpha_one, time=0.0, u=np.zeros((2,) + grid2d.shape), d=d)
    stepper = Stepper(grid2d, alpha_one, TimeStepperConfig(dt=1e-3, t_end=0.01))
    with pytest.raises(BlowUpError, match=r"^non-finite fields after step to t=0\.001$") as exc:
        stepper.step_pair(st)
    assert exc.value.state is st
    assert exc.value.time == 0.0
    d[2, 0, 0] = np.inf
    with pytest.raises(ParameterError, match="non-finite values in state fields"):
        st.with_fields(st.u, d, 0.0)


def test_run_returns_flagged_partial_trajectory(grid2d, alpha_one):
    u0 = taylor_green_velocity(grid2d, 1.0)
    d = np.zeros((3,) + grid2d.shape)
    d[2] = 1.0
    st = FieldState(grid=grid2d, coeffs=alpha_one, time=0.0, u=u0, d=d)
    cfg = TimeStepperConfig(dt=1e-3, t_end=0.05, max_vorticity_sup=1e-6)
    traj = run(st, cfg)
    assert traj.blown_up
    assert traj.blowup_step == 0
    assert traj.blowup_time == 0.0
    assert len(traj.reports) == 1  # only the initial sample
    assert np.isfinite(traj.final_state.u).all()


def test_run_sampling_times(grid2d, alpha_one):
    st = smooth_state(grid2d, alpha_one, seed=9)
    traj = run(st, TimeStepperConfig(dt=1e-3, t_end=0.01), cadence=3)
    # samples at step 0, every 3rd step, and the final step
    assert traj.sample_steps == [0, 3, 6, 9, 10]
    times = [r.time for r in traj.reports]
    assert times == pytest.approx([0.0, 0.003, 0.006, 0.009, 0.010])
    assert traj.n_steps == 10
    with pytest.raises(ParameterError):
        run(st, TimeStepperConfig(dt=1e-3, t_end=0.01), cadence=0)


@pytest.mark.parametrize("cadence", [1, 7])
def test_run_evaluates_each_state_once(grid2d, alpha_one, monkeypatch, cadence):
    """Steps hand their bundle to the sampler: n_steps calls inside the
    steps plus one for the final state, at any cadence."""
    calls = []

    def counted(state):
        calls.append(state.time)
        return constitutive(state)

    monkeypatch.setattr(nematicflow.solver, "constitutive", counted)
    monkeypatch.setattr(nematicflow.diagnostics, "constitutive", counted)
    st = smooth_state(grid2d, alpha_one, seed=9)
    traj = run(st, TimeStepperConfig(dt=1e-3, t_end=0.01), cadence=cadence)
    assert len(calls) == traj.n_steps + 1


@pytest.mark.parametrize("blowup_step", [7, 8])
def test_run_blowup_samples_before_the_failed_step(grid2d, alpha_one, blowup_step):
    """A guard tripping at a later step keeps the sample-before-step rule:
    the trajectory is the unguarded one cut after the state whose step
    failed, that state included when it is due (8) and excluded when not (7)."""
    st = smooth_state(grid2d, alpha_one, seed=11, u_amp=0.0)
    cfg = TimeStepperConfig(dt=1e-4, t_end=2e-3)
    states = []
    run(st, cfg, hooks=(lambda s, i: states.append(s),))
    w = [grid2d.sup_norm(grid2d.curl(s.u)) for s in states]
    assert w[: blowup_step + 2] == sorted(w[: blowup_step + 2])  # vorticity grows
    threshold = 0.5 * (w[blowup_step] + w[blowup_step + 1])
    guarded = TimeStepperConfig(dt=1e-4, t_end=2e-3, max_vorticity_sup=threshold)

    ref = run(st, cfg, cadence=4)
    traj = run(st, guarded, cadence=4)
    kept = sum(1 for i in ref.sample_steps if i <= blowup_step)
    assert traj.blown_up and traj.blowup_step == blowup_step
    assert traj.sample_steps == ref.sample_steps[:kept] == [0, 4, 8][:kept]
    assert traj.reports == ref.reports[:kept]
    assert traj.monitor.A_history == ref.monitor.A_history[:kept]
    assert traj.monitor.B_history == ref.monitor.B_history[:kept]


def test_case2_3d_run(grid3d):
    """3D, non-Parodi Case 2 set: energy decays, the coercivity bound holds
    at every sample, and run() is the plain step_pair chain."""
    c = CASE2
    st = smooth_state(grid3d, c, seed=12)
    cfg = TimeStepperConfig(dt=1e-3, t_end=0.01)
    traj = run(st, cfg, cadence=1)
    energy = [r.E_total for r in traj.reports]
    assert len(energy) == 11
    assert all(b <= a for a, b in zip(energy, energy[1:]))
    eta = eta_margin(c)
    assert eta > 0.0
    assert all(case2_lower_bound_check(r, eta) for r in traj.reports)
    stepper = Stepper(grid3d, c, cfg)
    cur = st
    for _ in range(traj.n_steps):
        cur, _ = stepper.step_pair(cur)
    assert np.array_equal(cur.u, traj.final_state.u)
    assert np.array_equal(cur.d, traj.final_state.d)


@pytest.mark.parametrize("scheme", ["semi-implicit-euler", "imex-bdf2"])
@pytest.mark.parametrize("case", ["2d-plain", "2d-regularised", "3d-case2"])
def test_stepped_states_carry_their_band_limited_spectra(grid2d, grid3d, alpha_one,
                                                         case, scheme):
    """Every stepped state carries read-only coefficients on the box its
    fields are read from (u on box(min(band, N_modes)), d on box(band)),
    whose inverses are its fields byte for byte, also as numpy's irfftn of
    the zero-padded full half spectrum; with_fields drops them."""
    reg = None
    if case == "3d-case2":
        g, st = grid3d, smooth_state(grid3d, CASE2, seed=14)
    else:
        g, st = grid2d, smooth_state(grid2d, alpha_one, seed=15)
        if case == "2d-regularised":
            reg = RegularizationConfig(M=4, r=4.0, N_modes=8)
    band_u = g.band if reg is None else min(g.band, reg.N_modes)
    stepper = Stepper(g, st.coeffs, TimeStepperConfig(dt=1e-3, t_end=0.01, scheme=scheme), reg)
    assert st.spectra is None
    for _ in range(4):
        st, _ = stepper.step_pair(st)
        u_hat, d_hat = st.spectra
        assert u_hat.shape == (g.dim,) + g.box(band_u).shape
        assert d_hat.shape == (3,) + g.box(g.band).shape
        for hat, field in ((u_hat, st.u), (d_hat, st.d)):
            assert g.ifft(hat).tobytes() == field.tobytes()
            full = np.fft.irfftn(g.to_box(hat, g.n // 2), s=g.shape, axes=tuple(range(-g.dim, 0)))
            assert full.tobytes() == field.tobytes()
        assert not (u_hat.flags.writeable or d_hat.flags.writeable)
        assert st.with_fields(st.u, st.d, st.time).spectra is None


def _run_bytes(traj):
    n = len(traj.reports)
    assert n == len(traj.monitor.times)
    return (traj.final_state.u.tobytes(), traj.final_state.d.tobytes(),
            [np.array(astuple(r)).tobytes() for r in traj.reports],
            [np.array(traj.monitor.row(i)).tobytes() for i in range(n)])


@pytest.mark.parametrize("case", ["3d-case2-euler", "3d-case2-bdf2", "2d-regularised-bdf2"])
def test_pruned_transforms_reproduce_the_masked_run(grid2d, grid3d, alpha_one,
                                                    monkeypatch, case):
    """A run on the box transforms is byte-identical to the same run on
    numpy's full transforms, gathered into and zero-padded from the boxes:
    final fields, every energy report and every monitor row.  The 3D runs
    also decay in energy."""
    if case.startswith("3d"):
        st = smooth_state(grid3d, CASE2, seed=12)
        scheme = "semi-implicit-euler" if case.endswith("euler") else "imex-bdf2"
        reg, expected_M = None, {grid3d.band}
    else:
        st = smooth_state(grid2d, alpha_one, seed=13, kmax=4)
        scheme, reg = "imex-bdf2", RegularizationConfig(M=4, r=4.0, N_modes=8)
        expected_M = {grid2d.band, 4, 8}
    cfg = TimeStepperConfig(dt=1e-3, t_end=0.01, scheme=scheme, max_vorticity_sup=1e6)
    pruned = run(st, cfg, reg=reg, cadence=1)
    assert not pruned.blown_up and pruned.n_steps == 10
    seen = _full_transform_reference(monkeypatch)
    masked = run(st, cfg, reg=reg, cadence=1)
    assert seen == expected_M
    assert _run_bytes(pruned) == _run_bytes(masked)
    if case.startswith("3d"):
        energy = [r.E_total for r in pruned.reports]
        assert all(b <= a for a, b in zip(energy, energy[1:]))


def test_run_rejects_non_multiple_horizon(grid2d, alpha_one):
    st = smooth_state(grid2d, alpha_one, seed=9)
    with pytest.raises(ParameterError):
        run(st, TimeStepperConfig(dt=3e-3, t_end=0.01))


def test_run_hooks_collect_states(grid2d, alpha_one):
    st = smooth_state(grid2d, alpha_one, seed=10)
    states = []
    traj = run(st, TimeStepperConfig(dt=1e-3, t_end=0.005), cadence=1,
               hooks=(lambda s, i: states.append(s),))
    assert len(states) == len(traj.reports) == 6
    assert states[0].time == 0.0
    hook_calls = []
    run(st, TimeStepperConfig(dt=1e-3, t_end=0.005),
        hooks=(lambda s, i: hook_calls.append(i),), cadence=2)
    assert hook_calls == [0, 2, 4, 5]


def test_reconstruct_pressure_quiescent(grid2d, alpha_one):
    st = quiescent(grid2d, alpha_one)
    p = reconstruct_pressure(st)
    assert grid2d.sup_norm(p) < 1e-14


def test_reconstruct_pressure_taylor_green(grid2d):
    """For Taylor-Green with uniform director the nonlinearity is a pure
    gradient: P = (amp^2/4)(cos 4 pi x + cos 4 pi y)."""
    c = from_alpha(0.5, 1.0)
    amp = 1.0
    u0 = taylor_green_velocity(grid2d, amp)
    d = np.zeros((3,) + grid2d.shape)
    d[2] = 1.0
    st = FieldState(grid=grid2d, coeffs=c, time=0.0, u=u0, d=d)
    p = reconstruct_pressure(st)
    x = grid2d.coords()
    expect = 0.25 * amp ** 2 * (np.cos(2.0 * 2.0 * np.pi * x[0])
                                + np.cos(2.0 * 2.0 * np.pi * x[1]))
    assert grid2d.sup_norm(p - expect) < 1e-12
    assert abs(grid2d.mean(p)) < 1e-15


OVERFLOW_CFG = """\
[grid]
dim = 3
n = 16

[coefficients]
alpha = 1.0
nu = 1.0

[initial_condition]
preset = perturbed-director
amplitude = 0.1

[stepper]
dt = 0.0005
t_end = 0.005

[regularization]
enabled = true
m = 4

[diagnostics]
cadence = 1
"""


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_overflowing_state_ends_as_blowup(tmp_path):
    """The 3D regularised scheme at this dt grows u to ~1e171 in six steps:
    the state is still finite but its products overflow.  The run ends as a
    flagged blow-up with a finite final state, and the command exits 2."""
    cfg = parse_config_text(OVERFLOW_CFG)
    grid = build_grid(cfg)
    state0 = build_initial_state(cfg, grid, build_coefficients(cfg))
    traj = run(state0, build_stepper_config(cfg), reg=build_regularization(cfg))
    assert traj.blown_up
    assert traj.blowup_step is not None and 0 < traj.blowup_step < traj.n_steps
    assert traj.blowup_time == traj.final_state.time
    assert np.isfinite(traj.final_state.u).all() and np.isfinite(traj.final_state.d).all()

    path = tmp_path / "overflow.ini"
    path.write_text(OVERFLOW_CFG)
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--output-dir", str(out)]) == 2
    # the overflowing state itself has no finite sample, so none is written
    rows = (out / "diagnostics.csv").read_text().splitlines()[2:]
    assert len(rows) == traj.blowup_step == len(traj.reports)
    assert all(math.isfinite(float(v)) for row in rows for v in row.split(","))

    def reject(constant):
        raise ValueError(f"non-finite {constant} in run_manifest.json")
    manifest = json.loads((out / "run_manifest.json").read_text(), parse_constant=reject)
    assert manifest["blown_up"] and manifest["samples"] == len(rows)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_huge_director_blows_up_at_once_without_a_sample(grid2d, alpha_one):
    """|d| ~ 1e80 overflows the penalty in the first step, and sup|grad d|^4
    overflows to inf in the monitor: the state gets no sample, and run()
    still returns the flagged blow-up instead of raising."""
    st = smooth_state(grid2d, alpha_one, seed=3)
    st = st.with_fields(st.u, 1e80 * st.d, 0.0)
    traj = run(st, TimeStepperConfig(dt=1e-3, t_end=5e-3))
    assert traj.blown_up and traj.blowup_step == 0
    assert traj.reports == [] and traj.monitor.times == []
    assert traj.final_state is st
