"""Time stepping: fixed points, invariant maintenance, convergence, blow-up paths."""

import json
import math
import weakref
from dataclasses import astuple, replace

import numpy as np
import pytest

import nematicflow.diagnostics
import nematicflow.solver
from nematicflow import (BlowUpError, BlowupMonitorState, FieldState, LeslieCoefficients,
                         ParameterError, RegularizationConfig, RegimeError, SpectralGrid,
                         Stepper, TimeStepperConfig, case2_lower_bound_check, channels,
                         constitutive, eta_margin, from_alpha, reconstruct_pressure, run)
from nematicflow.cli import main
from nematicflow.config import (build_coefficients, build_grid,
                                build_initial_state, build_regularization,
                                build_stepper_config, parse_config_text,
                                taylor_green_velocity)
from nematicflow.diagnostics import _residuals
from nematicflow.physics import director_rhs, momentum_rhs
from nematicflow.spectral import random_band_limited

from conftest import (_full_transform_reference, box_mask, curl, divergence, smooth_state,
                      sup_norm, traced_peak_fields)


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
        cur = stepper.step_pair(cur)
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
    mean0 = [st.u[i].mean() for i in range(2)]
    cfg = TimeStepperConfig(dt=5e-4, t_end=0.02)
    traj = run(st, cfg, cadence=10)
    fin = traj.final_state
    for i in range(2):
        assert fin.u[i].mean() == pytest.approx(mean0[i], abs=1e-13)
    assert sup_norm(grid2d, divergence(grid2d, fin.u)) < 1e-10
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
    errs = [grid2d.l2_norm_unchecked(final(dt).u - ref.u)
            + grid2d.l2_norm_unchecked(final(dt).d - ref.d) for dt in dts]
    order = np.polyfit([math.log(d) for d in dts], [math.log(e) for e in errs], 1)[0]
    assert lo < order < hi


def _phi1(z):
    return np.where(z == 0.0, 1.0, np.expm1(z) / np.where(z == 0.0, 1.0, z))


@pytest.mark.parametrize("scheme", ["semi-implicit-euler", "imex-bdf2"])
@pytest.mark.parametrize("case", ["2d-n-modes", "3d-case2"])
def test_update_rules_match_their_formulas_bitwise(grid2d, grid3d, alpha_one, case, scheme):
    """Two steps of each scheme give the bytes of the update rules written
    out here, with L = -(mu4/2)|kappa|^2 for u on box(min(band, N_modes)) and
    L = |kappa|^2/lambda1 for d on box(band):
      euler  y1 = e^{dt L} y0 + dt phi1(dt L) F0,
      SBDF2  y2 = (4 y1 - y0 + 2 dt (2 F1 - F0)) / (3 - 2 dt L),
    with F the Leray-projected momentum_rhs for u and director_rhs for d, and
    u projected after the update.  imex-bdf2 boots with euler.  In 2D
    N_modes < band, so u and d live on different boxes."""
    if case == "3d-case2":
        g, st, reg = grid3d, smooth_state(grid3d, CASE2, seed=16), None
        bands = (g.band, g.band)
    else:
        g, st = grid2d, smooth_state(grid2d, alpha_one, seed=17, kmax=4)
        reg = RegularizationConfig(M=4, r=4.0, N_modes=6)
        bands = (6, g.band)
        assert bands[0] < g.band
    c, dt = st.coeffs, 1e-3
    symbols = (-0.5 * c.mu4 * g.box(bands[0]).ksq, g.box(bands[1]).ksq / c.lambda1)
    stepper = Stepper(g, c, TimeStepperConfig(dt=dt, t_end=0.01, scheme=scheme), reg)

    def pair(state):
        b = constitutive(state)
        y = (g.to_box(b.u_hat, bands[0]), g.to_box(b.d_hat, bands[1]))
        F_d = director_rhs(state, b)  # momentum_rhs consumes grad_d, which director_rhs reads
        F = (g.leray_hat(g.to_box(momentum_rhs(state, b, reg), bands[0])), F_d)
        return y, F

    y0, F0 = pair(st)
    st1 = stepper.step_pair(st)
    want = [np.exp(dt * L) * y + dt * _phi1(dt * L) * f for y, f, L in zip(y0, F0, symbols)]
    y1, F1 = pair(st1)
    st2 = stepper.step_pair(st1)
    if scheme == "imex-bdf2":
        want2 = [(4.0 * y - yp + 2.0 * dt * (2.0 * f - fp)) / (3.0 - 2.0 * dt * L)
                 for y, yp, f, fp, L in zip(y1, y0, F1, F0, symbols)]
    else:
        want2 = [np.exp(dt * L) * y + dt * _phi1(dt * L) * f for y, f, L in zip(y1, F1, symbols)]
    for got, (u_hat, d_hat) in ((st1, want), (st2, want2)):
        assert got.spectra[0].tobytes() == g.leray_hat(u_hat).tobytes()
        assert got.spectra[1].tobytes() == d_hat.tobytes()


def test_bdf2_history_chains_through_run(grid2d, alpha_one):
    """run() must produce the same trajectory as manual step_pair chaining."""
    st = smooth_state(grid2d, alpha_one, seed=3)
    cfg = TimeStepperConfig(dt=1e-3, t_end=0.01, scheme="imex-bdf2")
    traj = run(st, cfg, cadence=10 ** 9)
    stepper = Stepper(grid2d, alpha_one, cfg)
    cur = st
    for _ in range(10):
        cur = stepper.step_pair(cur)
    assert np.array_equal(cur.u, traj.final_state.u)
    assert np.array_equal(cur.d, traj.final_state.d)


def test_bdf2_reboots_on_time_mismatch(grid2d, alpha_one):
    """Feeding a state that does not chain from the previous output falls
    back to the one-step scheme instead of using stale history."""
    st = smooth_state(grid2d, alpha_one, seed=3)
    cfg = TimeStepperConfig(dt=1e-3, t_end=0.01, scheme="imex-bdf2")
    stepper = Stepper(grid2d, alpha_one, cfg)
    a = stepper.step_pair(st)
    stepper.step_pair(a)
    # restart from st, which is not the state the last step returned
    b = stepper.step_pair(st)
    assert np.array_equal(a.u, b.u)
    assert np.array_equal(a.d, b.d)


def test_bdf2_reboots_on_new_state_at_same_time(grid2d, alpha_one):
    """History belongs to the state object the stepper returned: another
    state at the same time takes the one-step scheme, bitwise."""
    st = smooth_state(grid2d, alpha_one, seed=3)
    cfg = TimeStepperConfig(dt=1e-3, t_end=0.01, scheme="imex-bdf2")
    stepper = Stepper(grid2d, alpha_one, cfg)
    a = stepper.step_pair(st)
    b = a.with_fields(0.5 * a.u, a.d, a.time)
    got = stepper.step_pair(b)
    want = Stepper(grid2d, alpha_one, cfg).step_pair(b)
    assert np.array_equal(got.u, want.u)
    assert np.array_equal(got.d, want.d)


def test_regularized_step_from_rest_matches_plain(grid2d, alpha_one):
    """At u = 0 the advective terms and the r-term all vanish, so one step of
    the regularized scheme equals one plain step.  (They diverge afterwards:
    the generated velocity feeds different convective forms.)"""
    st = smooth_state(grid2d, alpha_one, seed=7, u_amp=0.0)
    cfg = TimeStepperConfig(dt=1e-3, t_end=0.01)
    reg = RegularizationConfig(M=8, r=4.0)
    plain = Stepper(grid2d, alpha_one, cfg).step_pair(st)
    regd = Stepper(grid2d, alpha_one, cfg, reg).step_pair(st)
    assert sup_norm(grid2d, plain.u - regd.u) < 1e-13
    assert sup_norm(grid2d, plain.d - regd.d) < 1e-13


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


@pytest.mark.parametrize("cadence", [2.5, 2.0, "3"])
def test_run_refuses_a_non_integer_cadence(grid2d, alpha_one, cadence):
    """cadence is a step count: a float, even a whole one, is refused as
    RegularizationConfig refuses a non-integer M."""
    st = smooth_state(grid2d, alpha_one, seed=9)
    with pytest.raises(ParameterError, match="^cadence must be an integer >= 1"):
        run(st, TimeStepperConfig(dt=1e-3, t_end=0.01), cadence=cadence)


def test_stepper_refuses_a_state_of_another_setting(grid2d, grid3d, alpha_one):
    """A state on another grid (dim, n) or with other coefficients than the
    stepper's is refused before any work; a twin grid and equal coefficients
    step as the stepper's own do."""
    stepper = Stepper(grid2d, alpha_one, TimeStepperConfig(dt=1e-3, t_end=0.01))
    st = smooth_state(grid2d, alpha_one, seed=9)
    for other in (FieldState(grid=grid2d, coeffs=from_alpha(0.5, 1.7), time=0.0, u=st.u, d=st.d),
                  smooth_state(SpectralGrid(2, 16), alpha_one, seed=9),
                  smooth_state(grid3d, alpha_one, seed=9)):
        with pytest.raises(ParameterError, match="^stepper: "):
            stepper.step_pair(other)
    twin = FieldState(grid=SpectralGrid(2, 32), coeffs=from_alpha(1.0, 1.0), time=0.0,
                      u=st.u, d=st.d)
    a, b = stepper.step_pair(st), stepper.step_pair(twin)
    assert a.u.tobytes() == b.u.tobytes() and a.d.tobytes() == b.d.tobytes()


@pytest.mark.parametrize("cadence", [1, 7])
def test_run_evaluates_each_state_once(grid2d, alpha_one, monkeypatch, cadence):
    """Steps hand their bundle to the sampler: n_steps calls inside the
    steps plus one for the final state, at any cadence."""
    calls = []

    def counted(state, *reg):
        calls.append(state.time)
        return constitutive(state, *reg)

    monkeypatch.setattr(nematicflow.solver, "constitutive", counted)
    monkeypatch.setattr(nematicflow.diagnostics, "constitutive", counted)
    st = smooth_state(grid2d, alpha_one, seed=9)
    traj = run(st, TimeStepperConfig(dt=1e-3, t_end=0.01), cadence=cadence)
    assert len(calls) == traj.n_steps + 1


@pytest.mark.parametrize("tripping", [8, 9])
def test_run_blowup_samples_before_the_failed_step(grid2d, alpha_one, tripping):
    """A guard tripping on a later state keeps the sample-before-guard rule:
    the trajectory is the unguarded one cut after the tripping state, that
    state included when it is due (8) and excluded when not (9)."""
    st = smooth_state(grid2d, alpha_one, seed=11, u_amp=0.0)
    cfg = TimeStepperConfig(dt=1e-4, t_end=2e-3)
    states = []
    run(st, cfg, hooks=(lambda s, i: states.append(s),))
    w = [sup_norm(grid2d, curl(grid2d, s.u)) for s in states]
    assert w[: tripping + 1] == sorted(w[: tripping + 1])  # vorticity grows
    threshold = 0.5 * (w[tripping - 1] + w[tripping])
    guarded = TimeStepperConfig(dt=1e-4, t_end=2e-3, max_vorticity_sup=threshold)

    ref = run(st, cfg, cadence=4)
    traj = run(st, guarded, cadence=4)
    kept = sum(1 for i in ref.sample_steps if i <= tripping)
    assert traj.blown_up and traj.blowup_step == tripping
    assert traj.sample_steps == ref.sample_steps[:kept] == [0, 4, 8]
    assert traj.reports == ref.reports[:kept]
    assert traj.monitor.A_history == ref.monitor.A_history[:kept]
    assert traj.monitor.B_history == ref.monitor.B_history[:kept]


@pytest.mark.parametrize("scheme", ["semi-implicit-euler", "imex-bdf2"])
def test_case2_3d_run(grid3d, scheme):
    """3D, non-Parodi Case 2 set, under both schemes: energy decays, the
    coercivity bound holds at every sample, and run() is the plain step_pair
    chain."""
    c = CASE2
    st = smooth_state(grid3d, c, seed=12)
    cfg = TimeStepperConfig(dt=1e-3, t_end=0.01, scheme=scheme)
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
        cur = stepper.step_pair(cur)
    assert np.array_equal(cur.u, traj.final_state.u)
    assert np.array_equal(cur.d, traj.final_state.d)


def test_run_holds_one_bundle_at_a_time(grid3d):
    """3D Case 2 (mu1 != 0) at n=16, 6 steps at cadence 3, after a first run
    has filled the grid's caches: the traced peak of run() stays below 52.5
    scalar grid fields, so no step keeps a second bundle alive, nor the
    fields the forces do not read: the step-0 full-layout spectra past
    constitutive, grad u before director_rhs, the rest of what momentum_rhs
    does not read before it builds the stress, and the Leslie inputs and
    grad d before it transforms the stress (51.6; 53.4 with the 3D forward
    transform holding numpy's full rfft, 54.1 with that, the full-layout
    spectra held and the Leslie entries formed before the Ericksen ones)."""
    st = smooth_state(grid3d, CASE2, seed=53)
    cfg = TimeStepperConfig(dt=1e-3, t_end=6e-3)
    run(st, cfg, cadence=3)
    _, fields_at_peak = traced_peak_fields(lambda: run(st, cfg, cadence=3), grid3d)
    assert fields_at_peak < 52.5, fields_at_peak


def test_constitutive_drops_each_unstaged_product(grid3d):
    """3D Case 2 from fields at n=16: the traced peak of constitutive()
    stays below 46 scalar grid fields, so u_hat and d_hat are folded from
    the full half spectrum into box(band) before the mu1 block, _stage_dd
    drops d(x)d and dd : A once their forward transforms exist, before the
    inverses run, and N is formed only after the mu1 block (45.1; 46.1 with
    the 3D forward transform holding numpy's full rfft, 47.5 with the
    spectra kept in full layout, 50.7 with both)."""
    st = smooth_state(grid3d, CASE2, seed=53)
    constitutive(st)
    _, fields_at_peak = traced_peak_fields(lambda: constitutive(st), grid3d)
    assert fields_at_peak < 46.0, fields_at_peak


def _sample_after_step(state, cfg, reg=None, cadence=1):
    """run() written as the loop that samples a due state after its step has
    returned, from a fresh constitutive() call: (reports, monitor, sample
    steps, final state)."""
    stepper = Stepper(state.grid, state.coeffs, cfg, reg)
    reports, monitor, steps = [], BlowupMonitorState(), []

    def sample(st, i):
        bundle = constitutive(st)
        rep = channels(st, bundle, reg=reg)
        if reports:
            rep = replace(rep, **_residuals(reports[-1], rep.E_total,
                                            rep.time - reports[-1].time))
        monitor.update(st, bundle)
        reports.append(rep)
        steps.append(i)

    for i in range(cfg.n_steps()):
        new_state = stepper.step_pair(state)
        if i % cadence == 0:
            sample(state, i)
        state = new_state
    sample(state, cfg.n_steps())
    return reports, monitor, steps, state


def _sample_bytes(reports, monitor):
    return np.array([astuple(r) + monitor.row(k) for k, r in enumerate(reports)]).tobytes()


@pytest.mark.parametrize("cadence", [1, 3])
@pytest.mark.parametrize("case, scheme", [("3d-case2", "semi-implicit-euler"),
                                          ("3d-case2", "imex-bdf2"),
                                          ("2d-regularised", "imex-bdf2")])
def test_in_step_sample_matches_sampling_after_the_step(grid2d, grid3d, alpha_one,
                                                        case, scheme, cadence):
    """run() samples a due state inside its step, from the step's bundle;
    its rows, monitor and final state are byte for byte those of sampling
    each due state after its step from a fresh constitutive() call."""
    reg = None
    if case == "3d-case2":
        st = smooth_state(grid3d, CASE2, seed=21)
    else:
        st = smooth_state(grid2d, alpha_one, seed=22)
        reg = RegularizationConfig(M=4, r=4.0, N_modes=8)
        assert reg.N_modes < grid2d.band
    cfg = TimeStepperConfig(dt=1e-3, t_end=7e-3, scheme=scheme)
    reports, monitor, steps, final = _sample_after_step(st, cfg, reg, cadence)
    traj = run(st, cfg, reg=reg, cadence=cadence)
    assert traj.sample_steps == steps
    assert _sample_bytes(traj.reports, traj.monitor) == _sample_bytes(reports, monitor)
    assert vars(traj.monitor) == vars(monitor)
    assert traj.final_state.u.tobytes() == final.u.tobytes()
    assert traj.final_state.d.tobytes() == final.d.tobytes()


def test_guard_blowup_keeps_the_in_step_sample(grid2d, alpha_one):
    """The vorticity guard trips on state 9 while the fields are finite: the
    sample the step took of state 9 before the guard is kept, and every row
    equals sampling after the step from a fresh constitutive() call."""
    st = smooth_state(grid2d, alpha_one, seed=11, u_amp=0.0)
    cfg = TimeStepperConfig(dt=1e-4, t_end=2e-3)
    reports, monitor, steps, _ = _sample_after_step(st, cfg)
    w = monitor.sup_curl_u
    assert w[:10] == sorted(w[:10])  # vorticity grows
    guarded = TimeStepperConfig(dt=1e-4, t_end=2e-3, max_vorticity_sup=0.5 * (w[8] + w[9]))
    traj = run(st, guarded)
    assert traj.blown_up and traj.blowup_step == 9
    assert traj.sample_steps == steps[:10]
    assert _sample_bytes(traj.reports, traj.monitor) == _sample_bytes(reports[:10], monitor)
    assert vars(traj.monitor) == {name: column[:10] for name, column in vars(monitor).items()}


@pytest.mark.parametrize("scheme", ["semi-implicit-euler", "imex-bdf2"])
def test_vorticity_guard_reads_the_monitors_sup_curl(grid3d, scheme):
    """The guard and the monitor share one curl formula, so a threshold equal
    to a monitored sup|curl u| is a knife edge: that state passes and the
    first later state above it trips.  A threshold between the last two
    values trips on the final state, with every sample kept."""
    st = smooth_state(grid3d, CASE2, seed=21, u_amp=0.0)
    cfg = TimeStepperConfig(dt=1e-3, t_end=8e-3, scheme=scheme)
    ref = run(st, cfg)
    w = ref.monitor.sup_curl_u
    assert w == sorted(w) and len(set(w)) == len(w) == ref.n_steps + 1  # vorticity grows

    edge = run(st, replace(cfg, max_vorticity_sup=w[4]))
    assert edge.blown_up and edge.blowup_step == 5 and edge.final_state.time == edge.blowup_time
    assert edge.sample_steps == ref.sample_steps[:6]
    assert _sample_bytes(edge.reports, edge.monitor) == _sample_bytes(ref.reports[:6], ref.monitor)

    last = run(st, replace(cfg, max_vorticity_sup=0.5 * (w[-2] + w[-1])))
    assert last.blown_up and last.blowup_step == last.n_steps
    assert last.sample_steps == ref.sample_steps
    assert _run_bytes(last) == _run_bytes(ref)


def test_guard_takes_no_transform(grid2d, alpha_one, monkeypatch):
    """A guarded run makes as many inverse transforms as an unguarded one:
    the guard reads the curl from the bundle's grad u."""
    calls = []
    ifft = SpectralGrid.ifft

    def counted(self, fhat):
        calls.append(fhat.shape)
        return ifft(self, fhat)

    monkeypatch.setattr(SpectralGrid, "ifft", counted)
    st = smooth_state(grid2d, alpha_one, seed=9)
    counts = []
    for limit in (None, 1e6):
        calls.clear()
        traj = run(st, TimeStepperConfig(dt=1e-3, t_end=0.01, max_vorticity_sup=limit))
        assert not traj.blown_up
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


@pytest.mark.parametrize("scheme", ["semi-implicit-euler", "imex-bdf2"])
def test_run_drops_the_initial_state(grid2d, alpha_one, scheme):
    """A caller that holds no reference to the initial state sees it freed
    once the first step has returned; every sampled state before the one a
    hook is handed is freed too."""
    refs, alive = [], []

    def hook(state, step_index):
        alive.append([ref() is not None for ref in refs])
        refs.append(weakref.ref(state))

    traj = run(smooth_state(grid2d, alpha_one, seed=5),
               TimeStepperConfig(dt=1e-3, t_end=4e-3, scheme=scheme), hooks=(hook,))
    assert traj.sample_steps == [0, 1, 2, 3, 4]
    assert alive == [[], [False], [False] * 2, [False] * 3, [False] * 4]


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
        st = stepper.step_pair(st)
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
    assert sup_norm(grid2d, p) < 1e-14


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
    assert sup_norm(grid2d, p - expect) < 1e-12
    assert abs(p.mean()) < 1e-15


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


def test_overflowing_final_state_ends_as_blowup(tmp_path):
    """With the horizon at the overflow run's blow-up step, the overflowing
    state is the final one: it is sampled and checked like every other state,
    so the command exits 2 and writes no inf, nan or Infinity."""
    cfg = parse_config_text(OVERFLOW_CFG)
    grid = build_grid(cfg)
    stepper_cfg = build_stepper_config(cfg)
    k = run(build_initial_state(cfg, grid, build_coefficients(cfg)), stepper_cfg,
            reg=build_regularization(cfg)).blowup_step
    assert k is not None and k > 0

    path = tmp_path / "overflow.ini"
    path.write_text(OVERFLOW_CFG.replace("t_end = 0.005", f"t_end = {k * stepper_cfg.dt!r}"))
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--output-dir", str(out)]) == 2
    rows = (out / "diagnostics.csv").read_text().splitlines()[2:]
    assert len(rows) == k
    assert all(math.isfinite(float(v)) for row in rows for v in row.split(","))

    def reject(constant):
        raise ValueError(f"non-finite {constant} in run_manifest.json")
    manifest = json.loads((out / "run_manifest.json").read_text(), parse_constant=reject)
    assert manifest["blown_up"] and manifest["blowup_step"] == manifest["n_steps"] == k


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
