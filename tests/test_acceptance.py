"""End-to-end acceptance gate: ten numbered criteria, one verdict line each.

Each test computes its measurements, records a single "CRITERION k: PASS/FAIL"
line (echoed after the run by the conftest terminal-summary hook), and then
asserts.  The three Case-1 production runs are shared between criteria 6, 7,
and 9 through a module-scoped fixture; everything else builds its own states.
"""

import time

import numpy as np
import pytest

from nematicflow import (FieldState, RegularizationConfig, SpectralGrid,
                         Stepper, TimeStepperConfig, channels, constitutive,
                         dissipation_form, energy_law_audit, from_alpha, run,
                         validate)
from nematicflow.cli import main
from nematicflow.config import (build_coefficients, build_grid, build_initial_state,
                                build_stepper_config, parse_config_text,
                                taylor_green_velocity)
from nematicflow.diagnostics import BlowupMonitorState
from nematicflow.spectral import random_band_limited

from conftest import ACCEPTANCE_LINES, curl, divergence, laplacian, smooth_state, sup_norm
from test_coeffs import _random_parodi_set

TWO_PI = 2.0 * np.pi


def record(num, ok, detail):
    line = f"CRITERION {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    ACCEPTANCE_LINES.append(line)
    assert ok, line


def uniform_e3(grid):
    d = np.zeros((3,) + grid.shape)
    d[2] = 1.0
    return d


def fitted_order(dts, values):
    """Least-squares slope of log(value) against log(dt)."""
    return float(np.polyfit(np.log(dts), np.log(values), 1)[0])


# -- criterion 1: coefficient regime classification ------------------------------


def test_criterion_01_coefficient_regimes():
    t0 = time.perf_counter()
    family_ok = True
    for a in np.linspace(0.0, 1.0, 11):
        for nu in (0.5, 1.0, 2.0):
            rep = validate(from_alpha(float(a), nu))
            family_ok = family_ok and rep.case1 and rep.admissible

    rng = np.random.default_rng(42)
    agree = 0
    n_case1 = 0
    for _ in range(1000):
        c = _random_parodi_set(rng)
        rep = validate(c)
        agree += dissipation_form(c).psd == rep.case1
        n_case1 += rep.case1
    elapsed = time.perf_counter() - t0

    ok = family_ok and agree == 1000 and 0 < n_case1 < 1000 and elapsed < 1.0
    record(1, ok, f"33/33 alpha-family sets Case 1; psd<->Case1 agreement "
                  f"{agree}/1000 ({n_case1} Case 1); {elapsed:.2f}s (< 1s)")


# -- criterion 2: spectral operators against manufactured fields -----------------


def _trig_scalar(grid, rng, nmodes=3, kcap=5):
    """Sum of random cosine modes with its analytic gradient and Laplacian."""
    x = grid.coords()
    f = np.zeros(grid.shape)
    df = np.zeros((grid.dim,) + grid.shape)
    lap = np.zeros(grid.shape)
    for _ in range(nmodes):
        k = rng.integers(-kcap, kcap + 1, size=grid.dim)
        if not k.any():
            k[0] = 1
        a = rng.uniform(-1.0, 1.0)
        ph = rng.uniform(0.0, TWO_PI)
        arg = TWO_PI * sum(int(k[i]) * x[i] for i in range(grid.dim)) + ph
        cos, sin = np.cos(arg), np.sin(arg)
        f += a * cos
        for i in range(grid.dim):
            df[i] += -TWO_PI * int(k[i]) * a * sin
        lap += -(TWO_PI ** 2) * float(k @ k) * a * cos
    return f, df, lap


def test_criterion_02_spectral_operator_oracles():
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)
    worst = 0.0
    for grid, count in ((SpectralGrid(2, 32), 12), (SpectralGrid(3, 32), 8)):
        for _ in range(count):
            comps = [_trig_scalar(grid, rng) for _ in range(grid.dim)]
            u = np.stack([c[0] for c in comps])
            grads = [c[1] for c in comps]

            worst = max(worst, sup_norm(grid, grid.gradient(comps[0][0]) - grads[0]))
            worst = max(worst, sup_norm(grid, laplacian(grid, comps[0][0]) - comps[0][2]))
            div = sum(grads[i][i] for i in range(grid.dim))
            worst = max(worst, sup_norm(grid, divergence(grid, u) - div))
            if grid.dim == 2:
                curl_exact = grads[1][0] - grads[0][1]
            else:
                curl_exact = np.stack([grads[2][1] - grads[1][2],
                                       grads[0][2] - grads[2][0],
                                       grads[1][0] - grads[0][1]])
            worst = max(worst, sup_norm(grid, curl(grid, u) - curl_exact))

    g = SpectralGrid(2, 32)
    worst_leray = 0.0
    for seed in range(5):
        w = np.random.default_rng(seed).standard_normal((2,) + g.shape)
        pw = g.leray(w)
        worst_leray = max(worst_leray, sup_norm(g, g.leray(pw) - pw))
        phi = _trig_scalar(g, rng)[0]
        worst_leray = max(worst_leray, sup_norm(g, g.leray(g.gradient(phi))))
    elapsed = time.perf_counter() - t0

    ok = worst <= 1e-10 and worst_leray <= 1e-12 and elapsed < 10.0
    record(2, ok, f"20 manufactured fields, worst operator error {worst:.2e} "
                  f"(<= 1e-10); Leray idempotence/annihilation {worst_leray:.2e} "
                  f"(<= 1e-12); {elapsed:.1f}s (< 10s)")


# -- criterion 3: constitutive identity and dissipation grouping -----------------


def test_criterion_03_constitutive_identity():
    g = SpectralGrid(2, 32)
    c = from_alpha(1.0, 1.0)
    worst_id = 0.0
    worst_rel = 0.0
    for seed in range(10):
        st = smooth_state(g, c, seed=seed)
        b = constitutive(st)
        resid = c.lambda1 * b.N + c.lambda2 * b.Ad + b.tension
        worst_id = max(worst_id, sup_norm(g, resid))
        rep = channels(st, b)
        rel = abs(rep.dissipation_general - rep.dissipation_case1) \
            / abs(rep.dissipation_general)
        worst_rel = max(worst_rel, rel)

    ok = worst_id <= 1e-12 and worst_rel <= 1e-10
    record(3, ok, f"identity sup residual {worst_id:.2e} (<= 1e-12) and "
                  f"grouping relative gap {worst_rel:.2e} (<= 1e-10) on 10 states")


# -- criterion 4: quiescent fixed point -------------------------------------------


def test_criterion_04_quiescent_fixed_point():
    g = SpectralGrid(2, 32)
    st = FieldState(grid=g, coeffs=from_alpha(1.0, 1.0), time=0.0,
                    u=np.zeros((2,) + g.shape), d=uniform_e3(g))
    traj = run(st, TimeStepperConfig(dt=1e-3, t_end=1.0), cadence=1000)
    drift_u = sup_norm(g, traj.final_state.u)
    drift_d = sup_norm(g, traj.final_state.d - uniform_e3(g))

    ok = traj.n_steps == 1000 and drift_u <= 1e-12 and drift_d <= 1e-12
    record(4, ok, f"1000 steps, sup drift u {drift_u:.2e}, d {drift_d:.2e} "
                  f"(both <= 1e-12)")


# -- criterion 5: Navier-Stokes reduction ----------------------------------------


def test_criterion_05_taylor_green_decay():
    g = SpectralGrid(2, 64)
    c = from_alpha(0.5, 1.0)
    st = FieldState(grid=g, coeffs=c, time=0.0,
                    u=taylor_green_velocity(g, 1.0), d=uniform_e3(g))
    traj = run(st, TimeStepperConfig(dt=1e-3, t_end=0.1), cadence=10)
    # uniform director decouples: pure 2D NS with viscosity mu4/2, for which
    # the Taylor-Green kinetic energy is (a^2/4) exp(-8 pi^2 mu4 t)
    rel = max(abs(r.E_kinetic - 0.25 * np.exp(-8.0 * np.pi ** 2 * c.mu4 * r.time))
              / (0.25 * np.exp(-8.0 * np.pi ** 2 * c.mu4 * r.time))
              for r in traj.reports)

    ok = rel <= 1e-4
    record(5, ok, f"kinetic-energy decay max relative error {rel:.2e} (<= 1e-4) "
                  f"over t in [0, 0.1]")


# -- criteria 6/7/9 share the Case 1 production runs ------------------------------

CASE1_CFG = """\
[grid]
dim = 2
n = 64

[coefficients]
alpha = 1.0
nu = 1.0

[initial_condition]
preset = perturbed-director
amplitude = 0.1

[stepper]
dt = 0.0005
t_end = 0.5
"""


@pytest.fixture(scope="module")
def case1_runs():
    """The criterion-6 configuration at dt, dt/2, dt/4, sampled every step."""
    runs = {}
    for dt in (5e-4, 2.5e-4, 1.25e-4):
        cfg = parse_config_text(CASE1_CFG)
        cfg.stepper.dt = dt
        state = build_initial_state(cfg, build_grid(cfg), build_coefficients(cfg))
        traj = run(state, build_stepper_config(cfg), cadence=1)
        assert not traj.blown_up
        runs[dt] = traj
    return runs


CASE1_CHANNELS = ("D_mu1", "D_visc", "D_case1_director", "D_case1_Ad", "D_reg")


def test_criterion_06_energy_monotonicity(case1_runs):
    traj = case1_runs[5e-4]
    min_channel = min(getattr(r, name) for r in traj.reports
                      for name in CASE1_CHANNELS)

    ok = (traj.n_steps == 1000
          and traj.max_energy_increase <= 1e-8
          and min_channel >= 0.0
          and traj.wall_time < 120.0)
    record(6, ok, f"max per-step energy increase {traj.max_energy_increase:.2e} "
                  f"(<= 1e-8); min Case-1 channel {min_channel:.2e} (>= 0); "
                  f"{traj.wall_time:.1f}s (< 120s)")


def test_criterion_07_residual_convergence(case1_runs):
    dts = (5e-4, 2.5e-4, 1.25e-4)
    # primary metric: discrete time-L2 norm of the per-step residual, which
    # uses every row instead of the startup transient the sup would pick out
    l2_metric = []
    for dt in dts:
        res = np.array([r.residual_case1 for r in case1_runs[dt].reports[1:]])
        l2_metric.append(float(np.sqrt(dt * np.sum(res ** 2))))
    order_l2 = fitted_order(dts, l2_metric)

    # secondary: pointwise first-order behavior at two fixed times
    fixed_orders = {}
    for t_star in (0.01, 0.05):
        vals = []
        for dt in dts:
            reports = case1_runs[dt].reports
            idx = min(range(len(reports)), key=lambda i: abs(reports[i].time - t_star))
            vals.append(abs(reports[idx].residual_case1))
        fixed_orders[t_star] = fitted_order(dts, vals)

    ok = order_l2 >= 0.9 and all(o >= 0.9 for o in fixed_orders.values())
    record(7, ok, f"residual_case1 time-L2 order {order_l2:.3f} (>= 0.9); "
                  f"fixed-time orders t=0.01: {fixed_orders[0.01]:.2f}, "
                  f"t=0.05: {fixed_orders[0.05]:.2f}")


# -- criterion 8: regularized-scheme energy identity ------------------------------


def test_criterion_08_regularized_energy_identity():
    g = SpectralGrid(2, 64)
    c = from_alpha(1.0, 1.0)
    rng = np.random.default_rng(7)
    st = FieldState(grid=g, coeffs=c, time=0.0,
                    u=taylor_green_velocity(g, 0.1),
                    d=uniform_e3(g) + 0.05 * random_band_limited(g, 3, 2, rng))
    reg = RegularizationConfig(M=8, r=4.0)

    # settle through the startup transient so single steps see smooth dynamics
    prep = run(st, TimeStepperConfig(dt=2.5e-4, t_end=5e-3),
               reg=reg, cadence=20).final_state
    dts = (1e-3, 5e-4, 2.5e-4)
    balances = []
    for dt in dts:
        nxt = Stepper(g, c, TimeStepperConfig(dt=dt, t_end=2 * dt), reg).step_pair(prep)
        audit = energy_law_audit(prep, nxt, reg=reg)
        balances.append(abs(dt * audit.residual_general))
    order = fitted_order(dts, balances)

    gaps = []
    plain = run(st, TimeStepperConfig(dt=5e-4, t_end=0.05), cadence=100).final_state
    for M in (4, 8, 16, 32):
        reg_m = RegularizationConfig(M=M, r=4.0)
        fin = run(st, TimeStepperConfig(dt=5e-4, t_end=0.05),
                  reg=reg_m, cadence=100).final_state
        gaps.append(g.l2_norm_unchecked(fin.u - plain.u) + g.l2_norm_unchecked(fin.d - plain.d))
    monotone = all(gaps[i + 1] < gaps[i] for i in range(3))

    ok = order >= 1.8 and monotone
    record(8, ok, f"per-step balance order {order:.3f} (>= 1.8); M-sweep gaps "
                  + " > ".join(f"{v:.2e}" for v in gaps)
                  + (" monotone" if monotone else " NOT monotone"))


# -- criterion 9: blow-up monitor correctness -------------------------------------


def test_criterion_09_blowup_monitor(case1_runs):
    g = SpectralGrid(2, 64)
    amp = 0.25
    x = g.coords()
    d_circle = np.zeros((3,) + g.shape)
    d_circle[0] = np.cos(TWO_PI * x[0])
    d_circle[1] = np.sin(TWO_PI * x[0])
    st = FieldState(grid=g, coeffs=from_alpha(1.0, 1.0), time=0.0,
                    u=taylor_green_velocity(g, amp), d=d_circle)
    mon = BlowupMonitorState()
    mon.update(st, constitutive(st))
    err_curl = abs(mon.sup_curl_u[0] - 4.0 * np.pi * amp)
    err_gd = abs(mon.sup_grad_d[0] - TWO_PI)

    # trapezoid rule reproduces a constant integrand with no quadrature error
    integrand = mon.sup_curl_u[0] + mon.sup_grad_d[0] ** 4
    expect = 0.0
    exact = True
    for k in range(1, 4):
        later = st.with_fields(st.u, st.d, 0.05 * k)
        mon.update(later, constitutive(later))
        expect += integrand * (0.05 * k - 0.05 * (k - 1))
        exact = exact and mon.B_integral == expect

    nondecreasing = all(
        all(B[i] <= B[i + 1] for i in range(len(B) - 1))
        for B in (traj.monitor.B_history for traj in case1_runs.values())
    )

    ok = err_curl <= 1e-10 and err_gd <= 1e-10 and exact and nondecreasing
    record(9, ok, f"sup|curl u| error {err_curl:.2e}, sup|grad d| error "
                  f"{err_gd:.2e} (<= 1e-10); constant-integrand B exact: {exact}; "
                  f"B nondecreasing on {len(case1_runs)} runs: {nondecreasing}")


# -- criterion 10: bit-exact reproducibility --------------------------------------

DETERMINISM_CFG = """\
[grid]
dim = 2
n = 32

[coefficients]
alpha = 1.0
nu = 1.0

[initial_condition]
preset = perturbed-director
amplitude = 0.1

[stepper]
dt = 0.001
t_end = 0.02

[run]
seed = 11
"""


def test_criterion_10_determinism(tmp_path):
    cfg_path = tmp_path / "run.ini"
    cfg_path.write_text(DETERMINISM_CFG)
    out = []
    for name in ("first", "second"):
        outdir = tmp_path / name
        assert main(["run", "--config", str(cfg_path),
                     "--output-dir", str(outdir)]) == 0
        out.append(outdir)

    csv_same = (out[0] / "diagnostics.csv").read_bytes() == \
               (out[1] / "diagnostics.csv").read_bytes()
    fields_same = all(
        (out[0] / n).read_bytes() == (out[1] / n).read_bytes()
        for n in ("u_final.field", "d_final.field")
    )

    ok = csv_same and fields_same
    record(10, ok, f"diagnostics.csv bytes identical: {csv_same}; "
                   f"final snapshots identical: {fields_same}")
