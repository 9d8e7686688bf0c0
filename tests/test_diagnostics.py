"""Energy reports, audit residual arithmetic, and the blow-up monitors."""

import csv
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from nematicflow import (BlowupMonitorState, FieldState, LeslieCoefficients,
                         ParameterError, SpectralGrid, Stepper, TimeStepperConfig,
                         case2_lower_bound_check, channels, constitutive,
                         energy_law_audit, eta_margin, from_alpha, run,
                         write_timeseries)
from nematicflow.diagnostics import CSV_COLUMNS, EnergyReport, _energies, _sup_curl
from nematicflow.config import taylor_green_velocity

from conftest import curl, smooth_state, sup_norm, tension
from test_physics import CASE2_SET

TWO_PI = 2.0 * np.pi


def quiescent(grid, coeffs):
    d = np.zeros((3,) + grid.shape)
    d[2] = 1.0
    return FieldState(grid=grid, coeffs=coeffs, time=0.0,
                      u=np.zeros((grid.dim,) + grid.shape), d=d)


def circle_director(grid):
    x = grid.coords()
    d = np.zeros((3,) + grid.shape)
    d[0] = np.cos(TWO_PI * x[0])
    d[1] = np.sin(TWO_PI * x[0])
    return d


def test_energies_quiescent(grid2d, alpha_one):
    st = quiescent(grid2d, alpha_one)
    ek, ee, ep, et = _energies(st, constitutive(st))
    assert (ek, ee, ep, et) == (0.0, 0.0, 0.0, 0.0)


def test_energies_hand_values(grid2d, alpha_one):
    # kinetic: Taylor-Green amplitude 1 has mean |u|^2 = 1/2
    st = quiescent(grid2d, alpha_one)
    u = taylor_green_velocity(grid2d, 1.0)
    st = st.with_fields(u, st.d, 0.0)
    ek, _, _, _ = _energies(st, constitutive(st))
    assert ek == pytest.approx(0.25, rel=1e-14)

    # elastic: |grad d| = 2pi for the unit circle director, penalty zero
    st = st.with_fields(np.zeros_like(u), circle_director(grid2d), 0.0)
    ek, ee, ep, _ = _energies(st, constitutive(st))
    assert ek == 0.0
    assert ee == pytest.approx(2.0 * np.pi ** 2, rel=1e-13)
    assert ep == pytest.approx(0.0, abs=1e-25)


def test_channels_quiescent_all_zero(grid2d, alpha_one):
    st = quiescent(grid2d, alpha_one)
    rep = channels(st, constitutive(st))
    for name in ("D_mu1", "D_visc", "D_Ad", "D_N", "D_cross",
                 "D_case1_director", "D_case1_Ad", "D_reg"):
        assert getattr(rep, name) == 0.0


def test_channels_viscous_hand_value(grid2d):
    # ||A||^2 for Taylor-Green amplitude a is 2 pi^2 a^2
    c = from_alpha(0.5, 1.7)
    a = 0.4
    st = quiescent(grid2d, c).with_fields(
        taylor_green_velocity(grid2d, a), quiescent(grid2d, c).d, 0.0)
    rep = channels(st, constitutive(st))
    assert rep.D_visc == pytest.approx(c.mu4 * 2.0 * np.pi ** 2 * a ** 2, rel=1e-13)
    # uniform director, no flow coupling: every director channel vanishes
    assert abs(rep.D_N) < 1e-20
    assert abs(rep.D_Ad) < 1e-20


def test_channel_identities_on_random_states(grid2d, alpha_one):
    """Cross-checks between channels that hold under Parodi (alpha preset):
    D_N + D_Ad + D_cross = D_case1_director + D_case1_Ad."""
    for seed in range(3):
        st = smooth_state(grid2d, alpha_one, seed=seed)
        rep = channels(st, constitutive(st))
        lhs = rep.D_N + rep.D_Ad + rep.D_cross
        rhs = rep.D_case1_director + rep.D_case1_Ad
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-13)
        assert rep.dissipation_general == pytest.approx(rep.dissipation_case1,
                                                        rel=1e-10, abs=1e-13)


def test_audit_residual_arithmetic(grid2d, alpha_one):
    st = smooth_state(grid2d, alpha_one, seed=1)
    rep0 = channels(st, constitutive(st))
    # identical pair: rate = 0, so residual = dissipation at prev
    later = st.with_fields(st.u, st.d, 0.5)
    audit = energy_law_audit(st, later)
    assert audit.residual_general == pytest.approx(rep0.dissipation_general, rel=1e-14)
    assert audit.residual_case1 == pytest.approx(rep0.dissipation_case1, rel=1e-14)
    with pytest.raises(ParameterError):
        energy_law_audit(st, st.with_fields(st.u, st.d, 0.0))


# 3D non-Parodi Case 2 set
CASE2_3D = LeslieCoefficients(lambda1=-1.0, lambda2=0.2, mu1=0.5, mu2=-0.5,
                              mu3=0.5, mu4=1.0, mu5=0.6, mu6=0.4)


@pytest.mark.parametrize("scheme", ["semi-implicit-euler", "imex-bdf2"])
@pytest.mark.parametrize("case", ["2d-case1", "3d-case2"])
def test_audit_of_consecutive_states_is_the_run_row(grid2d, grid3d, alpha_one, case, scheme):
    """energy_law_audit(s_k, s_k+1) on consecutive stepped states gives the
    energy and the residuals of run()'s row k+1, bit for bit: both read E and
    the channels from the states' own bundles."""
    st = (smooth_state(grid2d, alpha_one, seed=5) if case == "2d-case1"
          else smooth_state(grid3d, CASE2_3D, seed=5))
    states = []
    traj = run(st, TimeStepperConfig(dt=1e-3, t_end=4e-3, scheme=scheme),
               hooks=(lambda s, i: states.append(s),))
    assert len(states) == len(traj.reports) == 5
    for k, row in enumerate(traj.reports[1:]):
        audit = energy_law_audit(states[k], states[k + 1])
        assert ((audit.time, audit.E_total, audit.residual_general, audit.residual_case1)
                == (row.time, row.E_total, row.residual_general, row.residual_case1))


def test_audit_refuses_a_pair_of_two_settings(grid2d, alpha_one):
    """The two states of an audit share one grid (dim, n) and one set of
    coefficients; a twin grid or equal coefficients are the same setting."""
    st = smooth_state(grid2d, alpha_one, seed=1)
    coarse = smooth_state(SpectralGrid(2, 16), alpha_one, seed=1)
    for other in (FieldState(grid=grid2d, coeffs=from_alpha(0.5, 1.7), time=0.5, u=st.u, d=st.d),
                  coarse.with_fields(coarse.u, coarse.d, 0.5)):
        with pytest.raises(ParameterError, match="^audit pair: "):
            energy_law_audit(st, other)
    twin = FieldState(grid=SpectralGrid(2, 32), coeffs=from_alpha(1.0, 1.0), time=0.5,
                      u=st.u, d=st.d)
    assert energy_law_audit(st, twin) == energy_law_audit(st, st.with_fields(st.u, st.d, 0.5))


CASE2_ONLY = LeslieCoefficients(lambda1=-1.0, lambda2=0.3, mu1=0.0, mu2=-0.5,
                                mu3=0.5, mu4=1.0, mu5=0.6, mu6=0.3)


def test_case2_lower_bound_on_random_states(grid2d):
    eta = eta_margin(CASE2_ONLY)
    assert eta > 0.0
    for seed in range(5):
        st = smooth_state(grid2d, CASE2_ONLY, seed=seed)
        rep = channels(st, constitutive(st))
        assert case2_lower_bound_check(rep, eta)
        assert rep.norm_N_sq > 0.0
    # an eta above the sharp margin must eventually fail
    st = smooth_state(grid2d, CASE2_ONLY, seed=0)
    assert not case2_lower_bound_check(channels(st, constitutive(st)), 100.0)
    with pytest.raises(ParameterError):
        case2_lower_bound_check(channels(st, constitutive(st)), -1.0)


@pytest.mark.parametrize("deficit, holds", [(0.99e-10, True), (1.01e-10, False)])
def test_case2_lower_bound_forgives_an_absolute_1e10(deficit, holds):
    """The check holds while D_N + D_cross + D_Ad falls short of
    eta (||N||^2 + ||Ad||^2) by less than 1e-10, and fails beyond."""
    rep = EnergyReport(time=0.0, E_total=0.0, E_kinetic=0.0, E_elastic=0.0, E_penalty=0.0,
                       D_N=1.0 - deficit, norm_N_sq=1.0)
    assert case2_lower_bound_check(rep, 1.0) is holds


def test_quantity_A_taylor_green(grid2d, alpha_one):
    """The monitor's A = ||grad u||^2 + ||Lap d - grad_d W||^2."""
    a = 0.4
    st = quiescent(grid2d, alpha_one)
    st = st.with_fields(taylor_green_velocity(grid2d, a), st.d, 0.0)
    # ||grad u||^2 = 4 pi^2 a^2, tension = 0 for the uniform director
    assert BlowupMonitorState().update(st, constitutive(st)).A_history == [
        pytest.approx(4.0 * np.pi ** 2 * a ** 2, rel=1e-13)]
    st = quiescent(grid2d, alpha_one)
    assert BlowupMonitorState().update(st, constitutive(st)).A_history == [0.0]


@pytest.mark.parametrize("grid", ["grid2d", "grid3d"])
def test_tension_norm_of_a_stepped_state_is_the_oracles(grid, request):
    """On a stepped Case 2 state, D_case1_director (-lambda1) and the
    monitor's A - ||grad u||^2 are ||Lap d - stage(grad_d W)||^2 of the
    oracles, to rounding: the bundle keeps the tension only as that number."""
    g = request.getfixturevalue(grid)
    st = smooth_state(g, CASE2_SET, seed=29)
    st = Stepper(g, CASE2_SET, TimeStepperConfig(dt=1e-3, t_end=0.01)).step_pair(st)
    assert st.spectra is not None
    t = tension(g, st.d, CASE2_SET.epsilon)
    want = g.l2_inner_unchecked(t, t)
    b = constitutive(st)
    got_channel = channels(st, b).D_case1_director * (-CASE2_SET.lambda1)
    got_monitor = (BlowupMonitorState().update(st, b).A_history[0]
                   - g.l2_inner_unchecked(b.grad_u, b.grad_u))
    assert want > 0.0
    assert got_channel == pytest.approx(want, rel=1e-12)
    assert got_monitor == pytest.approx(want, rel=1e-12)


A_BOUND_SLACK = 1e-12  # relative slack of the A_qty bound


@pytest.mark.parametrize("case, scheme", [("2d-case1", "semi-implicit-euler"),
                                          ("2d-case1", "imex-bdf2"),
                                          ("3d-case2", "semi-implicit-euler")])
def test_A_qty_is_bounded_by_the_dissipation(grid2d, grid3d, alpha_one, case, scheme):
    """On every row of a stepped run, k A_qty <= dissipation, from D_visc =
    (mu4/2)||grad u||^2 for div-free u and tension = -lambda1 N - lambda2 Ad:
    in Case 1, k = min(mu4/2, -1/lambda1) against dissipation_case1; in Case
    2, k = min(mu4/2, eta/(2 max(lambda1^2, lambda2^2))) against
    dissipation_general, eta = eta_margin.  The ratio reads about 0.5."""
    if case == "2d-case1":
        c, st, total = alpha_one, smooth_state(grid2d, alpha_one, seed=31), "dissipation_case1"
        k = min(c.mu4 / 2.0, -1.0 / c.lambda1)
    else:
        c, st, total = CASE2_3D, smooth_state(grid3d, CASE2_3D, seed=31), "dissipation_general"
        k = min(c.mu4 / 2.0, eta_margin(c) / (2.0 * max(c.lambda1 ** 2, c.lambda2 ** 2)))
    traj = run(st, TimeStepperConfig(dt=1e-3, t_end=0.01, scheme=scheme))
    assert len(traj.reports) == len(traj.monitor.A_history) == 11
    for rep, a in zip(traj.reports, traj.monitor.A_history):
        assert a > 0.0
        assert k * a <= (1.0 + A_BOUND_SLACK) * getattr(rep, total), k * a / getattr(rep, total)


def _curl(grad_u):
    """curl u from grad_u[i, j] = d_i u_j: the scalar vorticity in 2D, the
    vector in 3D; the reference _sup_curl is checked against."""
    if grad_u.shape[0] == 2:
        return grad_u[0, 1] - grad_u[1, 0]
    out = np.empty((3,) + grad_u.shape[2:])
    for c, (a, b) in enumerate(((1, 2), (2, 0), (0, 1))):
        np.subtract(grad_u[a, b], grad_u[b, a], out=out[c])
    return out


@pytest.mark.parametrize("dim, n", [(2, 32), (3, 16)])
def test_sup_curl_is_the_sup_norm_of_the_curl(dim, n):
    """_sup_curl of random gradients, over six decades of scale, gives the
    bits of the sup norm of the curl built from them."""
    g = SpectralGrid(dim, n)
    rng = np.random.default_rng(dim)
    for scale in (1e-3, 1.0, 1e3):
        G = scale * rng.standard_normal((dim, dim) + g.shape)
        assert _sup_curl(G) == g.sup_norm_unchecked(_curl(G)), scale


@pytest.mark.parametrize("grid", ["grid2d", "grid3d"])
def test_monitor_curl_from_grad_u(grid, alpha_one, request):
    """sup|curl u|, formed from the bundle's grad u, is the sup norm of the
    spectral curl of u."""
    g = request.getfixturevalue(grid)
    st = smooth_state(g, alpha_one, seed=4, u_amp=1.0)
    want = sup_norm(g, curl(g, st.u))
    assert want > 0.1
    assert _sup_curl(constitutive(st).grad_u) == pytest.approx(want, rel=0, abs=1e-12)


class TestBlowupMonitor:
    def test_sup_norm_hand_values(self, grid2d, alpha_one):
        a = 0.3
        st = quiescent(grid2d, alpha_one).with_fields(
            taylor_green_velocity(grid2d, a), circle_director(grid2d), 0.0)
        mon = BlowupMonitorState()
        mon.update(st, constitutive(st))
        assert mon.sup_curl_u[-1] == pytest.approx(4.0 * np.pi * a, abs=1e-10)
        assert mon.sup_grad_d[-1] == pytest.approx(TWO_PI, abs=1e-10)

    def test_B_exact_for_constant_integrand(self, grid2d, alpha_one):
        st0 = quiescent(grid2d, alpha_one).with_fields(
            taylor_green_velocity(grid2d, 0.3), circle_director(grid2d), 0.0)
        mon = BlowupMonitorState()
        mon.update(st0, constitutive(st0))
        integrand = mon.sup_curl_u[0] + mon.sup_grad_d[0] ** 4
        expect = 0.0
        for k in range(1, 5):
            later = st0.with_fields(st0.u, st0.d, 0.1 * k)
            mon.update(later, constitutive(later))
            expect += integrand * (0.1 * k - 0.1 * (k - 1))
            assert mon.B_integral == expect  # trapezoid of a constant is exact

    def test_B_nondecreasing_on_run(self, grid2d, alpha_one):
        st = smooth_state(grid2d, alpha_one, seed=3)
        traj = run(st, TimeStepperConfig(dt=1e-3, t_end=0.02), cadence=4)
        B = traj.monitor.B_history
        assert all(B[i] <= B[i + 1] for i in range(len(B) - 1))
        assert B[0] == 0.0

    def test_pop_undoes_the_last_update(self, grid2d, alpha_one):
        """pop() removes the last sample, B_integral included: a monitor that
        took a sample and dropped it goes on as one that never took it."""
        st = smooth_state(grid2d, alpha_one, seed=6)
        states = [st.with_fields((1.0 + k) * st.u, st.d, 0.1 * k) for k in range(3)]
        kept, popped = BlowupMonitorState(), BlowupMonitorState()
        popped.update(states[0], constitutive(states[0])).pop()
        assert vars(popped) == vars(BlowupMonitorState()) and popped.B_integral == 0.0
        for s in (states[0], states[2]):
            kept.update(s, constitutive(s))
        for s in states:
            popped.update(s, constitutive(s))
            if s is states[1]:
                popped.pop()
        assert vars(popped) == vars(kept)
        assert popped.B_integral == kept.B_integral > 0.0

    def test_update_overflows_to_inf(self, grid2d, alpha_one):
        """sup|grad d| ~ 1e81 puts sup|grad d|^4 past the float range: the
        update gives inf, as numpy does, instead of raising OverflowError."""
        st = smooth_state(grid2d, alpha_one, seed=3)
        st = st.with_fields(st.u, 1e80 * st.d, 0.0)
        mon = BlowupMonitorState()
        with np.errstate(all="ignore"):
            mon.update(st, constitutive(st))
        assert mon.sup_grad_d[0] > 1e77
        assert np.isinf(mon.row(0)).any()

    def test_quiescent_values(self, grid2d, alpha_one):
        st = quiescent(grid2d, alpha_one)
        mon = BlowupMonitorState()
        mon.update(st, constitutive(st))
        assert mon.G_history == [1.0]
        assert mon.A_history == [0.0]

    def test_update_frees_the_curl_after_its_norms(self, grid3d, monkeypatch):
        """3D Case 2 at n=16, on a stepped state's bundle: update builds no
        curl u.  sup|curl u| holds one squared-norm field and one scratch
        field, both freed before sup|grad d| starts, and the update's traced
        peak above the bundle stays below 2.2 fields (2.05 measured)."""
        st = Stepper(grid3d, CASE2_SET, TimeStepperConfig(dt=1e-3, t_end=0.01)).step_pair(
            smooth_state(grid3d, CASE2_SET, seed=53))
        held = []
        sup_norm_unchecked = SpectralGrid.sup_norm_unchecked

        def holding(self, f):
            if f.ndim == self.dim + 2:
                held.append(tracemalloc.get_traced_memory()[0])
            return sup_norm_unchecked(self, f)

        monkeypatch.setattr(SpectralGrid, "sup_norm_unchecked", holding)
        bundle = constitutive(st)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            BlowupMonitorState().update(st, bundle)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        field = 8 * grid3d.npoints
        assert len(held) == 1  # sup|grad d|
        assert max(held) - start < field, (max(held) - start) / field
        assert (peak - start) / field < 2.2, (peak - start) / field

    def test_rejects_nonmonotone_times(self, grid2d, alpha_one):
        st = quiescent(grid2d, alpha_one)
        b = constitutive(st)
        mon = BlowupMonitorState()
        mon.update(st.with_fields(st.u, st.d, 0.5), b)
        with pytest.raises(ParameterError):
            mon.update(st.with_fields(st.u, st.d, 0.5), b)
        with pytest.raises(ParameterError):
            mon.update(st.with_fields(st.u, st.d, 0.1), b)


def test_write_timeseries_round_trip(tmp_path, grid2d, alpha_one):
    st = smooth_state(grid2d, alpha_one, seed=4)
    traj = run(st, TimeStepperConfig(dt=1e-3, t_end=0.005))
    path = tmp_path / "diag.csv"
    write_timeseries(path, traj.reports, traj.monitor)

    lines = path.read_text().splitlines()
    assert lines[0].startswith("# units:")
    assert lines[1] == ",".join(CSV_COLUMNS)
    with open(path) as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    assert len(rows) == len(traj.reports) == 6
    assert float(rows[0]["time"]) == 0.0
    assert float(rows[-1]["time"]) == pytest.approx(0.005)
    assert float(rows[2]["E_total"]) == traj.reports[2].E_total  # %.17g survives


def test_write_timeseries_length_mismatch(tmp_path, grid2d, alpha_one):
    st = smooth_state(grid2d, alpha_one, seed=4)
    traj = run(st, TimeStepperConfig(dt=1e-3, t_end=0.005))
    with pytest.raises(ParameterError):
        write_timeseries(tmp_path / "x.csv", traj.reports[:-1], traj.monitor)


def test_readme_lists_the_csv_columns():
    """The backticked names of README's diagnostics.csv bullet under "Output
    files" are CSV_COLUMNS, in order."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("\n## Output files\n", 1)[1]
    bullet = section.split("\n* `diagnostics.csv`", 1)[1].split("\n* ", 1)[0]
    assert tuple(m for m in re.findall(r"`([^`]+)`", bullet) if m.isidentifier()) == CSV_COLUMNS
