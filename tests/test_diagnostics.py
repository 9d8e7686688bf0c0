"""Energy reports, audit residual arithmetic, and the blow-up monitors."""

import csv

import numpy as np
import pytest

from nematicflow import (BlowupMonitorState, FieldState, LeslieCoefficients,
                         ParameterError, SpectralGrid, TimeStepperConfig,
                         case2_lower_bound_check, channels, constitutive,
                         energy_law_audit, eta_margin, from_alpha, run,
                         write_timeseries)
from nematicflow.diagnostics import CSV_COLUMNS, EnergyReport, _curl, _energies
from nematicflow.config import taylor_green_velocity

from conftest import curl, smooth_state

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


def test_quantity_Ys_single_mode(grid2d, alpha_one):
    """Y_s = ||L^s u||^2 + ||grad (L^s d)||^2 of u = (0, sin 2 pi x) and a
    uniform director is (1 + 4 pi^2)^s / 2; the monitor's Y3 is Y_3."""
    g = grid2d
    x = g.coords()
    u = np.zeros((2,) + g.shape)
    u[1] = np.sin(TWO_PI * x[0])
    st = quiescent(g, alpha_one).with_fields(u, quiescent(g, alpha_one).d, 0.0)
    for s in (0.0, 3.0):
        expect = (1.0 + 4.0 * np.pi ** 2) ** s / 2.0
        ys = (g.sobolev_norm_hat(g.fft(st.u), s) ** 2
              + g.sobolev_norm_hat(g.fft(st.d), s, grad=True) ** 2)
        assert ys == pytest.approx(expect, rel=1e-12)
    assert BlowupMonitorState().update(st, constitutive(st)).Y3_history == [
        pytest.approx(expect, rel=1e-12)]


@pytest.mark.parametrize("grid", ["grid2d", "grid3d"])
def test_monitor_curl_from_grad_u(grid, alpha_one, request):
    """The monitor's curl, formed from the bundle's grad u, is the spectral
    curl of u, component by component."""
    g = request.getfixturevalue(grid)
    st = smooth_state(g, alpha_one, seed=4, u_amp=1.0)
    np.testing.assert_allclose(_curl(constitutive(st).grad_u), curl(g, st.u), rtol=0, atol=1e-12)


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
        assert mon.logsob_history == [0.0]
        assert mon.Y3_history == [0.0]

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
