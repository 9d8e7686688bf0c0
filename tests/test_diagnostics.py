"""Energy reports, audit residual arithmetic, and the blow-up monitors."""

import csv

import numpy as np
import pytest

from nematicflow import (BlowupMonitorState, FieldState, LeslieCoefficients,
                         ParameterError, TimeStepperConfig,
                         case2_lower_bound_check, channels, constitutive,
                         energy_law_audit, eta_margin, from_alpha, quantity_A,
                         quantity_Ys, run, write_timeseries)
from nematicflow.diagnostics import CSV_COLUMNS, _curl, energies
from nematicflow.config import taylor_green_velocity

from conftest import smooth_state

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
    ek, ee, ep, et = energies(st)
    assert (ek, ee, ep, et) == (0.0, 0.0, 0.0, 0.0)


def test_energies_hand_values(grid2d, alpha_one):
    # kinetic: Taylor-Green amplitude 1 has mean |u|^2 = 1/2
    st = quiescent(grid2d, alpha_one)
    u = taylor_green_velocity(grid2d, 1.0)
    st = st.with_fields(u, st.d, 0.0)
    ek, _, _, _ = energies(st)
    assert ek == pytest.approx(0.25, rel=1e-14)

    # elastic: |grad d| = 2pi for the unit circle director, penalty zero
    st = st.with_fields(np.zeros_like(u), circle_director(grid2d), 0.0)
    ek, ee, ep, _ = energies(st)
    assert ek == 0.0
    assert ee == pytest.approx(2.0 * np.pi ** 2, rel=1e-13)
    assert ep == pytest.approx(0.0, abs=1e-25)


def test_channels_quiescent_all_zero(grid2d, alpha_one):
    rep = channels(quiescent(grid2d, alpha_one))
    for name in ("D_mu1", "D_visc", "D_Ad", "D_N", "D_cross",
                 "D_case1_director", "D_case1_Ad", "D_reg"):
        assert getattr(rep, name) == 0.0


def test_channels_viscous_hand_value(grid2d):
    # ||A||^2 for Taylor-Green amplitude a is 2 pi^2 a^2
    c = from_alpha(0.5, 1.7)
    a = 0.4
    st = quiescent(grid2d, c).with_fields(
        taylor_green_velocity(grid2d, a), quiescent(grid2d, c).d, 0.0)
    rep = channels(st)
    assert rep.D_visc == pytest.approx(c.mu4 * 2.0 * np.pi ** 2 * a ** 2, rel=1e-13)
    # uniform director, no flow coupling: every director channel vanishes
    assert abs(rep.D_N) < 1e-20
    assert abs(rep.D_Ad) < 1e-20


def test_channel_identities_on_random_states(grid2d, alpha_one):
    """Cross-checks between channels that hold under Parodi (alpha preset):
    D_N + D_Ad + D_cross = D_case1_director + D_case1_Ad."""
    for seed in range(3):
        st = smooth_state(grid2d, alpha_one, seed=seed)
        rep = channels(st)
        lhs = rep.D_N + rep.D_Ad + rep.D_cross
        rhs = rep.D_case1_director + rep.D_case1_Ad
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-13)
        assert rep.dissipation_general == pytest.approx(rep.dissipation_case1,
                                                        rel=1e-10, abs=1e-13)


def test_audit_residual_arithmetic(grid2d, alpha_one):
    st = smooth_state(grid2d, alpha_one, seed=1)
    rep0 = channels(st)
    # identical pair: rate = 0, so residual = dissipation at prev
    later = st.with_fields(st.u, st.d, 0.5)
    audit = energy_law_audit(st, later)
    assert audit.residual_general == pytest.approx(rep0.dissipation_general, rel=1e-14)
    assert audit.residual_case1 == pytest.approx(rep0.dissipation_case1, rel=1e-14)
    with pytest.raises(ParameterError):
        energy_law_audit(st, st.with_fields(st.u, st.d, 0.0))


def test_audit_explicit_dt_override(grid2d, alpha_one):
    st = smooth_state(grid2d, alpha_one, seed=2)
    later = st.with_fields(0.5 * st.u, st.d, 1.0)
    a = energy_law_audit(st, later)
    b = energy_law_audit(st, later, dt=2.0)
    # halving the rate moves the residual by half the energy difference
    e0 = channels(st).E_total
    e1 = energies(later)[3]
    assert a.residual_general - b.residual_general == pytest.approx(
        (e1 - e0) * (1.0 - 0.5), rel=1e-12)


CASE2_ONLY = LeslieCoefficients(lambda1=-1.0, lambda2=0.3, mu1=0.0, mu2=-0.5,
                                mu3=0.5, mu4=1.0, mu5=0.6, mu6=0.3)


def test_case2_lower_bound_on_random_states(grid2d):
    eta = eta_margin(CASE2_ONLY)
    assert eta > 0.0
    for seed in range(5):
        st = smooth_state(grid2d, CASE2_ONLY, seed=seed)
        rep = channels(st)
        assert case2_lower_bound_check(rep, eta)
        assert rep.norm_N_sq > 0.0
    # an eta above the sharp margin must eventually fail
    st = smooth_state(grid2d, CASE2_ONLY, seed=0)
    assert not case2_lower_bound_check(channels(st), 100.0)
    with pytest.raises(ParameterError):
        case2_lower_bound_check(channels(st), -1.0)


def test_quantity_A_taylor_green(grid2d, alpha_one):
    a = 0.4
    st = quiescent(grid2d, alpha_one)
    st = st.with_fields(taylor_green_velocity(grid2d, a), st.d, 0.0)
    # ||grad u||^2 = 4 pi^2 a^2, tension = 0 for the uniform director
    assert quantity_A(st) == pytest.approx(4.0 * np.pi ** 2 * a ** 2, rel=1e-13)
    assert quantity_A(quiescent(grid2d, alpha_one)) == 0.0


def test_quantity_Ys_single_mode(grid2d, alpha_one):
    x = grid2d.coords()
    u = np.zeros((2,) + grid2d.shape)
    u[1] = np.sin(TWO_PI * x[0])
    st = quiescent(grid2d, alpha_one).with_fields(u, quiescent(grid2d, alpha_one).d, 0.0)
    for s in (0.0, 3.0):
        expect = (1.0 + 4.0 * np.pi ** 2) ** s / 2.0
        assert quantity_Ys(st, s) == pytest.approx(expect, rel=1e-12)


@pytest.mark.parametrize("grid", ["grid2d", "grid3d"])
def test_monitor_curl_from_grad_u(grid, alpha_one, request):
    """The monitor's curl, formed from the bundle's grad u, is the spectral
    curl of u, component by component."""
    g = request.getfixturevalue(grid)
    st = smooth_state(g, alpha_one, seed=4, u_amp=1.0)
    np.testing.assert_allclose(_curl(constitutive(st).grad_u), g.curl(st.u), rtol=0, atol=1e-12)


class TestBlowupMonitor:
    def test_sup_norm_hand_values(self, grid2d, alpha_one):
        a = 0.3
        st = quiescent(grid2d, alpha_one).with_fields(
            taylor_green_velocity(grid2d, a), circle_director(grid2d), 0.0)
        mon = BlowupMonitorState()
        mon.update(st)
        assert mon.sup_curl_u[-1] == pytest.approx(4.0 * np.pi * a, abs=1e-10)
        assert mon.sup_grad_d[-1] == pytest.approx(TWO_PI, abs=1e-10)

    def test_B_exact_for_constant_integrand(self, grid2d, alpha_one):
        st0 = quiescent(grid2d, alpha_one).with_fields(
            taylor_green_velocity(grid2d, 0.3), circle_director(grid2d), 0.0)
        mon = BlowupMonitorState()
        mon.update(st0)
        integrand = mon.sup_curl_u[0] + mon.sup_grad_d[0] ** 4
        expect = 0.0
        for k in range(1, 5):
            mon.update(st0.with_fields(st0.u, st0.d, 0.1 * k))
            expect += integrand * (0.1 * k - 0.1 * (k - 1))
            assert mon.B_integral == expect  # trapezoid of a constant is exact

    def test_B_nondecreasing_on_run(self, grid2d, alpha_one):
        st = smooth_state(grid2d, alpha_one, seed=3)
        traj = run(st, TimeStepperConfig(dt=1e-3, t_end=0.02), cadence=4)
        B = traj.monitor.B_history
        assert all(B[i] <= B[i + 1] for i in range(len(B) - 1))
        assert B[0] == 0.0

    def test_update_with_bundle_is_bitwise_equal(self, grid2d, alpha_one):
        st = smooth_state(grid2d, alpha_one, seed=6)
        states = []
        run(st, TimeStepperConfig(dt=1e-3, t_end=0.004),
            hooks=(lambda s, i: states.append(s),))
        fresh, handed = BlowupMonitorState(), BlowupMonitorState()
        for s in states:
            fresh.update(s)
            handed.update(s, constitutive(s))
        assert vars(handed) == vars(fresh)

    def test_update_overflows_to_inf(self, grid2d, alpha_one):
        """sup|grad d| ~ 1e81 puts sup|grad d|^4 past the float range: the
        update gives inf, as numpy does, instead of raising OverflowError."""
        st = smooth_state(grid2d, alpha_one, seed=3)
        st = st.with_fields(st.u, 1e80 * st.d, 0.0)
        mon = BlowupMonitorState()
        with np.errstate(all="ignore"):
            mon.update(st)
        assert mon.sup_grad_d[0] > 1e77
        assert np.isinf(mon.row(0)).any()

    def test_quiescent_values(self, grid2d, alpha_one):
        mon = BlowupMonitorState()
        mon.update(quiescent(grid2d, alpha_one))
        assert mon.G_history == [1.0]
        assert mon.logsob_history == [0.0]
        assert mon.Y3_history == [0.0]

    def test_rejects_nonmonotone_times(self, grid2d, alpha_one):
        st = quiescent(grid2d, alpha_one)
        mon = BlowupMonitorState()
        mon.update(st.with_fields(st.u, st.d, 0.5))
        with pytest.raises(ParameterError):
            mon.update(st.with_fields(st.u, st.d, 0.5))
        with pytest.raises(ParameterError):
            mon.update(st.with_fields(st.u, st.d, 0.1))


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
