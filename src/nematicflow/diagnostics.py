"""Energy bookkeeping, dissipation channels, and blow-up criterion monitors.

Quadrature is the collocation grid mean on the unit box, or its Parseval
equal on box(band) for N, Ad and the tension.  The total energy is

    E = 1/2 ||u||^2 + 1/2 ||grad d||^2 + int W(d),

and along solutions dE/dt = -(D_visc + D_mu1 + D_N + D_Ad + D_cross) - D_reg,
with the equivalent case-1 grouping (under Parodi)

    dE/dt = -(D_visc + D_mu1 + D_case1_director + D_case1_Ad) - D_reg.

Residuals compare a finite-difference dE/dt of a state pair against the
channel sum evaluated at the earlier state, so they measure the time
discretization only; the spatial assembly balances to rounding error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ParameterError
from .physics import (ConstitutiveBundle, FieldState, RegularizationConfig,
                      _check_match, constitutive)
from .spectral import _sum_squares

CSV_COLUMNS = (
    "time", "E_total", "E_kinetic", "E_elastic", "E_penalty",
    "D_mu1", "D_visc", "D_Ad", "D_N", "D_cross",
    "D_case1_director", "D_case1_Ad", "D_reg",
    "residual_general", "residual_case1",
    "sup_curl_u", "sup_grad_d", "B_integral", "G_bracket", "A_qty",
)
_REPORT_COLUMNS = CSV_COLUMNS[:15]  # EnergyReport fields; the rest is BlowupMonitorState.row
CASE2_BOUND_TOL = 1e-10  # absolute slack of case2_lower_bound_check


@dataclass(frozen=True)
class EnergyReport:
    """Energies, dissipation channels, and audit residuals at one instant."""

    time: float
    E_total: float
    E_kinetic: float
    E_elastic: float
    E_penalty: float
    D_mu1: float = 0.0
    D_visc: float = 0.0
    D_Ad: float = 0.0
    D_N: float = 0.0
    D_cross: float = 0.0
    D_case1_director: float = 0.0
    D_case1_Ad: float = 0.0
    D_reg: float = 0.0
    residual_general: float = 0.0
    residual_case1: float = 0.0
    norm_N_sq: float = 0.0
    norm_Ad_sq: float = 0.0

    @property
    def dissipation_general(self) -> float:
        return self.D_mu1 + self.D_visc + self.D_Ad + self.D_N + self.D_cross + self.D_reg

    @property
    def dissipation_case1(self) -> float:
        return self.D_mu1 + self.D_visc + self.D_case1_director + self.D_case1_Ad + self.D_reg


def _energies(state: FieldState, bundle: ConstitutiveBundle) -> tuple[float, float, float, float]:
    """(E_kinetic, E_elastic, E_penalty, E_total) by quadrature; bundle = constitutive(state)."""
    ek = 0.5 * state.grid.l2_inner_unchecked(state.u, state.u)
    ee = 0.5 * state.grid.l2_inner_unchecked(bundle.grad_d, bundle.grad_d)
    return ek, ee, bundle.E_penalty, ek + ee + bundle.E_penalty


def channels(state: FieldState, bundle: ConstitutiveBundle,
             reg: RegularizationConfig | None = None) -> EnergyReport:
    """Energies and every dissipation channel, read from bundle = constitutive(state);
    reg, the run's regularisation, adds D_reg.

    D_visc   = mu4 ||A||^2            (= (mu4/2)||grad u||^2 for div-free u)
    D_mu1    = mu1 ||dAd||^2
    D_N      = -lambda1 ||N||^2
    D_Ad     = (mu5+mu6) ||Ad||^2
    D_cross  = -(lambda2-mu2-mu3) <N, Ad>
    D_case1_director = (-1/lambda1) ||Lap d - grad_d W||^2
    D_case1_Ad       = (mu5+mu6+lambda2^2/lambda1) ||Ad||^2
    D_reg    = (1/M) mean |grad u|^r   (0 when regularization is off)
    """
    g, c = state.grid, state.coeffs
    inner = g.l2_inner_unchecked  # FieldState validates u and d; the bundle derives from them

    ek, ee, ep, et = _energies(state, bundle)

    G = bundle.grad_u.reshape(g.dim, g.dim, -1)  # ||A||^2 = (<G, G> + <G, G^T>)/2
    d_visc = c.mu4 * 0.5 * (inner(G, G) + float(np.einsum("ijk,jik->", G, G)) / g.npoints)
    d_mu1 = c.mu1 * inner(bundle.dAd, bundle.dAd) if c.mu1 != 0.0 else 0.0
    d_n = -c.lambda1 * bundle.N_sq
    d_ad = (c.mu5 + c.mu6) * bundle.Ad_sq
    d_cross = -(c.lambda2 - c.mu2 - c.mu3) * bundle.N_Ad
    d_c1_dir = bundle.tension_sq / (-c.lambda1)
    d_c1_ad = (c.mu5 + c.mu6 + c.lambda2 ** 2 / c.lambda1) * bundle.Ad_sq

    d_reg = 0.0
    if reg is not None:
        d_reg = float((_sum_squares(bundle.grad_u, g.dim) ** (0.5 * reg.r)).mean()) / reg.M

    return EnergyReport(
        time=state.time, E_total=et, E_kinetic=ek, E_elastic=ee,
        E_penalty=ep, D_mu1=d_mu1, D_visc=d_visc, D_Ad=d_ad, D_N=d_n,
        D_cross=d_cross, D_case1_director=d_c1_dir, D_case1_Ad=d_c1_ad,
        D_reg=d_reg, norm_N_sq=bundle.N_sq, norm_Ad_sq=bundle.Ad_sq,
    )


def _residuals(earlier: EnergyReport, e_later: float, gap: float) -> dict[str, float]:
    """The audit rule: the finite-difference dE/dt over `gap` plus the general
    and the case-1 dissipation of the earlier report."""
    rate = (e_later - earlier.E_total) / gap
    return {"residual_general": rate + earlier.dissipation_general,
            "residual_case1": rate + earlier.dissipation_case1}


def energy_law_audit(prev: FieldState, next_state: FieldState,
                     reg: RegularizationConfig | None = None) -> EnergyReport:
    """Audit one state pair: finite-difference dE/dt against channels at prev.

    residual_general = (E_next - E_prev)/dt + sum(general channels at prev)
    residual_case1   = (E_next - E_prev)/dt + sum(case-1 channels at prev)

    dt is the time gap; both states are read through constitutive(.), as
    run() reads its samples, and reg gives prev's D_reg.  Both vanish as
    O(dt) for the continuous-in-time system; for a scheme of order p the
    per-step imbalance is O(dt^p).
    """
    _check_match(next_state, prev.grid, prev.coeffs, "audit pair")
    dt = next_state.time - prev.time
    if not dt > 0.0:
        raise ParameterError(f"audit requires a positive time gap, got {dt}")
    rep = channels(prev, constitutive(prev), reg)
    _, _, _, e_next = _energies(next_state, constitutive(next_state))
    return replace(rep, time=next_state.time, E_total=e_next, **_residuals(rep, e_next, dt))


def case2_lower_bound_check(report: EnergyReport, eta: float) -> bool:
    """Coercivity of the director channels: D_N + D_cross + D_Ad >= eta (||N||^2 + ||Ad||^2),
    up to an absolute slack of CASE2_BOUND_TOL."""
    if eta < 0.0 or not math.isfinite(eta):
        raise ParameterError(f"eta must be finite and nonnegative, got {eta}")
    lhs = report.D_N + report.D_cross + report.D_Ad
    rhs = eta * (report.norm_N_sq + report.norm_Ad_sq)
    return lhs + CASE2_BOUND_TOL >= rhs


# -- blow-up criterion monitors -------------------------------------------------


def _sup_curl(grad_u: np.ndarray) -> float:
    """sup|curl u| from grad_u[i, j] = d_i u_j.  In 3D the squared components
    are summed in component order into one field, the bits of the sup norm of
    the curl vector, without building it."""
    if grad_u.shape[0] == 2:
        return float(np.abs(grad_u[0, 1] - grad_u[1, 0]).max())
    sq, tmp = np.zeros(grad_u.shape[2:]), np.empty(grad_u.shape[2:])
    for a, b in ((1, 2), (2, 0), (0, 1)):
        np.subtract(grad_u[a, b], grad_u[b, a], out=tmp)
        sq += np.multiply(tmp, tmp, out=tmp)
    return float(np.sqrt(sq.max()))


class BlowupMonitorState:
    """Running sup-norm history and derived blow-up criterion quantities.

    Per update (one sampled state):
      sup_curl_u = sup |curl u|, sup_grad_d = sup |grad d| (Frobenius),
      B_integral = int_0^t (sup|curl u| + sup|grad d|^4)  (trapezoid),
      G_bracket  = 1 + sup|curl u| + sup|grad d|^2
                     + (mu5+mu6)^2 sup|grad d|^(8/3) + mu1 sup|grad d|^4, and
      A_qty      = ||grad u||^2 + ||Lap d - stage(grad_d W)||^2.

    The paper's abstract puts its blow-up criterion in terms of the time
    integral of sup|curl u| and sup|grad d| without giving their powers,
    and the repository holds only that abstract: the 4 on sup|grad d| in
    B_integral is this code's choice, backed by no source here.
    """

    def __init__(self):
        # one list per column, one entry per sample; pop() relies on that
        self.times: list[float] = []
        self.sup_curl_u: list[float] = []
        self.sup_grad_d: list[float] = []
        self.B_history: list[float] = []
        self.G_history: list[float] = []
        self.A_history: list[float] = []

    @property
    def B_integral(self) -> float:
        """B at the last sample, 0.0 before the first."""
        return self.B_history[-1] if self.B_history else 0.0

    def update(self, state: FieldState, bundle: ConstitutiveBundle) -> "BlowupMonitorState":
        """Append the quantities of one sampled state.

        bundle is constitutive(state); grad u, grad d and tension_sq are
        read from it.
        """
        g = state.grid
        c = state.coeffs
        t = float(state.time)
        if self.times and not t > self.times[-1]:
            raise ParameterError(
                f"monitor updates need strictly increasing times, got {t} after {self.times[-1]}"
            )
        a = _sup_curl(bundle.grad_u)
        # a numpy float: its powers overflow to inf where a Python float's raise
        b = np.float64(g.sup_norm_unchecked(bundle.grad_d))

        integrand = a + b ** 4
        B = self.B_integral
        if self.times:
            last = self.sup_curl_u[-1] + self.sup_grad_d[-1] ** 4
            B += 0.5 * (last + integrand) * (t - self.times[-1])

        G = 1.0 + a + b ** 2 + (c.mu5 + c.mu6) ** 2 * b ** (8.0 / 3.0) + c.mu1 * b ** 4
        a_qty = g.l2_inner_unchecked(bundle.grad_u, bundle.grad_u) + bundle.tension_sq

        self.times.append(t)
        self.sup_curl_u.append(a)
        self.sup_grad_d.append(b)
        self.B_history.append(B)
        self.G_history.append(G)
        self.A_history.append(a_qty)
        return self

    def pop(self) -> None:
        """Remove the last sample; B_integral returns to its value before it."""
        for column in vars(self).values():
            column.pop()

    def row(self, i: int) -> tuple[float, ...]:
        """Sample i's values in CSV column order, sup_curl_u .. A_qty."""
        return (self.sup_curl_u[i], self.sup_grad_d[i], self.B_history[i], self.G_history[i],
                self.A_history[i])


# -- CSV output -----------------------------------------------------------------


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_timeseries(path, reports: list[EnergyReport], monitor: BlowupMonitorState) -> None:
    """One CSV row per sampled state; quantities are dimensionless code units.

    Column order is CSV_COLUMNS; a '# units:' comment line precedes the header
    so the header row itself stays machine-readable.
    """
    if len(reports) != len(monitor.times):
        raise ParameterError(
            f"report/monitor length mismatch: {len(reports)} vs {len(monitor.times)}"
        )
    lines = ["# units: all quantities dimensionless (unit box, unit density)"]
    lines.append(",".join(CSV_COLUMNS))
    for i, rep in enumerate(reports):
        row = tuple(getattr(rep, name) for name in _REPORT_COLUMNS) + monitor.row(i)
        lines.append(",".join(_fmt(v) for v in row))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
