"""Time integration: exponential semi-implicit stepping on the spectral grid.

Both schemes treat the stiff Fourier-diagonal parts exactly and the
remaining terms explicitly:

    semi-implicit-euler:  y+ = e^z y + dt phi1(z) F(y),   z = dt * symbol,
                          phi1(z) = (e^z - 1)/z
    imex-bdf2 (SBDF2):    y+ = [4 y_n - y_{n-1} + 2 dt (2 F_n - F_{n-1})]
                               / (3 - 2 dt * symbol),
                          bootstrapped by one euler step.

Linear symbols: -(mu4/2)|kappa|^2 for u and |kappa|^2/lambda1 for d (both
nonpositive).  y, F(y), the propagators, the BDF2 history and both updates
live in the dealias box: d in box(band), u in box(min(band, N_modes)).  The
coefficients of a state built from fields are gathered into those boxes.
After each step u is re-projected divergence-free and both are read back
from their boxes, so a quiescent state is a bitwise fixed point and pure
Stokes decay integrates exactly.  The new state carries those coefficients,
so only a step from a state built from fields transforms u and d forward.
"""

from __future__ import annotations

import copy
import math
import time as _time
from dataclasses import dataclass, replace

import numpy as np

from .diagnostics import BlowupMonitorState, EnergyReport, _residuals, channels
from .errors import BlowUpError, ParameterError, RegimeError
from .physics import (ConstitutiveBundle, FieldState, RegularizationConfig,
                      _director_force_hat, _momentum_force_hat, constitutive)

SCHEMES = ("semi-implicit-euler", "imex-bdf2")


@dataclass
class TimeStepperConfig:
    dt: float
    t_end: float
    scheme: str = "semi-implicit-euler"
    max_vorticity_sup: float | None = None

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ParameterError(f"dt must be positive and finite, got {self.dt}")
        if not (math.isfinite(self.t_end) and self.t_end >= 0.0):
            raise ParameterError(f"t_end must be nonnegative, got {self.t_end}")
        if self.t_end > 0.0 and not self.dt < self.t_end:
            raise ParameterError(f"require dt < t_end, got dt={self.dt}, t_end={self.t_end}")
        if self.scheme not in SCHEMES:
            raise ParameterError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if self.max_vorticity_sup is not None and not self.max_vorticity_sup > 0.0:
            raise ParameterError("max_vorticity_sup must be positive when set")


def _phi1(z: np.ndarray) -> np.ndarray:
    """(e^z - 1)/z with the removable singularity filled; accurate near 0."""
    zz = np.where(z == 0.0, 1.0, z)
    return np.where(z == 0.0, 1.0, np.expm1(z) / zz)


class Stepper:
    """Caches the Fourier-diagonal propagators for one (grid, coeffs, cfg, reg).

    step() is stateless for semi-implicit-euler.  For imex-bdf2 the instance
    keeps one level of history; the first call (or any call whose input is not
    the very state object the previous call returned) falls back to the euler
    step.
    """

    def __init__(self, grid, coeffs, cfg: TimeStepperConfig,
                 reg: RegularizationConfig | None = None):
        if coeffs.lambda1 >= 0.0:
            raise RegimeError(f"stepping requires lambda1 < 0, got {coeffs.lambda1}")
        if coeffs.mu4 <= 0.0:
            raise RegimeError(f"stepping requires mu4 > 0, got {coeffs.mu4}")
        self.grid = grid
        self.coeffs = coeffs
        self.cfg = cfg
        self.reg = reg
        dt = cfg.dt
        # u lives in box(band) & box(N_modes) == box(min(band, N_modes))
        n_modes = grid.band if reg is None or reg.N_modes is None else reg.N_modes
        self._band_u = min(grid.band, n_modes)
        sym_u = -0.5 * coeffs.mu4 * grid.box(self._band_u).ksq
        sym_d = grid.box(grid.band).ksq / coeffs.lambda1
        self._exp_u = np.exp(dt * sym_u)
        self._exp_d = np.exp(dt * sym_d)
        self._phi_u = dt * _phi1(dt * sym_u)
        self._phi_d = dt * _phi1(dt * sym_d)
        self._den_u = 3.0 - 2.0 * dt * sym_u
        self._den_d = 3.0 - 2.0 * dt * sym_d
        self._hist = None  # (output state, u_hat, d_hat, Fu_hat, Fd_hat) of previous step

    def step_pair(self, state: FieldState) -> tuple[FieldState, ConstitutiveBundle]:
        """Advance one dt; returns (new state, bundle evaluated at the input state).

        The bundle is the step's only constitutive evaluation of `state`;
        run() samples `state` from it instead of evaluating it again.  A
        BlowUpError discards it.
        """
        g = self.grid
        dt = self.cfg.dt
        bundle = constitutive(state)
        u_hat = g.to_box(bundle.u_hat, self._band_u)
        d_hat = g.to_box(bundle.d_hat, g.band)
        fu_hat = g.leray_hat(g.to_box(_momentum_force_hat(state, bundle, self.reg), self._band_u))
        fd_hat = _director_force_hat(state, bundle)

        use_bdf2 = (
            self.cfg.scheme == "imex-bdf2"
            and self._hist is not None
            and self._hist[0] is state
        )
        if use_bdf2:
            _, up_hat, dp_hat, fup_hat, fdp_hat = self._hist
            u_new_hat = (4.0 * u_hat - up_hat + 2.0 * dt * (2.0 * fu_hat - fup_hat)) / self._den_u
            d_new_hat = (4.0 * d_hat - dp_hat + 2.0 * dt * (2.0 * fd_hat - fdp_hat)) / self._den_d
        else:
            u_new_hat = self._exp_u * u_hat + self._phi_u * fu_hat
            d_new_hat = self._exp_d * d_hat + self._phi_d * fd_hat

        u_new_hat = g.leray_hat(u_new_hat)
        u_new_hat.flags.writeable = d_new_hat.flags.writeable = False
        u_new = g.ifft(u_new_hat)
        d_new = g.ifft(d_new_hat)
        t_new = state.time + dt

        try:  # the state's own finiteness scan is the step's only one
            new_state = FieldState(grid=g, coeffs=state.coeffs, time=t_new, u=u_new, d=d_new,
                                   spectra=(u_new_hat, d_new_hat))
        except ParameterError:
            raise BlowUpError(
                f"non-finite fields after step to t={t_new}",
                state=state, time=state.time,
            ) from None
        if self.cfg.max_vorticity_sup is not None:
            w = g.sup_norm_unchecked(g.ifft(g.curl_hat(u_new_hat)))
            if w > self.cfg.max_vorticity_sup:
                raise BlowUpError(
                    f"sup|curl u| = {w:.6g} exceeded threshold "
                    f"{self.cfg.max_vorticity_sup:.6g} at t={t_new}",
                    state=state, time=state.time,
                )
        if self.cfg.scheme == "imex-bdf2":
            self._hist = (new_state, u_hat, d_hat, fu_hat, fd_hat)
        return new_state, bundle


def step(state: FieldState, cfg: TimeStepperConfig,
         reg: RegularizationConfig | None = None) -> FieldState:
    """Single step from scratch (no history, so imex-bdf2 boots with euler)."""
    stepper = Stepper(state.grid, state.coeffs, cfg, reg)
    new_state, _ = stepper.step_pair(state)
    return new_state


@dataclass
class Trajectory:
    """Sampled output of run(): reports and monitor share the sample times."""

    final_state: FieldState
    reports: list[EnergyReport]
    monitor: BlowupMonitorState
    sample_steps: list[int]
    n_steps: int
    blown_up: bool = False
    blowup_time: float | None = None
    blowup_step: int | None = None
    max_energy_increase: float = 0.0
    wall_time: float = 0.0


def run(initial: FieldState, cfg: TimeStepperConfig,
        reg: RegularizationConfig | None = None,
        hooks: tuple = (), cadence: int = 1) -> Trajectory:
    """Integrate to t_end, sampling diagnostics every `cadence` steps.

    Sample rows carry energies and channels of the sampled state; residuals
    compare against the previous sample with the channel sum evaluated there
    (first row: zero residuals).  A blow-up mid-run is caught and returned as
    a flagged partial trajectory, not raised.

    Each state is evaluated by constitutive() once: a due state i is sampled
    right after step_pair(state_i) succeeds, from the bundle that call
    returns, and that bundle is held only until the next step returns.  Only
    the final state, and a due state whose step raised BlowUpError, are
    sampled from a fresh constitutive() call; the latter only when every
    value of its sample (report and monitor row) is finite.
    """
    if cadence < 1:
        raise ParameterError(f"cadence must be >= 1, got {cadence}")
    dt = cfg.dt
    n_steps = int(round(cfg.t_end / dt)) if cfg.t_end > 0.0 else 0
    if cfg.t_end > 0.0 and abs(n_steps * dt - cfg.t_end) > 1e-9 * max(dt, cfg.t_end):
        raise ParameterError(
            f"t_end={cfg.t_end} is not an integer multiple of dt={dt}"
        )

    t0 = _time.perf_counter()
    stepper = Stepper(initial.grid, initial.coeffs, cfg, reg)
    monitor = BlowupMonitorState()
    reports: list[EnergyReport] = []
    sample_steps: list[int] = []

    def sample(state: FieldState, bundle, step_index: int, finite_only: bool = False):
        """Record one sample; with finite_only, drop it unless all its values are finite."""
        nonlocal monitor
        rep = channels(state, bundle, reg=reg)
        if reports:
            prev = reports[-1]
            rep = replace(rep, **_residuals(prev, rep.E_total, rep.time - prev.time))
        mon = copy.deepcopy(monitor) if finite_only else monitor
        mon.update(state, bundle)
        if finite_only and not all(map(math.isfinite, (*rep.__dict__.values(), *mon.row(-1)))):
            return
        monitor = mon
        reports.append(rep)
        sample_steps.append(step_index)
        for hook in hooks:
            hook(state, step_index)

    state = initial
    blown_up = False
    blowup_time = None
    blowup_step = None
    for i in range(n_steps):
        due = i % cadence == 0
        try:
            new_state, bundle = stepper.step_pair(state)
        except BlowUpError:
            if due:
                # the products of a finite but huge state may overflow, so
                # its sample is kept only when every value of it is finite
                with np.errstate(over="ignore", invalid="ignore"):
                    sample(state, constitutive(state), i, finite_only=True)
            blown_up = True
            blowup_time = state.time
            blowup_step = i
            break
        if due:
            sample(state, bundle, i)
        # Held until the next step returns: under glibc's dynamic malloc
        # thresholds, freeing it earlier returns the heap top every step and
        # the next step faults it back.  The CLI fixes those thresholds
        # (cli._fix_malloc_thresholds); a library caller may not.
        state = new_state
    if not blown_up:
        sample(state, constitutive(state), n_steps)

    return Trajectory(
        final_state=state,
        reports=reports,
        monitor=monitor,
        sample_steps=sample_steps,
        n_steps=n_steps,
        blown_up=blown_up,
        blowup_time=blowup_time,
        blowup_step=blowup_step,
        max_energy_increase=max(
            [0.0] + [b.E_total - a.E_total for a, b in zip(reports, reports[1:])]),
        wall_time=_time.perf_counter() - t0,
    )


def reconstruct_pressure(state: FieldState,
                         reg: RegularizationConfig | None = None) -> np.ndarray:
    """Solve Lap P = div F for the zero-mean pressure, F the unprojected force."""
    g = state.grid
    force_hat = _momentum_force_hat(state, constitutive(state), reg)
    return g.ifft(-1j * g.potential_hat(force_hat))
