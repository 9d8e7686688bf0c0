"""Time integration: exponential semi-implicit stepping on the spectral grid.

The unknowns are the pair y = (u, d), each with a stiff Fourier-diagonal
linear part L taken exactly and a force F(y) taken explicitly:

    L = -(mu4/2)|kappa|^2 for u,   L = |kappa|^2/lambda1 for d   (both <= 0),
    F = physics.rhs_hat, the Leray-projected momentum force and the director force.

One rule updates both fields, with z = dt L:

    semi-implicit-euler:  y+ = e^z y + dt phi1(z) F(y),   phi1(z) = (e^z - 1)/z
                          (integrating-factor Euler; Cox & Matthews, JCP 2002)
    imex-bdf2 (SBDF2):    y+ = [4 y_n - y_{n-1} + 2 dt (2 F_n - F_{n-1})] / (3 - 2 z)
                          (Ascher, Ruuth & Wetton, SINUM 1995),
                          bootstrapped by one euler step.

Stepper builds the three diagonal factors of each field once.  y, F, the
factors, the BDF2 history and both updates live in the dealias box: d in
box(band), u in box(min(band, N_modes)).  Every state is read through
box(band), so d's coefficients are in d's box already and u's are gathered
into u's box when N_modes < band.  After each step u is re-projected
divergence-free and both are read back from their boxes, so a quiescent
state is a bitwise fixed point and pure Stokes decay integrates exactly.  The
new state carries those coefficients, so only a step from a state built from
fields transforms u and d forward.

Every state a run holds is visited once (Stepper._visit): constitutive(state)
builds its bundle, which depends on the state alone, a due state is sampled
from it, and the vorticity guard reads it, or the sample's sup|curl u|.  A
step starts with that visit; rhs_hat then consumes the bundle, freeing each
field after its last reader.  The final state takes no step.
"""

from __future__ import annotations

import math
import time as _time
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from .diagnostics import BlowupMonitorState, EnergyReport, _residuals, _sup_curl, channels
from .errors import BlowUpError, ParameterError, RegimeError
from .physics import (ConstitutiveBundle, FieldState, RegularizationConfig,
                      _check_match, constitutive, rhs_hat)

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
        self.n_steps()

    def n_steps(self) -> int:
        """The number of steps to t_end, which must be an integer multiple of dt."""
        n = int(round(self.t_end / self.dt))
        if abs(n * self.dt - self.t_end) > 1e-9 * max(self.dt, self.t_end):
            raise ParameterError(f"t_end={self.t_end} is not an integer multiple of dt={self.dt}")
        return n


def _phi1(z: np.ndarray) -> np.ndarray:
    """(e^z - 1)/z with the removable singularity filled; accurate near 0."""
    zz = np.where(z == 0.0, 1.0, z)
    return np.where(z == 0.0, 1.0, np.expm1(z) / zz)


class Stepper:
    """Holds the linear part of (u, d) for one (grid, coeffs, cfg, reg).

    step_pair() is stateless for semi-implicit-euler.  For imex-bdf2 the
    instance keeps one level of history; the first call (or any call whose
    input is not the very state object the previous call returned) falls back
    to the euler step.
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
        # u lives in box(band) & box(N_modes) == box(min(band, N_modes)), d in box(band)
        n_modes = grid.band if reg is None or reg.N_modes is None else reg.N_modes
        self._band_u = min(grid.band, n_modes)
        symbols = (-0.5 * coeffs.mu4 * grid.box(self._band_u).ksq,
                   grid.box(grid.band).ksq / coeffs.lambda1)
        # the linear part of (u, d): e^{dt L} and dt phi1(dt L) for euler, 3 - 2 dt L for SBDF2
        self._linear = [(np.exp(dt * L), dt * _phi1(dt * L), 3.0 - 2.0 * dt * L)
                        for L in symbols]
        self._hist = None  # (output state, y, F) of the previous step

    @np.errstate(over="ignore", invalid="ignore")
    def _visit(self, state: FieldState,
               sample: Callable[[FieldState, ConstitutiveBundle], float | None] | None = None
               ) -> ConstitutiveBundle:
        """Refuse a state off the stepper's grid or coefficients (ParameterError), build
        constitutive(state), hand it to sample when given, then guard sup|curl u|
        (the monitor's, or what sample returns); a trip raises BlowUpError(state)."""
        _check_match(state, self.grid, self.coeffs, "stepper")
        bundle = constitutive(state)
        w = None if sample is None else sample(state, bundle)
        limit = self.cfg.max_vorticity_sup
        if limit is not None:
            w = _sup_curl(bundle.grad_u) if w is None else w
            if w > limit:
                raise BlowUpError(f"sup|curl u| = {w:.6g} exceeded threshold {limit:.6g} "
                                  f"at t={state.time}", state=state, time=state.time)
        return bundle

    @np.errstate(over="ignore", invalid="ignore")
    def step_pair(self, state: FieldState,
                  sample: Callable[[FieldState, ConstitutiveBundle], float | None] | None = None
                  ) -> FieldState:
        """Advance one dt and return the new state.

        The step starts with _visit(state, sample), so state's one bundle is
        sampled and guarded before the forces; it is valid only during the
        sample call, as rhs_hat then consumes it.  Overflow in a huge state
        does not warn: the finiteness guard ends it as BlowUpError.
        """
        g = self.grid
        dt = self.cfg.dt
        bundle = self._visit(state, sample)
        y = (g.to_box(bundle.u_hat, self._band_u), bundle.d_hat)  # d_hat is on box(band)
        F_u, F_d = rhs_hat(state, bundle, self.reg)
        del bundle  # the fields no force reads, freed before the update
        F = (g.to_box(F_u, self._band_u), F_d)

        new = []  # each update built in place, by its formula's operations in order
        if self.cfg.scheme == "imex-bdf2" and self._hist is not None and self._hist[0] is state:
            _, y_prev, F_prev = self._hist
            for yn, yp, fn, fp, (_, _, den) in zip(y, y_prev, F, F_prev, self._linear):
                t = 2.0 * fn
                t -= fp
                t *= 2.0 * dt
                s = 4.0 * yn
                s -= yp
                s += t
                new.append(np.divide(s, den, out=s))
        else:
            for yn, fn, (e, phi, _) in zip(y, F, self._linear):
                s = e * yn
                s += phi * fn
                new.append(s)
        u_new_hat, d_new_hat = new

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
        if self.cfg.scheme == "imex-bdf2":
            self._hist = (new_state, y, F)
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
    blowup_reason: str | None = None
    max_energy_increase: float = 0.0
    wall_time: float = 0.0


def run(initial: FieldState, cfg: TimeStepperConfig,
        reg: RegularizationConfig | None = None,
        hooks: tuple = (), cadence: int = 1) -> Trajectory:
    """Integrate to t_end, sampling diagnostics every `cadence` steps.

    Sample rows carry energies and channels of the sampled state; residuals
    compare against the previous sample with the channel sum evaluated there
    (first row: zero residuals).  A blow-up is caught and returned as a
    flagged partial trajectory, not raised.

    Every state, the initial and the final one included, is visited once
    (see the module docstring); the final state is always due and takes no
    step.  A sample that is not finite is not kept and raises BlowUpError.
    A state is kept (its step recorded, then the hooks called) exactly when
    its sample was appended.  blowup_step and final_state name the state
    whose check failed: the tripping state, or the last finite one, and
    blowup_reason is the BlowUpError's message.  run() holds no reference to
    `initial` past the first step.
    """
    if not isinstance(cadence, (int, np.integer)) or cadence < 1:
        raise ParameterError(f"cadence must be an integer >= 1, got {cadence!r}")
    n_steps = cfg.n_steps()

    t0 = _time.perf_counter()
    stepper = Stepper(initial.grid, initial.coeffs, cfg, reg)
    monitor = BlowupMonitorState()
    reports: list[EnergyReport] = []
    sample_steps: list[int] = []

    def sample(state: FieldState, bundle: ConstitutiveBundle) -> float:
        """Append the report and the monitor row of one due state, if finite;
        return its sup|curl u| for the vorticity guard."""
        rep = channels(state, bundle, reg=reg)
        if reports:
            prev = reports[-1]
            rep = replace(rep, **_residuals(prev, rep.E_total, rep.time - prev.time))
        monitor.update(state, bundle)
        # the products of a finite but huge state may overflow
        if not all(map(math.isfinite, (*rep.__dict__.values(), *monitor.row(-1)))):
            monitor.pop()
            raise BlowUpError(f"non-finite sample at t={state.time}",
                              state=state, time=state.time)
        reports.append(rep)
        return monitor.sup_curl_u[-1]

    state = initial
    del initial
    reason = None
    for i in range(n_steps + 1):
        try:
            if i < n_steps:
                new_state = stepper.step_pair(state, sample if i % cadence == 0 else None)
            else:
                stepper._visit(state, sample)
        except BlowUpError as e:
            reason = str(e)
        if len(reports) > len(sample_steps):  # state i's sample was appended
            sample_steps.append(i)
            for hook in hooks:
                hook(state, i)
        if reason is not None or i == n_steps:
            break
        # Under glibc's dynamic malloc thresholds the heap top a step frees
        # may be trimmed and faulted back each step; the CLI fixes those
        # thresholds (cli._fix_malloc_thresholds), a library caller may not.
        state = new_state

    return Trajectory(
        final_state=state,
        reports=reports,
        monitor=monitor,
        sample_steps=sample_steps,
        n_steps=n_steps,
        blown_up=reason is not None,
        blowup_time=None if reason is None else state.time,
        blowup_step=None if reason is None else i,
        blowup_reason=reason,
        max_energy_increase=max(
            [0.0] + [b.E_total - a.E_total for a, b in zip(reports, reports[1:])]),
        wall_time=_time.perf_counter() - t0,
    )
