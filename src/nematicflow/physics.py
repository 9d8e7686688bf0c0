"""Constitutive assembly for the penalized Ericksen-Leslie system.

Unknowns: velocity u (dim components, divergence-free) and director d
(always 3 components; in 2D the flow lives in the plane but d may tilt).

    u_t + (u.grad)u + grad P = -div(grad d o grad d) + div sigma
    div u = 0
    d_t + (u.grad)d - omega d + (lambda2/lambda1) A d
        = -(1/lambda1) (Lap d - grad_d W(d))

with W(d) = (|d|^2 - 1)^2 / (4 eps^2), A and omega the symmetric and
antisymmetric parts of grad u, (grad d o grad d)_ij = grad_i d . grad_j d,
and the Leslie stress

    sigma = mu1 (d.Ad) d(x)d + mu2 N(x)d + mu3 d(x)N + mu4 A
          + mu5 (Ad)(x)d + mu6 d(x)(Ad),          (a(x)b)_ij = a_i b_j,

where N = d_t + (u.grad)d - omega d is the co-rotational rate, recovered
here through its constitutive form N = -(lambda2 A d + (Lap d - grad_d W))
/ lambda1.

Discrete staging rule (load-bearing for the energy identities): N, Ad,
d(x)d, d.Ad and grad_d W are dealiased BEFORE entering outer products, and
the state fields are kept band-limited by the solver.  Every field lives in
physical space once: each product is formed pointwise, transformed forward
once and masked to the dealias band in Fourier space (half-spectrum rfftn
coefficients), where divergence, Leray projection and time integration act.
With collocation (grid-mean) quadrature the semi-discrete energy law then
balances to rounding error; see tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coeffs import LeslieCoefficients
from .errors import ParameterError, RegimeError
from .spectral import SpectralGrid


@dataclass
class FieldState:
    """Velocity + director on one grid at one time.

    u: (dim,) + grid shape, d: (3,) + grid shape.  The solver keeps u
    divergence-free and both fields band-limited; constructing a state does
    not enforce those invariants, only shapes and finiteness.
    """

    grid: SpectralGrid
    coeffs: LeslieCoefficients
    time: float
    u: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        g = self.grid
        self.u = np.asarray(self.u, dtype=np.float64)
        self.d = np.asarray(self.d, dtype=np.float64)
        if self.u.shape != (g.dim,) + g.shape:
            raise ParameterError(f"u must have shape {(g.dim,) + g.shape}, got {self.u.shape}")
        if self.d.shape != (3,) + g.shape:
            raise ParameterError(f"d must have shape {(3,) + g.shape}, got {self.d.shape}")
        if not np.isfinite(self.time):
            raise ParameterError(f"time must be finite, got {self.time}")
        if not (np.isfinite(self.u).all() and np.isfinite(self.d).all()):
            raise ParameterError("non-finite values in state fields")

    def with_fields(self, u: np.ndarray, d: np.ndarray, time: float) -> "FieldState":
        return FieldState(grid=self.grid, coeffs=self.coeffs, time=time, u=u, d=d)


def penalty(d: np.ndarray, epsilon: float) -> tuple[np.ndarray, np.ndarray]:
    """Pointwise W(d) = (|d|^2-1)^2/(4 eps^2) and grad_d W = (|d|^2-1) d / eps^2."""
    if epsilon <= 0.0:
        raise ParameterError(f"epsilon must be positive, got {epsilon}")
    s = np.sum(d * d, axis=0) - 1.0
    W = s * s / (4.0 * epsilon ** 2)
    gradW = (s / epsilon ** 2) * d
    return W, gradW


def ericksen_stress(grad_d: np.ndarray) -> np.ndarray:
    """(grad d o grad d)_ij = sum_c d_i(d_c) d_j(d_c), pointwise, symmetric."""
    return np.einsum("ic...,jc...->ij...", grad_d, grad_d)


def mat_vec_director(M: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Apply a (dim x dim) field to the director, embedding into 3 components.

    In 2D the third output component is zero (the in-plane tensor cannot
    rotate d out of or into the plane); in 3D this is the plain product.
    """
    dim = M.shape[0]
    out = np.zeros((3,) + M.shape[2:], dtype=np.float64)
    out[:dim] = np.einsum("ij...,j...->i...", M, d[:dim])
    return out


@dataclass
class RegularizationConfig:
    """Higher-order viscosity regularization of the Galerkin scheme.

    Adds (1/M) div(|grad u|^(r-2) grad u) to the momentum RHS and advects
    with the truncated velocity [u]_M (modes up to M) in divergence form
    div([u]_M (x) u).  N_modes, when set, additionally truncates the evolved
    velocity to |k_j| <= N_modes each step (the director is untouched).
    """

    enabled: bool = True
    M: int = 8
    r: float = 4.0
    N_modes: int | None = None

    def __post_init__(self):
        if self.M < 1:
            raise ParameterError(f"regularization M must be >= 1, got {self.M}")
        if not self.r > 10.0 / 3.0:
            raise ParameterError(f"regularization exponent r must exceed 10/3, got {self.r}")
        if self.N_modes is not None:
            if self.N_modes < 1:
                raise ParameterError(f"N_modes must be >= 1, got {self.N_modes}")
            if self.M > self.N_modes:
                raise ParameterError(f"require M <= N_modes, got M={self.M}, N_modes={self.N_modes}")


@dataclass
class ConstitutiveBundle:
    """Every field the stepper and the energy audit share, computed once.

    Staged (dealiased) quantities: Ad, tension, N, dAd, dd and gradW_hat.
    tension = Lap d - stage(grad_d W) and N = -(lambda2 Ad + tension)/lambda1,
    so lambda1 N + lambda2 Ad + tension = 0 holds to rounding by construction.
    dd and dAd feed only the mu1 terms, so they are None when mu1 = 0.
    sigma is pointwise in the staged fields; the momentum force masks it
    when it transforms the stress.
    """

    u_hat: np.ndarray        # half-spectrum coefficients of u
    d_hat: np.ndarray        # half-spectrum coefficients of d
    grad_u: np.ndarray       # (dim, dim) + grid, grad_u[i, j] = d_i u_j
    A: np.ndarray            # symmetric part
    omega: np.ndarray        # antisymmetric part
    grad_d: np.ndarray       # (dim, 3) + grid
    W_val: np.ndarray        # scalar grid field, pointwise
    gradW_hat: np.ndarray    # stage(grad_d W), half spectrum
    Ad: np.ndarray           # stage(A d), 3 components
    tension: np.ndarray      # Lap d - stage(grad_d W)
    N: np.ndarray            # co-rotational rate via the constitutive identity
    dAd: np.ndarray | None   # scalar stage(dd : A); None when mu1 = 0
    dd: np.ndarray | None    # stage(d(x)d), (dim, dim) + grid block; None when mu1 = 0
    sigma: np.ndarray        # Leslie stress


def _stage(g: SpectralGrid, f: np.ndarray) -> np.ndarray:
    """Mask f to the dealias band.  Unlike SpectralGrid.dealias it does not
    reject non-finite input: overflow in a huge state reaches the step's
    finiteness guard and ends as a BlowUpError."""
    return g.ifft(g.fft(f) * g.dealias_mask)


def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("i...,j...->ij...", a, b)


def _stage_dd(g: SpectralGrid, d: np.ndarray, A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """stage(d(x)d) on the (dim, dim) block, one transform per distinct entry,
    and stage(dd : A)."""
    iu, ju = np.triu_indices(g.dim)
    dd = np.empty((g.dim, g.dim) + g.shape)
    dd[iu, ju] = dd[ju, iu] = _stage(g, d[iu] * d[ju])
    return dd, _stage(g, np.einsum("ij...,ij...->...", dd, A))


def constitutive(state: FieldState) -> ConstitutiveBundle:
    """Assemble all constitutive fields for one state.

    Requires lambda1 < 0 (the director relaxation rate); everything else is
    algebra.  u and d are transformed once; each staged field is one forward
    and one inverse transform.  The mu1 block dd, dAd is staged only when
    mu1 != 0.
    """
    g = state.grid
    c = state.coeffs
    if c.lambda1 >= 0.0:
        raise RegimeError(f"constitutive assembly requires lambda1 < 0, got {c.lambda1}")
    d = state.d

    u_hat = g.fft(state.u)
    d_hat = g.fft(d)
    grad_u = g.ifft(g.grad_hat(u_hat))
    A = 0.5 * (grad_u + grad_u.swapaxes(0, 1))
    omega = 0.5 * (grad_u - grad_u.swapaxes(0, 1))
    grad_d = g.ifft(g.grad_hat(d_hat))
    W_val, gradW = penalty(d, c.epsilon)
    gradW_hat = g.fft(gradW) * g.dealias_mask
    tension = g.ifft(-g.ksq * d_hat - gradW_hat)

    Ad = mat_vec_director(A, d)
    Ad[: g.dim] = _stage(g, Ad[: g.dim])  # in 2D the third component is zero
    N = -(c.lambda2 * Ad + tension) / c.lambda1
    dd = dAd = None
    if c.mu1 != 0.0:
        dd, dAd = _stage_dd(g, d, A)

    return ConstitutiveBundle(
        u_hat=u_hat, d_hat=d_hat, grad_u=grad_u, A=A, omega=omega,
        grad_d=grad_d, W_val=W_val, gradW_hat=gradW_hat, Ad=Ad,
        tension=tension, N=N, dAd=dAd, dd=dd,
        sigma=leslie_stress(g, c, d, A, N, Ad, dd, dAd),
    )


def leslie_stress(grid: SpectralGrid, c: LeslieCoefficients, d: np.ndarray,
                  A: np.ndarray, N: np.ndarray, Ad: np.ndarray,
                  dd: np.ndarray | None = None, dAd: np.ndarray | None = None) -> np.ndarray:
    """Leslie stress from staged ingredient fields, pointwise:

        sigma = mu4 A + mu1 dAd dd + mu2 N(x)d + mu3 d(x)N + mu5 Ad(x)d + mu6 d(x)Ad

    The mu1 term is skipped when mu1 = 0; otherwise dd = stage(d(x)d) and
    dAd = stage(dd : A) are staged here unless given.  The result is not
    staged again: the momentum force masks the stress when it transforms it.
    """
    dim = grid.dim
    d_blk = d[:dim]
    left = c.mu2 * N[:dim] + c.mu5 * Ad[:dim]    # (.)(x)d terms
    right = c.mu3 * N[:dim] + c.mu6 * Ad[:dim]   # d(x)(.) terms
    sigma = c.mu4 * A
    if c.mu1 != 0.0:
        if dd is None or dAd is None:
            dd, dAd = _stage_dd(grid, d, A)
        sigma = sigma + c.mu1 * dAd * dd
    return sigma + _outer(left, d_blk) + _outer(d_blk, right)


def _director_force_hat(state: FieldState, bundle: ConstitutiveBundle) -> np.ndarray:
    """Explicit director RHS in the masked half spectrum:

        -(u.grad)d + omega d - (lambda2/lambda1) Ad + stage(grad_d W)/lambda1.
    """
    g = state.grid
    c = state.coeffs
    f = mat_vec_director(bundle.omega, state.d) - (c.lambda2 / c.lambda1) * bundle.Ad
    f -= np.einsum("i...,ic...->c...", state.u, bundle.grad_d)
    return g.fft(f) * g.dealias_mask + bundle.gradW_hat / c.lambda1


def director_rhs(state: FieldState, bundle: ConstitutiveBundle | None = None) -> np.ndarray:
    """d_t = -(u.grad)d + omega d - (lambda2/lambda1) Ad - (1/lambda1)(Lap d - grad_d W).

    A physical-space view of the spectral RHS the stepper integrates: the
    diffusion -(1/lambda1) Lap d (implicit in the step) plus the explicit
    force.  Only tests call it; it stays public while perfbench/tracing.py
    binds it by name.
    """
    g = state.grid
    if bundle is None:
        bundle = constitutive(state)
    return g.ifft(bundle.d_hat * (g.ksq / state.coeffs.lambda1)
                  + _director_force_hat(state, bundle))


def _visco_flux(grad_u: np.ndarray, r: float) -> np.ndarray:
    mag2 = np.sum(grad_u * grad_u, axis=(0, 1))
    return mag2 ** (0.5 * (r - 2.0)) * grad_u


def _momentum_force_hat(state: FieldState, bundle: ConstitutiveBundle,
                       reg: RegularizationConfig | None = None) -> np.ndarray:
    """Unprojected momentum RHS minus the pressure gradient and the mu4
    diffusion, in the masked half spectrum.

    The Leslie stress without its mu4 A part (integrated implicitly) minus
    the Ericksen stress, plus in the regularised scheme the monitor stress
    and -[u]_M (x) u, is transformed as one tensor; the plain scheme
    subtracts the convective (u.grad)u.
    """
    g = state.grid
    u = state.u
    stress = bundle.sigma - state.coeffs.mu4 * bundle.A - ericksen_stress(bundle.grad_d)
    regularised = reg is not None and reg.enabled
    if regularised:
        # divergence form with the truncated advecting velocity [u]_M
        u_M = g.ifft(bundle.u_hat * g.box_mask(min(reg.M, g.n // 2)))
        stress += _visco_flux(bundle.grad_u, reg.r) / float(reg.M) - _outer(u_M, u)
    force_hat = g.div_hat(g.fft(stress) * g.dealias_mask)
    if not regularised:
        force_hat -= g.fft(np.einsum("i...,ij...->j...", u, bundle.grad_u)) * g.dealias_mask
    return force_hat


def momentum_rhs(state: FieldState, bundle: ConstitutiveBundle | None = None,
                 reg: RegularizationConfig | None = None) -> np.ndarray:
    """Leray-projected u_t: the diffusion (mu4/2) Lap u (implicit in the step)
    plus the projected explicit force.

    Precondition: u divergence-free and band-limited, so the diffusion needs
    no projection.  A physical-space view of the spectral RHS the stepper
    integrates.  Only tests call it; it stays public while
    perfbench/tracing.py binds it by name.
    """
    g = state.grid
    if bundle is None:
        bundle = constitutive(state)
    return g.ifft(bundle.u_hat * (-0.5 * state.coeffs.mu4 * g.ksq)
                  + g.leray_hat(_momentum_force_hat(state, bundle, reg)))
