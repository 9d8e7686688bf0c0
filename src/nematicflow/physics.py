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
the state fields are kept band-limited by the solver.  Ad is staged from
(G d + G^T d)/2 with G = grad u, and d.Ad from the entries of G, so A is
never formed.  Every field lives in physical space once: each product is
formed pointwise, transformed forward once onto the dealias box, box(band)
of spectral.py, where divergence, Leray projection and time integration
act.  A state the stepper built carries the box coefficients of u and d,
so they are not transformed forward again.  A state built from fields has
them on the full half spectrum; SpectralGrid.to_box meets the two layouts
where they are added.  With collocation (grid-mean) quadrature the
semi-discrete energy law then balances to rounding error; see tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations_with_replacement

import numpy as np

from .coeffs import LeslieCoefficients
from .errors import ParameterError, RegimeError
from .spectral import SpectralGrid, _sum_squares


@dataclass
class FieldState:
    """Velocity + director on one grid at one time.

    u: (dim,) + grid shape, d: (3,) + grid shape.  The solver keeps u
    divergence-free and both fields band-limited; constructing a state does
    not enforce those invariants, only shapes and finiteness.

    spectra, set only by the stepper, holds the read-only coefficients
    (u_hat, d_hat) the fields came from: u_hat on box(min(band, N_modes)),
    d_hat on box(band), and u and d are their inverses.  Every other
    constructor, with_fields included, leaves it None.
    """

    grid: SpectralGrid
    coeffs: LeslieCoefficients
    time: float
    u: np.ndarray
    d: np.ndarray
    spectra: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False, compare=False)

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
    s = _sum_squares(d, d.ndim - 1) - 1.0
    W = s * s / (4.0 * epsilon ** 2)
    gradW = (s / epsilon ** 2) * d
    return W, gradW


def _pairs(dim: int):
    """The index pairs (i, j) with i <= j: one per distinct entry of a
    symmetric (dim, dim) tensor."""
    return combinations_with_replacement(range(dim), 2)


def ericksen_stress(grad_d: np.ndarray) -> np.ndarray:
    """(grad d o grad d)_ij = sum_c d_i(d_c) d_j(d_c), pointwise, symmetric."""
    return np.einsum("ic...,jc...->ij...", grad_d, grad_d)


def mat_vec_director(M: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Apply a (dim x dim) field to the director, embedding into 3 components.

    In 2D the third output component is zero (the in-plane tensor cannot
    rotate d out of or into the plane); in 3D this is the plain product.
    """
    dim = M.shape[0]
    out = np.empty((3,) + M.shape[2:])
    np.einsum("ij...,j...->i...", M, d[:dim], out=out[:dim])
    out[dim:] = 0.0
    return out


@dataclass
class RegularizationConfig:
    """Higher-order viscosity regularization of the Galerkin scheme.

    Adds (1/M) div(|grad u|^(r-2) grad u) to the momentum RHS and advects
    with the truncated velocity [u]_M (modes up to M) in divergence form
    div([u]_M (x) u).  N_modes, when set, additionally truncates the evolved
    velocity to |k_j| <= N_modes each step (the director is untouched).
    """

    M: int = 8
    r: float = 4.0
    N_modes: int | None = None

    def __post_init__(self):
        for name, v in (("M", self.M), ("N_modes", self.N_modes)):
            if v is not None and not isinstance(v, (int, np.integer)):
                raise ParameterError(f"regularization {name} must be an integer, got {v!r}")
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
    A and omega are not held: A d = (G d + G^T d)/2 and omega d = G d - A d
    with G = grad_u.  dd holds d(x)d's distinct entries.  dd and dAd feed
    only the mu1 terms, so they are None when mu1 = 0.  The stresses are not
    fields: the momentum force builds them in one buffer (see leslie_stress).
    """

    u_hat: np.ndarray        # coefficients of u: full half spectrum, or carried box
    d_hat: np.ndarray        # coefficients of d: full half spectrum, or box(band)
    grad_u: np.ndarray       # (dim, dim) + grid, grad_u[i, j] = d_i u_j
    grad_d: np.ndarray       # (dim, 3) + grid
    E_penalty: float         # int W(d), the grid mean of the penalty density
    gradW_hat: np.ndarray    # stage(grad_d W), box(band)
    Ad: np.ndarray           # stage(A d), 3 components
    omega_d: np.ndarray      # omega d, 3 components (the third zero in 2D)
    tension: np.ndarray      # Lap d - stage(grad_d W)
    N: np.ndarray            # co-rotational rate via the constitutive identity
    dAd: np.ndarray | None   # scalar stage(dd : A); None when mu1 = 0
    dd: np.ndarray | None    # stage(d(x)d), (npairs,) + grid, pairs i <= j; None when mu1 = 0


def _stage(g: SpectralGrid, f: np.ndarray) -> np.ndarray:
    """Mask f to the dealias band.  Unlike SpectralGrid.dealias it does not
    reject non-finite input: overflow in a huge state reaches the step's
    finiteness guard and ends as a BlowUpError."""
    return g.ifft(g.fft(f, M=g.band))


def _stage_dd(g: SpectralGrid, d: np.ndarray, G: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """stage(d(x)d) as its entries i <= j, and stage(dd : A) for A the
    symmetric part of G, as sum_i dd_ii G_ii + sum_{i<j} dd_ij (G_ij + G_ji):
    for G = A, dd : A bit for bit."""
    pairs = list(_pairs(g.dim))
    dd = np.empty((len(pairs),) + g.shape)
    for p, (i, j) in enumerate(pairs):
        np.multiply(d[i], d[j], out=dd[p])
    dd = _stage(g, dd)
    dAd = np.zeros(g.shape)
    tmp = np.empty(g.shape)
    for (i, j), staged in zip(pairs, dd):
        if i == j:
            np.multiply(staged, G[i, i], out=tmp)
        else:
            np.add(G[i, j], G[j, i], out=tmp)
            tmp *= staged
        dAd += tmp
    return dd, _stage(g, dAd)


def _spectra(state: FieldState) -> tuple[np.ndarray, np.ndarray]:
    """(u_hat, d_hat): the box coefficients the stepper carried on the state,
    or for any other state the full transforms of its fields."""
    if state.spectra is not None:
        return state.spectra
    return state.grid.fft(state.u), state.grid.fft(state.d)


def constitutive(state: FieldState) -> ConstitutiveBundle:
    """Assemble all constitutive fields for one state.

    Requires lambda1 < 0 (the director relaxation rate); everything else is
    algebra.  u and d are transformed once, unless the state carries their
    coefficients, and the inverses of grad u, grad d and the tension then
    run on the carried boxes; each staged field is one forward and one
    inverse transform.  The mu1 block dd, dAd is staged only when mu1 != 0.
    """
    g = state.grid
    c = state.coeffs
    if c.lambda1 >= 0.0:
        raise RegimeError(f"constitutive assembly requires lambda1 < 0, got {c.lambda1}")
    d = state.d

    u_hat, d_hat = _spectra(state)
    grad_u = g.ifft(g.grad_hat(u_hat))
    grad_d = g.ifft(g.grad_hat(d_hat))
    W, gradW = penalty(d, c.epsilon)
    E_penalty = g.mean_unchecked(W)
    gradW_hat = g.fft(gradW, M=g.band)
    del W, gradW
    d_box = g.box_of(d_hat)
    tension = g.ifft(-d_box.ksq * d_hat - g.to_box(gradW_hat, d_box.M))

    omega_d = mat_vec_director(grad_u, d)  # G d
    Ad = mat_vec_director(grad_u.swapaxes(0, 1), d)  # G^T d
    Ad += omega_d
    Ad *= 0.5  # A d = (G d + G^T d)/2
    omega_d -= Ad  # omega d = G d - A d
    Ad[: g.dim] = _stage(g, Ad[: g.dim])  # in 2D the third component is zero
    N = np.multiply(Ad, c.lambda2)
    N += tension
    N /= -c.lambda1
    dd = dAd = None
    if c.mu1 != 0.0:
        dd, dAd = _stage_dd(g, d, grad_u)

    return ConstitutiveBundle(u_hat=u_hat, d_hat=d_hat, grad_u=grad_u, grad_d=grad_d,
                              E_penalty=E_penalty, gradW_hat=gradW_hat, Ad=Ad, omega_d=omega_d,
                              tension=tension, N=N, dAd=dAd, dd=dd)


def leslie_stress(grid: SpectralGrid, c: LeslieCoefficients, d: np.ndarray,
                  A: np.ndarray, N: np.ndarray, Ad: np.ndarray,
                  dd: np.ndarray | None = None, dAd: np.ndarray | None = None) -> np.ndarray:
    """Leslie stress from staged ingredient fields, pointwise:

        sigma = mu4 A + mu1 dAd dd + mu2 N(x)d + mu3 d(x)N + mu5 Ad(x)d + mu6 d(x)Ad

    The mu1 term is skipped when mu1 = 0; otherwise dd = stage(d(x)d), its
    entries i <= j, and dAd = stage(dd : A) are staged here unless given.
    The result is not staged again.  The reference form: the momentum force
    writes the same entries, without mu4 A, into its stress buffer.
    """
    if c.mu1 != 0.0 and (dd is None or dAd is None):
        dd, dAd = _stage_dd(grid, d, A)
    sigma = _leslie_entries(c, d, N, Ad, dd, dAd, np.empty(A.shape))
    sigma += c.mu4 * A
    return sigma


def _leslie_entries(c: LeslieCoefficients, d: np.ndarray, N: np.ndarray, Ad: np.ndarray,
                    dd: np.ndarray | None, dAd: np.ndarray | None,
                    out: np.ndarray) -> np.ndarray:
    """out[i, j] = (mu2 N + mu5 Ad)_i d_j + d_i (mu3 N + mu6 Ad)_j
    + mu1 dAd dd_ij, the Leslie stress without its mu4 A part; the mu1 term
    only when mu1 != 0, from dd's entry of the pair i <= j."""
    dim = out.shape[0]
    left = c.mu2 * N[:dim]     # (.)(x)d terms
    left += c.mu5 * Ad[:dim]
    right = c.mu3 * N[:dim]    # d(x)(.) terms
    right += c.mu6 * Ad[:dim]
    tmp = np.empty(out.shape[2:])
    for i, j in np.ndindex(dim, dim):
        entry = np.multiply(left[i], d[j], out=out[i, j])
        entry += np.multiply(d[i], right[j], out=tmp)
    if c.mu1 != 0.0:
        w = c.mu1 * dAd
        for (i, j), dd_ij in zip(_pairs(dim), dd):
            out[i, j] += np.multiply(w, dd_ij, out=tmp)
            if i != j:
                out[j, i] += tmp
    return out


def _director_force_hat(state: FieldState, bundle: ConstitutiveBundle) -> np.ndarray:
    """Explicit director RHS on box(band):

        -(u.grad)d + omega d - (lambda2/lambda1) Ad + stage(grad_d W)/lambda1.
    """
    g = state.grid
    c = state.coeffs
    f = np.multiply(bundle.Ad, c.lambda2 / c.lambda1)
    np.subtract(bundle.omega_d, f, out=f)
    tmp = np.empty(g.shape)
    for k in range(3):
        for i in range(g.dim):
            f[k] -= np.multiply(state.u[i], bundle.grad_d[i, k], out=tmp)
    f_hat = g.fft(f, M=g.band)
    f_hat += bundle.gradW_hat / c.lambda1
    return f_hat


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
    lin_hat = bundle.d_hat * (g.box_of(bundle.d_hat).ksq / state.coeffs.lambda1)
    return _ifft_sum(g, lin_hat, _director_force_hat(state, bundle))


def _ifft_sum(g: SpectralGrid, a_hat: np.ndarray, b_hat: np.ndarray) -> np.ndarray:
    """ifft(a_hat + b_hat), both zero-padded to the full half spectrum."""
    return g.ifft(g.to_box(a_hat, g.n // 2) + g.to_box(b_hat, g.n // 2))


def _visco_flux(grad_u: np.ndarray, r: float) -> np.ndarray:
    w = _sum_squares(grad_u, grad_u.ndim - 2)
    return np.power(w, 0.5 * (r - 2.0), out=w) * grad_u


def _momentum_force_hat(state: FieldState, bundle: ConstitutiveBundle,
                       reg: RegularizationConfig | None = None) -> np.ndarray:
    """Unprojected momentum RHS minus the pressure gradient and the mu4
    diffusion, on box(band).

    The Leslie stress without its mu4 A part (integrated implicitly) minus
    the Ericksen stress and the convective flux u (x) u, whose divergence is
    (u.grad)u for the divergence-free u, is built entry by entry in one
    buffer and transformed as one tensor; each symmetric product is formed
    once per pair i <= j.  The regularised scheme advects with the
    truncated velocity, -[u]_M (x) u, and adds the monitor stress.
    """
    g = state.grid
    u = state.u
    stress = _leslie_entries(state.coeffs, state.d, bundle.N, bundle.Ad, bundle.dd,
                             bundle.dAd, np.empty((g.dim, g.dim) + g.shape))
    e, tmp = np.empty(g.shape), np.empty(g.shape)
    for i, j in _pairs(g.dim):
        np.einsum("c...,c...->...", bundle.grad_d[i], bundle.grad_d[j], out=e)
        if reg is None:
            e += np.multiply(u[i], u[j], out=tmp)
        stress[i, j] -= e
        if i != j:
            stress[j, i] -= e
    if reg is not None:
        flux = _visco_flux(bundle.grad_u, reg.r)
        flux /= reg.M
        stress += flux
        u_M = g.ifft(g.to_box(bundle.u_hat, min(reg.M, g.n // 2)))
        for i, j in np.ndindex(g.dim, g.dim):
            stress[i, j] -= np.multiply(u_M[i], u[j], out=tmp)
        del flux, u_M
    del e, tmp  # freed before the transform, where the force peaks
    return g.div_hat(g.fft(stress, M=g.band))


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
    lin_hat = bundle.u_hat * (-0.5 * state.coeffs.mu4 * g.box_of(bundle.u_hat).ksq)
    return _ifft_sum(g, lin_hat, g.leray_hat(_momentum_force_hat(state, bundle, reg)))
