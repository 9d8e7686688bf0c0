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
them on the full half spectrum; constitutive reads that layout only for
grad u, grad d (each inverted one direction at a time) and the tension
(kept only as its squared norm), then folds both into box(band) and evicts
the full layout's multipliers from the grid.  With collocation (grid-mean)
quadrature the semi-discrete energy law then balances to rounding error;
see tests.
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


def _check_match(state: FieldState, grid: SpectralGrid, coeffs: LeslieCoefficients,
                 what: str) -> None:
    """Refuse, with ParameterError, a state off grid's (dim, n) or with other coefficients."""
    g, c = state.grid, state.coeffs
    if (g.dim, g.n) != (grid.dim, grid.n) or (c is not coeffs and c != coeffs):
        raise ParameterError(f"{what}: a {g.dim}D n={g.n} state with {c} does not match "
                             f"the {grid.dim}D n={grid.n} grid with {coeffs}")


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
        if not (np.isfinite(self.r) and self.r > 10.0 / 3.0):
            raise ParameterError(
                f"regularization exponent r must be finite and exceed 10/3, got {self.r}")
        if self.N_modes is not None:
            if self.N_modes < 1:
                raise ParameterError(f"N_modes must be >= 1, got {self.N_modes}")
            if self.M > self.N_modes:
                raise ParameterError(f"require M <= N_modes, got M={self.M}, N_modes={self.N_modes}")


@dataclass
class ConstitutiveBundle:
    """Every field the stepper and the energy audit share, computed once.

    Staged (dealiased) quantities: Ad, N, dAd, dd and gradW_hat.  N =
    -(lambda2 Ad + tension)/lambda1, formed in the buffer of the tension
    Lap d - stage(grad_d W) once its squared norm, all the sample reads of
    it, is taken.  A and omega are not held: A d = (G d + G^T d)/2 and omega
    d = G d - A d with G = grad_u.  dd holds d(x)d's distinct entries.  dd
    and dAd feed only the mu1 terms, so they are None when mu1 = 0.  The
    stresses are not fields: momentum_rhs builds them in one buffer.  rhs_hat
    consumes a bundle.

    Each array's last reader in a step, after the sample and the vorticity
    guard have read the bundle, and where it is set to None: u_hat and d_hat,
    the step's gather into its boxes; grad_u, the guard; gradW_hat and
    omega_d, director_rhs; grad_d, momentum_rhs's Ericksen entries; N, Ad, dd
    and dAd, its Leslie entries.  Under regularisation u_hat and grad_u last
    feed momentum_rhs's [u]_M and monitor stress.
    """

    u_hat: np.ndarray        # coefficients of u: carried box, else box(band) or [u]_M's box
    d_hat: np.ndarray        # coefficients of d on box(band)
    grad_u: np.ndarray       # (dim, dim) + grid, grad_u[i, j] = d_i u_j
    grad_d: np.ndarray       # (dim, 3) + grid
    E_penalty: float         # int W(d), the grid mean of the penalty density
    gradW_hat: np.ndarray    # stage(grad_d W), box(band)
    Ad: np.ndarray           # stage(A d), 3 components
    omega_d: np.ndarray      # omega d, 3 components (the third zero in 2D)
    tension_sq: float        # ||Lap d - stage(grad_d W)||^2, by grid quadrature
    N: np.ndarray            # co-rotational rate via the constitutive identity
    dAd: np.ndarray | None   # scalar stage(dd : A); None when mu1 = 0
    dd: np.ndarray | None    # stage(d(x)d), (npairs,) + grid, pairs i <= j; None when mu1 = 0


def _stage(g: SpectralGrid, f: np.ndarray) -> np.ndarray:
    """Mask f to the dealias band.  Unlike SpectralGrid.dealias it does not
    reject non-finite input: overflow in a huge state reaches the step's
    finiteness guard and ends as a BlowUpError."""
    return g.ifft(g.fft(f, M=g.band))


def _gradient(g: SpectralGrid, fhat: np.ndarray) -> np.ndarray:
    """grad f, (dim,) + f's shape, from coefficients on any box.  Full-layout
    coefficients are differentiated one direction at a time into the result,
    so one direction's spectrum is alive at a time."""
    b = g.box_of(fhat)
    if 2 * b.M < g.n:
        return g.ifft(g.grad_hat(fhat))
    out = np.empty((g.dim,) + fhat.shape[:-g.dim] + g.shape)
    for i, ik in enumerate(b.ikappa_d):
        g.ifft(ik * fhat, out=out[i])
    return out


def _stage_dd(g: SpectralGrid, d: np.ndarray, G: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """stage(d(x)d) as its entries i <= j, and stage(dd : A) for A the
    symmetric part of G, as sum_i dd_ii G_ii + sum_{i<j} dd_ij (G_ij + G_ji).

    Each unstaged product is overwritten by its staged value once the forward
    transform exists, d(x)d entry by entry, so only box coefficients and one
    entry's inverse are alive beside the products; for a stepped state this
    is where constitutive peaks."""
    pairs = list(_pairs(g.dim))
    dd = np.empty((len(pairs),) + g.shape)
    for p, (i, j) in enumerate(pairs):
        np.multiply(d[i], d[j], out=dd[p])
    dd_hat = g.fft(dd, M=g.band)  # _stage, into the products' buffer
    for entry, entry_hat in zip(dd, dd_hat):
        g.ifft(entry_hat, out=entry)
    del dd_hat
    dAd = np.zeros(g.shape)
    tmp = np.empty(g.shape)
    for (i, j), staged in zip(pairs, dd):
        if i == j:
            np.multiply(staged, G[i, i], out=tmp)
        else:
            np.add(G[i, j], G[j, i], out=tmp)
            tmp *= staged
        dAd += tmp
    del tmp
    return dd, g.ifft(g.fft(dAd, M=g.band), out=dAd)


def constitutive(state: FieldState,
                 reg: RegularizationConfig | None = None) -> ConstitutiveBundle:
    """Assemble all constitutive fields for one state.

    Requires lambda1 < 0 (the director relaxation rate); everything else is
    algebra.  u and d are transformed once, unless the state carries their
    coefficients; each staged field is one forward and one inverse
    transform.  The mu1 block dd, dAd is staged only when mu1 != 0.

    A state built from fields has full-layout coefficients.  They are read
    in that layout only by grad u, grad d and the tension, then folded
    into box(band), the box the step gathers from, and the grid's
    full-layout box is evicted with its multipliers.  reg
    names the regularisation of the forces the bundle will feed; when its M
    exceeds band, u_hat keeps its modes up to min(M, n/2), which [u]_M reads.
    """
    g = state.grid
    c = state.coeffs
    if c.lambda1 >= 0.0:
        raise RegimeError(f"constitutive assembly requires lambda1 < 0, got {c.lambda1}")
    d = state.d

    built = state.spectra is None  # full-layout coefficients, folded below
    if built:
        u_hat, d_hat = g.fft(state.u), g.fft(d)
    else:
        u_hat, d_hat = state.spectra
    grad_u = _gradient(g, u_hat)
    grad_d = _gradient(g, d_hat)
    W, gradW = penalty(d, c.epsilon)
    E_penalty = float(W.mean())
    gradW_hat = g.fft(gradW, M=g.band)
    del W, gradW
    tension = g.ifft(-g.box_of(d_hat).ksq * d_hat - g.to_box(gradW_hat, d_hat.shape[-1] - 1))
    tension_sq = g.l2_inner_unchecked(tension, tension)
    if built:  # past their last full-layout reader
        u_hat = g.to_box(u_hat, g.band if reg is None else max(g.band, min(reg.M, g.n // 2)))
        d_hat = g.to_box(d_hat, g.band)
        g._boxes.pop(g.n // 2, None)  # no later state reads its multipliers

    omega_d = mat_vec_director(grad_u, d)  # G d
    Ad = mat_vec_director(grad_u.swapaxes(0, 1), d)  # G^T d
    Ad += omega_d
    Ad *= 0.5  # A d = (G d + G^T d)/2
    omega_d -= Ad  # omega d = G d - A d
    Ad[: g.dim] = _stage(g, Ad[: g.dim])  # in 2D the third component is zero
    dd = dAd = None
    if c.mu1 != 0.0:
        dd, dAd = _stage_dd(g, d, grad_u)
    N, tmp = tension, np.empty(g.shape)  # N in the tension's buffer, after the mu1 block
    for k in range(3):
        N[k] += np.multiply(Ad[k], c.lambda2, out=tmp)
    N /= -c.lambda1

    return ConstitutiveBundle(u_hat=u_hat, d_hat=d_hat, grad_u=grad_u, grad_d=grad_d,
                              E_penalty=E_penalty, gradW_hat=gradW_hat, Ad=Ad, omega_d=omega_d,
                              tension_sq=tension_sq, N=N, dAd=dAd, dd=dd)


def _leslie_entries(c: LeslieCoefficients, d: np.ndarray, N: np.ndarray, Ad: np.ndarray,
                    dd: np.ndarray | None, dAd: np.ndarray | None,
                    out: np.ndarray) -> np.ndarray:
    """Replace each entry e of out by L - e, for L[i, j] = (mu2 N + mu5 Ad)_i
    d_j + d_i (mu3 N + mu6 Ad)_j + mu1 dAd dd_ij, the Leslie stress without
    its mu4 A part; the mu1 term only when mu1 != 0, from dd's entry of the
    pair i <= j.  L is summed in that order before e is subtracted."""
    dim = out.shape[0]
    left = c.mu2 * N[:dim]     # (.)(x)d terms
    left += c.mu5 * Ad[:dim]
    right = c.mu3 * N[:dim]    # d(x)(.) terms
    right += c.mu6 * Ad[:dim]
    w = c.mu1 * dAd if c.mu1 != 0.0 else None
    pair = {ij: p for p, ij in enumerate(_pairs(dim))}
    entry, tmp = np.empty(out.shape[2:]), np.empty(out.shape[2:])
    for i, j in np.ndindex(dim, dim):
        np.multiply(left[i], d[j], out=entry)
        entry += np.multiply(d[i], right[j], out=tmp)
        if w is not None:
            entry += np.multiply(w, dd[pair[min(i, j), max(i, j)]], out=tmp)
        np.subtract(entry, out[i, j], out=out[i, j])
    return out


def director_rhs(state: FieldState, bundle: ConstitutiveBundle) -> np.ndarray:
    """The director force the step integrates, on box(band):

        -(u.grad)d + omega d - (lambda2/lambda1) Ad + stage(grad_d W)/lambda1,

    d_t without the diffusion -(1/lambda1) Lap d, which the step takes
    implicitly.
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


def momentum_rhs(state: FieldState, bundle: ConstitutiveBundle,
                 reg: RegularizationConfig | None = None) -> np.ndarray:
    """The momentum force the step integrates, on box(band) and before the
    Leray projection: u_t without the pressure gradient and the mu4
    diffusion (mu4/2) Lap u, which the step takes implicitly.

    The Leslie stress without its mu4 A part (integrated implicitly) minus
    the Ericksen stress and the convective flux u (x) u, whose divergence is
    (u.grad)u for the divergence-free u, is built entry by entry in one
    buffer and transformed as one tensor; each symmetric product is formed
    once per pair i <= j.  The regularised scheme advects with the
    truncated velocity, -[u]_M (x) u, and adds the monitor stress
    (w grad u)/M, w = |grad u|^(r-2), one entry at a time.

    The Ericksen and convective entries e go into the buffer first, so grad_d
    is set to None on the bundle before the Leslie entries L are formed;
    each entry then becomes L - e, and N, Ad, dd and dAd are set to None
    too.  When regularised, u_hat and grad_u go after the monitor stress.
    All of them are freed before the stress transform.  A caller that also
    wants director_rhs calls it first.
    """
    g = state.grid
    u = state.u
    stress = np.empty((g.dim, g.dim) + g.shape)
    tmp = np.empty(g.shape)
    for i, j in _pairs(g.dim):
        e = np.einsum("c...,c...->...", bundle.grad_d[i], bundle.grad_d[j], out=stress[i, j])
        if reg is None:
            e += np.multiply(u[i], u[j], out=tmp)
        if i != j:
            stress[j, i] = e
    bundle.grad_d = None
    _leslie_entries(state.coeffs, state.d, bundle.N, bundle.Ad, bundle.dd, bundle.dAd, stress)
    bundle.N = bundle.Ad = bundle.dd = bundle.dAd = None
    if reg is not None:
        w = _sum_squares(bundle.grad_u, g.dim)
        np.power(w, 0.5 * (reg.r - 2.0), out=w)
        u_M = g.ifft(g.to_box(bundle.u_hat, min(reg.M, g.n // 2)))
        for i, j in np.ndindex(g.dim, g.dim):
            np.multiply(w, bundle.grad_u[i, j], out=tmp)
            tmp /= reg.M
            stress[i, j] += tmp
            stress[i, j] -= np.multiply(u_M[i], u[j], out=tmp)
        del w, u_M
        bundle.u_hat = bundle.grad_u = None
    del tmp  # freed before the transform, where the force peaks
    return g.div_hat(g.fft(stress, M=g.band))


def rhs_hat(state: FieldState, bundle: ConstitutiveBundle,
            reg: RegularizationConfig | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(P momentum_rhs, director_rhs), P the Leray projection: the forces of
    u and d the step integrates, on box(band).  Consumes the bundle: each
    array is set to None on it after its last reader, so no caller keeps it
    alive.  d_hat and, unless regularised, u_hat and grad_u go before
    director_rhs; omega_d and gradW_hat before momentum_rhs, which frees
    the rest before it transforms the stress.  Only the numbers stay:
    E_penalty and tension_sq."""
    bundle.d_hat = None
    if reg is None:
        bundle.u_hat = bundle.grad_u = None
    F_d = director_rhs(state, bundle)
    bundle.omega_d = bundle.gradW_hat = None
    return state.grid.leray_hat(momentum_rhs(state, bundle, reg)), F_d
