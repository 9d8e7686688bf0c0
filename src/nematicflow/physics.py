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

Discrete staging rule: stage exactly what the director equation or a
dissipation channel reads, N, Ad, d.Ad and grad_d W, and keep the state
fields band-limited; every stress product is formed pointwise and truncated
once, by the stress's forward transform.  To stage is to mask to the dealias
box, box(band) of spectral.py, where divergence, Leray projection and time
integration act.  The tension, Ad (from A d = (G d + G^T d)/2, G = grad u)
and N stay there: the channels take their norms by Parseval, and only the
Leslie vectors mu2 N + mu5 Ad and mu3 N + mu6 Ad reach the grid.  d.Ad is
staged from the unstaged A d, so neither A nor d(x)d is formed as a field.
Derivatives and staged fields read a state through its box(band) part,
carried or transformed once; pointwise products read its fields (FieldState).

With collocation (grid-mean) quadrature, staging and the stress truncation
are grid projections, so the mu1 stress mu1 (d.Ad) d(x)d does on grad u
exactly the work D_mu1 = mu1 ||d.Ad||^2 of its channel
(test_mu1_block_stages_d_Ad_and_pays_its_channel).  The semi-discrete
energy law balances to rounding on states with modes up to band/3
(test_semi_discrete_energy_law); on states whose modes reach band the
cubic products alias, and the penalty's aliasing leaves a defect that
scales as 1/eps^2 (test_semi_discrete_energy_law_beyond_band_over_3).
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
    (u_hat, d_hat) the fields came from, both on box(band), and u and d are
    their inverses.  Every other constructor, with_fields included, leaves
    it None.  Derivatives and staged fields read a state through these
    coefficients or, when there are none, through the transforms of u and d
    onto box(band); the pointwise products (the penalty, A d, omega d, the
    stresses, the convection) read u and d as given.  A stepped state is
    thus read through box(band) alone, but the products of a state built
    from fields also read its modes outside box(band) (ROADMAP.md, item 18).
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
    div([u]_M (x) u); [u]_M is u when M reaches box(band), u's box.
    """

    M: int = 8
    r: float = 4.0

    def __post_init__(self):
        if not isinstance(self.M, (int, np.integer)):
            raise ParameterError(f"regularization M must be an integer, got {self.M!r}")
        if self.M < 1:
            raise ParameterError(f"regularization M must be >= 1, got {self.M}")
        if not (np.isfinite(self.r) and self.r > 10.0 / 3.0):
            raise ParameterError(
                f"regularization exponent r must be finite and exceed 10/3, got {self.r}")


@dataclass
class ConstitutiveBundle:
    """Every field the stepper and the energy audit share, computed once.

    The tension Lap d - stage(grad_d W), Ad = stage(A d) and N = -(lambda2
    Ad + tension)/lambda1 live on box(band) and leave it only as their box
    quadratures and the Leslie vectors, left and right.  A and omega are not
    held: A d = (G d + G^T d)/2 and omega d = G d - A d with G = grad_u.
    The stresses are not fields: momentum_rhs builds them in one buffer.

    rhs_hat consumes a bundle after the sample and the vorticity guard have
    read it, setting each array to None after its last reader: u_hat and
    d_hat, the step; grad_u, the guard; box_force and omega_d,
    director_rhs; grad_d, left, right and dAd, momentum_rhs, where a
    regularised step's u_hat and grad_u go last.
    """

    u_hat: np.ndarray        # coefficients of u on box(band)
    d_hat: np.ndarray        # coefficients of d on box(band)
    grad_u: np.ndarray       # (dim, dim) + grid, grad_u[i, j] = d_i u_j
    grad_d: np.ndarray       # (dim, 3) + grid
    E_penalty: float         # int W(d), the grid mean of the penalty density
    box_force: np.ndarray    # stage(grad_d W)/lambda1 - (lambda2/lambda1) Ad, box(band)
    omega_d: np.ndarray      # omega d, 3 components (the third zero in 2D)
    tension_sq: float        # ||Lap d - stage(grad_d W)||^2, by box quadrature
    N_sq: float              # ||N||^2, N the co-rotational rate by the constitutive identity
    Ad_sq: float             # ||Ad||^2
    N_Ad: float              # <N, Ad>
    left: np.ndarray         # mu2 N + mu5 Ad, dim components
    right: np.ndarray | None  # mu3 N + mu6 Ad; None when mu3 = mu6 = 0
    dAd: np.ndarray | None   # stage(d.Ad), d.Ad from the unstaged A d; None when mu1 = 0


def constitutive(state: FieldState) -> ConstitutiveBundle:
    """Assemble all constitutive fields for one state.

    Requires lambda1 < 0 (the director relaxation rate); everything else is
    algebra.  u and d are transformed once, unless the state carries their
    coefficients; grad_d W and A d take one forward transform each, every
    gradient and Leslie vector one inverse.  dAd is staged in place, only
    when mu1 != 0, from the unstaged A d, whose buffer then receives left.

    u_hat and d_hat are the state's box(band) coefficients, transformed
    unless carried (see FieldState); a state built from fields thus has
    the bundle of the same state carrying its box(band) coefficients
    (test_field_built_state_reads_through_its_boxes).  The bundle depends
    on the state alone: only the forces and channels' D_reg read a
    regularisation.
    """
    g, c = state.grid, state.coeffs
    if c.lambda1 >= 0.0:
        raise RegimeError(f"constitutive assembly requires lambda1 < 0, got {c.lambda1}")
    d, dim, inner = state.d, g.dim, g.box_inner_unchecked

    if state.spectra is None:
        u_hat, d_hat = g.fft(state.u, M=g.band), g.fft(d, M=g.band)
    else:
        u_hat, d_hat = state.spectra
    grad_u = g.ifft(g.grad_hat(u_hat))
    grad_d = g.ifft(g.grad_hat(d_hat))
    W, gradW = penalty(d, c.epsilon)
    E_penalty = float(W.mean())
    box_force = g.fft(gradW, M=g.band)
    del W, gradW
    N_hat = -g.box(g.band).ksq * d_hat
    N_hat -= box_force  # the tension, then N in its buffer
    tension_sq = inner(N_hat, N_hat)

    omega_d = mat_vec_director(grad_u, d)  # G d
    Ad = np.einsum("ji...,j...->i...", grad_u, d[:dim])  # G^T d
    Ad += omega_d[:dim]
    Ad *= 0.5  # A d = (G d + G^T d)/2
    omega_d[:dim] -= Ad  # omega d = G d - A d
    dAd = None
    if c.mu1 != 0.0:  # d.Ad from the unstaged A d, staged in place
        dAd = np.einsum("i...,i...->...", d[:dim], Ad)
        g.ifft(g.fft(dAd, M=g.band), out=dAd)
    Ad_hat = g.fft(Ad, M=g.band)  # in 2D A d's third component is zero, not formed
    N_hat[:dim] += c.lambda2 * Ad_hat
    N_hat /= -c.lambda1
    box_force /= c.lambda1
    box_force[:dim] -= (c.lambda2 / c.lambda1) * Ad_hat
    vectors = [c.mu2 * N_hat[:dim] + c.mu5 * Ad_hat]  # left, then right unless mu3 = mu6 = 0
    if c.mu3 != 0.0 or c.mu6 != 0.0:
        vectors.append(c.mu3 * N_hat[:dim] + c.mu6 * Ad_hat)
    N_sq, Ad_sq, N_Ad = inner(N_hat, N_hat), inner(Ad_hat, Ad_hat), inner(N_hat[:dim], Ad_hat)
    del N_hat, Ad_hat
    left = g.ifft(vectors.pop(0), out=Ad)  # into the unstaged A d's buffer
    right = g.ifft(vectors.pop()) if vectors else None

    return ConstitutiveBundle(u_hat=u_hat, d_hat=d_hat, grad_u=grad_u, grad_d=grad_d,
                              E_penalty=E_penalty, box_force=box_force, omega_d=omega_d,
                              tension_sq=tension_sq, N_sq=N_sq, Ad_sq=Ad_sq, N_Ad=N_Ad,
                              left=left, right=right, dAd=dAd)


def _leslie_entries(c: LeslieCoefficients, d: np.ndarray, b: ConstitutiveBundle,
                    out: np.ndarray) -> np.ndarray:
    """Replace each entry e of out by L - e, for L[i, j] = (left + mu1 dAd
    d)_i d_j + d_i right_j from b's Leslie vectors, the Leslie stress
    without its mu4 A part; the mu1 term, added to left in place, only when
    mu1 != 0, and the right one only when there is a right.  Every product
    is pointwise: the stress's forward transform truncates it.  L is summed
    in that order before e is subtracted."""
    dim, left, right = out.shape[0], b.left, b.right
    if b.dAd is not None:
        left += (c.mu1 * b.dAd) * d[:dim]
    entry, tmp = np.empty(out.shape[2:]), np.empty(out.shape[2:])
    for i, j in np.ndindex(dim, dim):
        np.multiply(left[i], d[j], out=entry)
        if right is not None:
            entry += np.multiply(d[i], right[j], out=tmp)
        np.subtract(entry, out[i, j], out=out[i, j])
    return out


def director_rhs(state: FieldState, bundle: ConstitutiveBundle) -> np.ndarray:
    """The director force the step integrates, on box(band):

        -(u.grad)d + omega d - (lambda2/lambda1) Ad + stage(grad_d W)/lambda1,

    d_t without the diffusion -(1/lambda1) Lap d, which the step takes
    implicitly.  The last two terms are the bundle's box_force; only
    omega d - (u.grad)d is formed on the grid, in omega_d's buffer, and
    omega_d is set to None.
    """
    g = state.grid
    f, bundle.omega_d = bundle.omega_d, None
    tmp = np.empty(g.shape)
    for k in range(3):
        for i in range(g.dim):
            f[k] -= np.multiply(state.u[i], bundle.grad_d[i, k], out=tmp)
    f_hat = g.fft(f, M=g.band)
    f_hat += bundle.box_force
    return f_hat


def momentum_rhs(state: FieldState, bundle: ConstitutiveBundle,
                 reg: RegularizationConfig | None = None) -> np.ndarray:
    """The momentum force the step integrates, on box(band) and before the
    Leray projection: u_t without the pressure gradient and the mu4
    diffusion (mu4/2) Lap u, which the step takes implicitly.

    The Leslie stress without its mu4 A part, minus the Ericksen stress and
    the convective flux u (x) u (whose divergence is (u.grad)u for the
    divergence-free u), is built entry by entry in one buffer, each
    symmetric product once per pair i <= j, from pointwise products of
    staged or band-limited fields, and truncated only by its one transform.
    The regularised scheme advects with [u]_M, gathered from u_hat into
    box(min(M, band)), and adds the monitor stress (w grad u)/M, w =
    |grad u|^(r-2).

    The Ericksen and convective entries e go in first, and grad_d is set to
    None; then each entry becomes L - e, L the Leslie entries, and left,
    right and dAd are set to None; a regularised step's u_hat and grad_u go
    after the monitor stress, all before the stress transform.  A caller
    that also wants director_rhs calls it first.
    """
    g = state.grid
    u = state.u
    stress = np.empty((g.dim, g.dim) + g.shape)
    tmp = np.empty(g.shape) if reg is None else None
    for i, j in _pairs(g.dim):
        e = np.einsum("c...,c...->...", bundle.grad_d[i], bundle.grad_d[j], out=stress[i, j])
        if reg is None:
            e += np.multiply(u[i], u[j], out=tmp)
        if i != j:
            stress[j, i] = e
    bundle.grad_d = None
    _leslie_entries(state.coeffs, state.d, bundle, stress)
    bundle.left = bundle.right = bundle.dAd = None
    if reg is not None:
        w = _sum_squares(bundle.grad_u, g.dim)
        np.power(w, 0.5 * (reg.r - 2.0), out=w)
        u_M = g.ifft(g.to_box(bundle.u_hat, min(reg.M, g.band)))
        T = np.multiply(w, bundle.grad_u)
        T /= reg.M
        stress += T
        stress -= np.multiply(u_M[:, None], u[None, :], out=T)
        del w, u_M, T
        bundle.u_hat = bundle.grad_u = None
    del tmp  # freed before the transform, where the force peaks
    return g.div_hat(g.fft(stress, M=g.band))


def rhs_hat(state: FieldState, bundle: ConstitutiveBundle,
            reg: RegularizationConfig | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(momentum_rhs, director_rhs): the forces of u and d the step
    integrates, on box(band); the momentum force is not Leray-projected, as
    the step projects its update.  Consumes the bundle: each array is set to
    None on it after its last reader, so no caller keeps it alive.  d_hat
    and, unless regularised, u_hat and grad_u go before director_rhs;
    omega_d and box_force before momentum_rhs, which frees the rest before
    it transforms the stress.  Only the numbers stay."""
    bundle.d_hat = None
    if reg is None:
        bundle.u_hat = bundle.grad_u = None
    F_d = director_rhs(state, bundle)
    bundle.box_force = None
    return momentum_rhs(state, bundle, reg), F_d
