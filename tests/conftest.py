import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from nematicflow import FieldState, SpectralGrid, constitutive, from_alpha, penalty, rhs_hat
from nematicflow.physics import momentum_rhs
from nematicflow.spectral import random_band_limited

# test_acceptance appends one line per criterion; echoed after the run so the
# verdicts survive pytest's output capture.
ACCEPTANCE_LINES = []


def pytest_collection_modifyitems(items):
    """Every test under tests/ turns warnings into errors: a kernel that starts
    to overflow or to drop an imaginary part fails instead of warning.  The
    mark goes first, so a test's own filterwarnings marks still win."""
    here = Path(__file__).parent
    for item in items:
        if item.path.is_relative_to(here):
            item.add_marker(pytest.mark.filterwarnings("error"), append=False)


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def grid2d():
    return SpectralGrid(2, 32)


@pytest.fixture(scope="session")
def grid3d():
    return SpectralGrid(3, 16)


@pytest.fixture(scope="session")
def alpha_one():
    return from_alpha(1.0, 1.0)


def smooth_state(grid, coeffs, seed=0, u_amp=0.1, d_amp=0.1, kmax=None):
    """Random band-limited state; kmax defaults to band/3 so that cubic
    products stay inside the dealias band and quadrature is exact."""
    if kmax is None:
        kmax = max(1, grid.band // 3)
    rng = np.random.default_rng(seed)
    u = grid.leray(u_amp * random_band_limited(grid, grid.dim, kmax, rng))
    d = np.zeros((3,) + grid.shape)
    d[2] = 1.0
    d = d + d_amp * random_band_limited(grid, 3, kmax, rng)
    return FieldState(grid=grid, coeffs=coeffs, time=0.0, u=u, d=d)


def manufactured(grid, coeffs, seed=0):
    """(y*, forcing) of a manufactured solution of the spatially discrete system.

    y*(t) = (cos(3t) U, e3 + (1 + sin 2t) P), with U a divergence-free
    random field of sup 0.2 and P one of sup 0.05, both with modes up to
    band // 3; y*(t) returns (u, d) on the grid.  forcing(t) returns, on
    box(band), the pair dt y*^ - L y*^ - rhs_hat(y*(t)), L the stepper's
    linear symbols.  A step whose force adds forcing(state.time) to
    rhs_hat's is then solved exactly by y*, so its error at a time T is the
    time error alone.  The forcing does work on the fields, so the energy
    law and the energy checks of the sample layer do not apply to a forced
    run.  Unregularised runs only: u lives in box(band).
    """
    rng = np.random.default_rng(seed)
    kmax = max(1, grid.band // 3)
    U = grid.leray(random_band_limited(grid, grid.dim, kmax, rng))
    U *= 0.2 / grid.sup_norm_unchecked(U)
    P = 0.05 * random_band_limited(grid, 3, kmax, rng)
    e3 = np.zeros((3,) + grid.shape)
    e3[2] = 1.0
    band = grid.band
    U_hat, P_hat, e3_hat = (grid.fft(f, M=band) for f in (U, P, e3))
    ksq = grid.box(band).ksq
    L_u, L_d = -0.5 * coeffs.mu4 * ksq, ksq / coeffs.lambda1

    def y_star(t):
        return np.cos(3.0 * t) * U, e3 + (1.0 + np.sin(2.0 * t)) * P

    def forcing(t):
        u, d = y_star(t)
        state = FieldState(grid=grid, coeffs=coeffs, time=t, u=u, d=d)
        F_u, F_d = rhs_hat(state, constitutive(state))
        u_hat = np.cos(3.0 * t) * U_hat
        d_hat = e3_hat + (1.0 + np.sin(2.0 * t)) * P_hat
        return (-3.0 * np.sin(3.0 * t) * U_hat - L_u * u_hat - F_u,
                2.0 * np.cos(2.0 * t) * P_hat - L_d * d_hat - F_d)

    return y_star, forcing


def physical_rhs(state, reg=None):
    """(u_t, d_t) in physical space: each field's implicit diffusion plus the
    force rhs_hat gives the step, summed on the full half spectrum and
    transformed back.  Precondition: u divergence-free and band-limited, so
    the diffusion needs no projection."""
    g, c = state.grid, state.coeffs
    b = constitutive(state)
    full = g.n // 2
    lin = (b.u_hat * (-0.5 * c.mu4 * g.box_of(b.u_hat).ksq),
           b.d_hat * (g.box_of(b.d_hat).ksq / c.lambda1))  # before rhs_hat consumes b
    return tuple(g.ifft(g.to_box(L, full) + g.to_box(F, full))
                 for L, F in zip(lin, rhs_hat(state, b, reg)))


def reconstruct_pressure(state, reg=None):
    """Solve Lap P = div F for the zero-mean pressure, F the unprojected force."""
    g = state.grid
    force_hat = momentum_rhs(state, constitutive(state), reg)
    return g.ifft(-1j * g.potential_hat(force_hat))


# -- physical-space calculus oracles ---------------------------------------------
# Each is ifft(op(fft(f))) through the full half spectrum, exact on the
# retained modes.  No run calls them: the solver works on spectra, and
# takes sup|curl u| from grad u (diagnostics._sup_curl).


def curl_hat(grid, uhat):
    """Scalar vorticity in 2D, the curl vector in 3D, on uhat's box."""
    ik = grid.box_of(uhat).ikappa_d
    if grid.dim == 2:
        return ik[0] * uhat[1] - ik[1] * uhat[0]
    out = np.empty_like(uhat)
    term = np.empty_like(uhat[0])
    for c in range(3):
        a, b = (c + 1) % 3, (c + 2) % 3
        np.multiply(ik[a], uhat[b], out=out[c])
        out[c] -= np.multiply(ik[b], uhat[a], out=term)
    return out


def curl(grid, u):
    """Scalar vorticity d_1 u_2 - d_2 u_1 in 2D, the full curl vector in 3D."""
    return grid.ifft(curl_hat(grid, grid.fft(u)))


def divergence(grid, v):
    """Scalar d_i v_i for a velocity-like field of shape (dim,) + grid."""
    return grid.ifft(grid.div_hat(grid.fft(v)))


def laplacian(grid, f):
    fhat = grid.fft(f)
    return grid.ifft(-grid.box_of(fhat).ksq * fhat)


def tension(grid, d, epsilon):
    """Lap d - stage(grad_d W), the tension the bundle keeps only as its squared
    norm, with Lap d taken of d's box(band) part, the part the bundle reads."""
    d_hat = grid.fft(d, M=grid.band)
    return grid.ifft(-grid.box_of(d_hat).ksq * d_hat) - grid.dealias(penalty(d, epsilon)[1])


def l2_norm(grid, f):
    """The collocation L2 norm over the unit box, sqrt of the grid mean of f.f."""
    return float(np.sqrt(grid.l2_inner_unchecked(f, f)))


def sup_norm(grid, f):
    """max over grid points of the pointwise Euclidean (Frobenius) magnitude.
    A non-finite field fails here, not in a comparison with NaN, which reads
    False and which max() passes over."""
    assert np.isfinite(f).all(), "sup_norm: non-finite values in field"
    return grid.sup_norm_unchecked(f)


def traced_peak_fields(call, grid):
    """(call(), the tracemalloc peak of the call in scalar fields of grid,
    float64 arrays of grid.shape).  A call that runs
    tracemalloc.reset_peak() after its set-up counts only what follows,
    with what the set-up still holds."""
    tracemalloc.start()
    try:
        out = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak / (8 * grid.npoints)


def box_index(grid, M):
    """Index of box(M) in the full half spectrum: the rows k = 0..M, -M..-1 on
    every grid axis but the last (every row when M = n/2), k = 0..M on the last."""
    n = grid.n
    rows = np.r_[0:M + 1, n - M:n] if 2 * M < n else np.arange(n)
    return (Ellipsis,) + np.ix_(*([rows] * (grid.dim - 1) + [np.arange(M + 1)]))


def box_mask(grid, M):
    """True on the modes of the full half spectrum with every |k_j| <= M."""
    k = [np.fft.fftfreq(grid.n, 1.0 / grid.n)] * (grid.dim - 1) + [np.fft.rfftfreq(grid.n, 1.0 / grid.n)]
    return np.all([np.abs(ki) <= M for ki in np.meshgrid(*k, indexing="ij")], axis=0)


def _full_transform_reference(monkeypatch):
    """Make fft/ifft run numpy's full transforms: fft(f, M=M) gathers box(M)
    from rfftn, ifft zero-pads its box to the full half spectrum before
    irfftn.  Returns the set of M < n/2 the run passes."""
    seen = set()

    def fft(self, f, *, M=None):
        full = np.fft.rfftn(f, axes=tuple(range(-self.dim, 0)))
        if M is None or 2 * M >= self.n:
            return full
        seen.add(M)
        return full[box_index(self, M)]

    def ifft(self, fhat, out=None):
        M = fhat.shape[-1] - 1
        if 2 * M < self.n:
            seen.add(M)
            padded = np.zeros(fhat.shape[:-self.dim] + self.hshape, dtype=complex)
            padded[box_index(self, M)] = fhat
            fhat = padded
        return np.fft.irfftn(fhat, s=self.shape, axes=tuple(range(-self.dim, 0)), out=out)

    monkeypatch.setattr(SpectralGrid, "fft", fft)
    monkeypatch.setattr(SpectralGrid, "ifft", ifft)
    return seen
