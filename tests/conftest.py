from pathlib import Path

import numpy as np
import pytest

from nematicflow import FieldState, SpectralGrid, from_alpha
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

    def ifft(self, fhat):
        M = fhat.shape[-1] - 1
        if 2 * M < self.n:
            seen.add(M)
            padded = np.zeros(fhat.shape[:-self.dim] + self.hshape, dtype=complex)
            padded[box_index(self, M)] = fhat
            fhat = padded
        return np.fft.irfftn(fhat, s=self.shape, axes=tuple(range(-self.dim, 0)))

    monkeypatch.setattr(SpectralGrid, "fft", fft)
    monkeypatch.setattr(SpectralGrid, "ifft", ifft)
    return seen
