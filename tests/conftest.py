import numpy as np
import pytest

from nematicflow import FieldState, SpectralGrid, from_alpha
from nematicflow.spectral import random_band_limited

# test_acceptance appends one line per criterion; echoed after the run so the
# verdicts survive pytest's output capture.
ACCEPTANCE_LINES = []


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


def _mask_instead_of_pruning(monkeypatch):
    """Make fft/ifft ignore M's pruning: the full transform, then box_mask(M).
    Returns the set of M values the run passes."""
    seen = set()
    full_fft, full_ifft = SpectralGrid.fft, SpectralGrid.ifft

    def fft(self, f, *, M=None):
        if M is None:
            return full_fft(self, f)
        seen.add(M)
        return full_fft(self, f) * self.box_mask(M)

    def ifft(self, fhat, *, M=None):
        if M is None:
            return full_ifft(self, fhat)
        seen.add(M)
        return full_ifft(self, fhat * self.box_mask(M))

    monkeypatch.setattr(SpectralGrid, "fft", fft)
    monkeypatch.setattr(SpectralGrid, "ifft", ifft)
    return seen
