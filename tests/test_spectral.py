"""Spectral grid operators, quadrature identities, and snapshot I/O."""

import math
import os
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nematicflow import FieldState, ParameterError, SpectralGrid, constitutive
from nematicflow.spectral import (SNAPSHOT_MAGIC, load_snapshot,
                                  random_band_limited, read_snapshot_header,
                                  save_snapshot)

TWO_PI = 2.0 * np.pi


@pytest.mark.parametrize("dim,n", [(1, 32), (4, 32), (2, 10), (2, 4), (2, 0), (3, 12)])
def test_grid_rejects_bad_shapes(dim, n):
    with pytest.raises(ParameterError):
        SpectralGrid(dim, n)


def test_grid_band_is_third(grid2d, grid3d):
    assert grid2d.band == 32 // 3
    assert grid3d.band == 16 // 3


def test_gradient_single_mode(grid2d):
    x = grid2d.coords()
    f = np.sin(TWO_PI * x[0]) * np.cos(2.0 * TWO_PI * x[1])
    g = grid2d.gradient(f)
    gx = TWO_PI * np.cos(TWO_PI * x[0]) * np.cos(2.0 * TWO_PI * x[1])
    gy = -2.0 * TWO_PI * np.sin(TWO_PI * x[0]) * np.sin(2.0 * TWO_PI * x[1])
    assert np.max(np.abs(g[0] - gx)) < 1e-12
    assert np.max(np.abs(g[1] - gy)) < 1e-12


def test_laplacian_and_divergence_3d(grid3d):
    x = grid3d.coords()
    f = np.cos(TWO_PI * x[0]) * np.sin(TWO_PI * x[2])
    lap = grid3d.laplacian(f)
    assert np.max(np.abs(lap + 2.0 * TWO_PI ** 2 * f)) < 1e-10

    v = np.stack([np.sin(TWO_PI * x[0]), np.sin(TWO_PI * x[1]), np.cos(TWO_PI * x[2])])
    div = grid3d.divergence(v)
    expected = TWO_PI * (np.cos(TWO_PI * x[0]) + np.cos(TWO_PI * x[1]) - np.sin(TWO_PI * x[2]))
    assert np.max(np.abs(div - expected)) < 1e-10


def test_curl_2d_scalar(grid2d):
    x = grid2d.coords()
    u = np.stack([np.sin(TWO_PI * x[1]), np.zeros(grid2d.shape)])
    # curl = d1 u2 - d2 u1 = -2pi cos(2pi y)
    w = grid2d.curl(u)
    assert w.shape == grid2d.shape
    assert np.max(np.abs(w + TWO_PI * np.cos(TWO_PI * x[1]))) < 1e-12


def test_curl_3d_vector(grid3d):
    x = grid3d.coords()
    u = np.zeros((3,) + grid3d.shape)
    u[2] = np.sin(TWO_PI * x[0])
    w = grid3d.curl(u)
    # curl(0, 0, sin 2pi x) = (0, -2pi cos 2pi x, 0)
    assert np.max(np.abs(w[0])) < 1e-12
    assert np.max(np.abs(w[1] + TWO_PI * np.cos(TWO_PI * x[0]))) < 1e-12
    assert np.max(np.abs(w[2])) < 1e-12


def test_div_tensor_convention(grid2d):
    # (div T)_j = d_i T_ij: feed T with a single nonzero entry
    x = grid2d.coords()
    T = np.zeros((2, 2) + grid2d.shape)
    T[0, 1] = np.sin(TWO_PI * x[0])
    div = grid2d.div_tensor(T)
    assert np.max(np.abs(div[0])) < 1e-12
    assert np.max(np.abs(div[1] - TWO_PI * np.cos(TWO_PI * x[0]))) < 1e-12


def test_integration_by_parts_is_exact(grid2d):
    """<d_i a, b> = -<a, d_i b> holds to rounding for arbitrary grid fields:
    both sides apply the same lattice frequency per bin."""
    rng = np.random.default_rng(3)
    a = rng.standard_normal(grid2d.shape)
    b = rng.standard_normal(grid2d.shape)
    ga = grid2d.gradient(a)
    gb = grid2d.gradient(b)
    for i in range(2):
        lhs = grid2d.l2_inner(ga[i], b)
        rhs = -grid2d.l2_inner(a, gb[i])
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_leray_properties(grid2d):
    rng = np.random.default_rng(5)
    v = rng.standard_normal((2,) + grid2d.shape)
    pv = grid2d.leray(v)
    assert np.max(np.abs(grid2d.divergence(pv))) < 1e-11
    assert np.max(np.abs(grid2d.leray(pv) - pv)) < 1e-12
    # gradients are annihilated
    phi = rng.standard_normal(grid2d.shape)
    assert np.max(np.abs(grid2d.leray(grid2d.gradient(phi)))) < 1e-11
    # the mean mode passes through
    const = np.ones((2,) + grid2d.shape)
    assert np.max(np.abs(grid2d.leray(const) - const)) < 1e-14


def test_leray_3d(grid3d):
    rng = np.random.default_rng(6)
    v = rng.standard_normal((3,) + grid3d.shape)
    pv = grid3d.leray(v)
    assert np.max(np.abs(grid3d.divergence(pv))) < 1e-11
    assert np.max(np.abs(grid3d.leray(pv) - pv)) < 1e-12


def test_dealias_zeroes_high_modes(grid2d):
    rng = np.random.default_rng(8)
    f = rng.standard_normal(grid2d.shape)
    fd = grid2d.dealias(f)
    fhat = grid2d.fft(fd)
    outside = ~grid2d.dealias_mask
    assert np.max(np.abs(fhat[outside])) < 1e-12 * grid2d.npoints
    # idempotent
    assert np.max(np.abs(grid2d.dealias(fd) - fd)) < 1e-14


def test_truncate_modes(grid2d):
    rng = np.random.default_rng(9)
    f = rng.standard_normal((2,) + grid2d.shape)
    ft = grid2d.truncate_modes(f, 3)
    fhat = grid2d.fft(ft)
    outside = ~np.all(np.abs(grid2d.k) <= 3, axis=0)
    assert np.max(np.abs(fhat[:, outside])) < 1e-12 * grid2d.npoints
    with pytest.raises(ParameterError):
        grid2d.truncate_modes(f, 0)
    with pytest.raises(ParameterError):
        grid2d.truncate_modes(f, grid2d.n)


def test_sobolev_norm_single_mode(grid2d):
    x = grid2d.coords()
    f = np.sin(TWO_PI * x[0])
    # ||f||_{H^s}^2 = (1 + 4 pi^2)^s * mean(sin^2) = (1 + 4 pi^2)^s / 2
    for s in (0.0, 1.0, 3.0):
        expect = np.sqrt((1.0 + 4.0 * np.pi ** 2) ** s / 2.0)
        assert grid2d.sobolev_norm(f, s) == pytest.approx(expect, rel=1e-13)
    # s = 0 coincides with the L2 norm
    assert grid2d.sobolev_norm(f, 0.0) == pytest.approx(grid2d.l2_norm(f), rel=1e-13)


def test_quadrature_exact_for_band_limited_products(grid2d):
    """Grid mean equals the true integral for trig polynomials of total
    degree <= n-1, so products of band-limited fields integrate exactly."""
    rng = np.random.default_rng(11)
    f = random_band_limited(grid2d, 1, grid2d.band // 3, rng)[0]
    g3 = f * f * f
    fhat = grid2d.fft(f)
    # oracle: zero-pad the half spectrum to a 4x finer grid, where the cubic
    # is fully resolved; the last axis holds k = 0..n/2 on both grids
    fine = SpectralGrid(2, 128)
    pad = np.zeros(fine.hshape, dtype=complex)
    kf = np.fft.fftfreq(128, 1.0 / 128).astype(int)
    kc = np.fft.fftfreq(32, 1.0 / 32).astype(int)
    ixf = {int(k): i for i, k in enumerate(kf)}
    for i, ki in enumerate(kc):
        for j in range(fhat.shape[1]):
            pad[ixf[int(ki)], j] = fhat[i, j] * (128 / 32) ** 2
    f_fine = fine.ifft(pad[None])[0]
    assert grid2d.mean(g3) == pytest.approx(fine.mean(f_fine ** 3), abs=1e-13)


def test_l2_and_sup_norms(grid2d):
    x = grid2d.coords()
    f = 3.0 * np.sin(TWO_PI * x[0])
    assert grid2d.l2_norm(f) == pytest.approx(3.0 / np.sqrt(2.0), rel=1e-13)
    assert grid2d.sup_norm(f) == pytest.approx(3.0, rel=1e-12)
    # multi-component sup is the pointwise Frobenius magnitude
    v = np.stack([3.0 * np.ones(grid2d.shape), 4.0 * np.ones(grid2d.shape)])
    assert grid2d.sup_norm(v) == pytest.approx(5.0, rel=1e-14)


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("name", ["l2_inner", "l2_norm", "sup_norm", "mean"])
def test_quadrature_rejects_non_finite(grid2d, name, bad):
    f = np.ones(grid2d.shape)
    f[3, 5] = bad
    args = (f, np.ones(grid2d.shape)) if name == "l2_inner" else (f,)
    with pytest.raises(ParameterError, match="non-finite"):
        getattr(grid2d, name)(*args)
    if name == "l2_inner":
        with pytest.raises(ParameterError, match="non-finite"):
            grid2d.l2_inner(args[1], f)


@pytest.mark.parametrize("name, lead", [("divergence", (3,)), ("curl", (2, 2)),
                                        ("leray", ()), ("div_tensor", (2,))])
def test_calculus_rejects_wrong_component_shape(grid2d, name, lead):
    with pytest.raises(ParameterError, match="expected leading shape"):
        getattr(grid2d, name)(np.zeros(lead + grid2d.shape))


def test_mean_is_scalar_only(grid2d):
    v = np.ones((2,) + grid2d.shape)
    with pytest.raises(ParameterError):
        grid2d.mean(v)
    assert grid2d.mean(v[0]) == 1.0


def test_strain_vorticity_decomposition(grid2d, alpha_one):
    """The bundle's A and omega split the grid's gradient of u."""
    rng = np.random.default_rng(13)
    u = grid2d.leray(rng.standard_normal((2,) + grid2d.shape))
    d = np.zeros((3,) + grid2d.shape)
    d[2] = 1.0
    bundle = constitutive(FieldState(grid=grid2d, coeffs=alpha_one,
                                     time=0.0, u=u, d=d))
    A, W = bundle.A, bundle.omega
    G = grid2d.gradient(u)
    assert np.max(np.abs(A + W - G)) < 1e-12
    assert np.max(np.abs(A - A.swapaxes(0, 1))) == 0.0
    assert np.max(np.abs(W + W.swapaxes(0, 1))) == 0.0


def test_random_band_limited(grid2d):
    rng = np.random.default_rng(17)
    f = random_band_limited(grid2d, 3, 4, rng)
    assert f.shape == (3,) + grid2d.shape
    assert grid2d.sup_norm(f) == pytest.approx(1.0, rel=1e-13)
    fhat = grid2d.fft(f)
    outside = ~np.all(np.abs(grid2d.k) <= 4, axis=0)
    assert np.max(np.abs(fhat[:, outside])) < 1e-10 * grid2d.npoints
    # deterministic under the seed
    g = random_band_limited(grid2d, 3, 4, np.random.default_rng(17))
    assert np.array_equal(f, g)


class TestSnapshots:
    def test_round_trip(self, tmp_path, grid2d):
        rng = np.random.default_rng(19)
        f = rng.standard_normal((2,) + grid2d.shape)
        p = tmp_path / "u.field"
        save_snapshot(p, f, 0.25, grid2d)
        g, t, meta = load_snapshot(p)
        assert np.array_equal(f, g)
        assert t == 0.25
        assert meta == {"dim": 2, "n": 32, "ncomp": 2, "time": 0.25}

    def test_header_reader(self, tmp_path, grid3d):
        f = np.zeros((3,) + grid3d.shape)
        p = tmp_path / "d.field"
        save_snapshot(p, f, 1.5, grid3d)
        h = read_snapshot_header(p)
        assert (h["dim"], h["n"], h["ncomp"], h["time"]) == (3, 16, 3, 1.5)

    def test_rejects_bad_magic(self, tmp_path, grid2d):
        p = tmp_path / "x.field"
        save_snapshot(p, np.zeros((2,) + grid2d.shape), 0.0, grid2d)
        raw = bytearray(p.read_bytes())
        raw[:8] = b"BADMAGIC"
        p.write_bytes(bytes(raw))
        with pytest.raises(ParameterError):
            load_snapshot(p)

    def test_rejects_truncated_payload(self, tmp_path, grid2d):
        p = tmp_path / "x.field"
        save_snapshot(p, np.zeros((2,) + grid2d.shape), 0.0, grid2d)
        raw = p.read_bytes()
        p.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(ParameterError):
            load_snapshot(p)

    def test_rejects_wrong_shape(self, tmp_path, grid2d):
        with pytest.raises(ParameterError):
            save_snapshot(tmp_path / "x.field", np.zeros(grid2d.shape), 0.0, grid2d)

    def test_header_size_is_32_bytes(self, tmp_path, grid2d):
        p = tmp_path / "x.field"
        save_snapshot(p, np.zeros((2,) + grid2d.shape), 0.0, grid2d)
        payload = 2 * grid2d.npoints * 8
        assert p.stat().st_size == 32 + payload
        assert p.read_bytes()[:8] == SNAPSHOT_MAGIC


_SNAP_GRID = SpectralGrid(2, 8)


def _snapshot_bytes(field, time):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "s.field")
        save_snapshot(path, field, time, _SNAP_GRID)
        with open(path, "rb") as fh:
            return fh.read()


def _flip(raw, flips):
    out = bytearray(raw)
    for pos, mask in flips:
        out[pos % len(out)] ^= mask
    return bytes(out)


@st.composite
def damaged_snapshots(draw):
    """A valid 2D n=8 snapshot, then truncated or with a few bytes flipped."""
    ncomp = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    field = rng.standard_normal((ncomp,) + _SNAP_GRID.shape)
    raw = _snapshot_bytes(field, draw(st.floats(allow_nan=False, allow_infinity=False)))
    if draw(st.booleans()):
        return raw[:draw(st.integers(0, len(raw) - 1))]
    flips = st.tuples(st.integers(0, len(raw) - 1), st.integers(1, 255))
    return _flip(raw, draw(st.lists(flips, min_size=1, max_size=4)))


_ZEROS = _snapshot_bytes(np.zeros((1,) + _SNAP_GRID.shape), 0.25)


@settings(max_examples=200, deadline=None)
@given(raw=damaged_snapshots())
@example(raw=_flip(_ZEROS, [(32 + 7, 0x7F), (32 + 6, 0xF0)]))  # a stored +inf
@example(raw=_flip(_ZEROS, [(32 + 7, 0x7F), (32 + 6, 0xF8)]))  # a stored NaN
@example(raw=_flip(_ZEROS, [(31, 0x40), (30, 0x20)]))          # time 0.25 -> +inf
def test_load_snapshot_damaged_bytes(raw):
    """Truncated or corrupted bytes raise ParameterError, never another
    exception, and a snapshot that loads is finite."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "x.field")
        with open(path, "wb") as fh:
            fh.write(raw)
        try:
            field, time, _ = load_snapshot(path)
        except ParameterError:
            return
    assert np.isfinite(field).all()
    assert math.isfinite(time)
