"""Spectral grid operators, quadrature identities, and snapshot I/O."""

import functools
import math
import os
import re
import struct
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nematicflow
from nematicflow import FieldState, ParameterError, SpectralGrid, constitutive, physics
from nematicflow.spectral import (SNAPSHOT_MAGIC, _sum_squares, load_snapshot,
                                  random_band_limited, read_snapshot_header,
                                  save_snapshot)

from conftest import (box_index, box_mask, curl, curl_hat, divergence, laplacian, sobolev_norm,
                      sup_norm, traced_peak_fields)

TWO_PI = 2.0 * np.pi


@pytest.mark.parametrize("dim,n", [(1, 32), (4, 32), (2, 10), (2, 4), (2, 0), (3, 12)])
def test_grid_rejects_bad_shapes(dim, n):
    with pytest.raises(ParameterError):
        SpectralGrid(dim, n)


def test_grid_construction_leaves_numpy_fft_unloaded():
    """Building a grid imports no numpy.fft, which numpy loads on first use:
    a sweep builds every member's grid in its parent process, which
    transforms nothing, and the import would add about 0.4 MB to that
    process's peak RSS.  The wavenumbers keep numpy's fftfreq bits."""
    code = ("import sys; from nematicflow import SpectralGrid; g = SpectralGrid(3, 32); "
            "print('numpy.fft' in sys.modules); import numpy as np; "
            "print(g._kf.tobytes() == np.fft.fftfreq(32, 1 / 32).tobytes(), "
            "g._kr.tobytes() == np.fft.rfftfreq(32, 1 / 32).tobytes())")
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(nematicflow.__file__))}
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == ["False", "True", "True"]


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
    lap = laplacian(grid3d, f)
    assert np.max(np.abs(lap + 2.0 * TWO_PI ** 2 * f)) < 1e-10

    v = np.stack([np.sin(TWO_PI * x[0]), np.sin(TWO_PI * x[1]), np.cos(TWO_PI * x[2])])
    div = divergence(grid3d, v)
    expected = TWO_PI * (np.cos(TWO_PI * x[0]) + np.cos(TWO_PI * x[1]) - np.sin(TWO_PI * x[2]))
    assert np.max(np.abs(div - expected)) < 1e-10


def test_curl_2d_scalar(grid2d):
    x = grid2d.coords()
    u = np.stack([np.sin(TWO_PI * x[1]), np.zeros(grid2d.shape)])
    # curl = d1 u2 - d2 u1 = -2pi cos(2pi y)
    w = curl(grid2d, u)
    assert w.shape == grid2d.shape
    assert np.max(np.abs(w + TWO_PI * np.cos(TWO_PI * x[1]))) < 1e-12


def test_curl_3d_vector(grid3d):
    x = grid3d.coords()
    u = np.zeros((3,) + grid3d.shape)
    u[2] = np.sin(TWO_PI * x[0])
    w = curl(grid3d, u)
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
        lhs = grid2d.l2_inner_unchecked(ga[i], b)
        rhs = -grid2d.l2_inner_unchecked(a, gb[i])
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_leray_properties(grid2d):
    rng = np.random.default_rng(5)
    v = rng.standard_normal((2,) + grid2d.shape)
    pv = grid2d.leray(v)
    assert np.max(np.abs(divergence(grid2d, pv))) < 1e-11
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
    assert np.max(np.abs(divergence(grid3d, pv))) < 1e-11
    assert np.max(np.abs(grid3d.leray(pv) - pv)) < 1e-12


def test_dealias_zeroes_high_modes(grid2d):
    rng = np.random.default_rng(8)
    f = rng.standard_normal(grid2d.shape)
    fd = grid2d.dealias(f)
    fhat = grid2d.fft(fd)
    outside = ~box_mask(grid2d, grid2d.band)
    assert np.max(np.abs(fhat[outside])) < 1e-12 * grid2d.npoints
    # idempotent
    assert np.max(np.abs(grid2d.dealias(fd) - fd)) < 1e-14


def test_truncate_modes(grid2d):
    rng = np.random.default_rng(9)
    f = rng.standard_normal((2,) + grid2d.shape)
    ft = grid2d.truncate_modes(f, 3)
    fhat = grid2d.fft(ft)
    outside = ~box_mask(grid2d, 3)
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
        assert sobolev_norm(grid2d, f, s) == pytest.approx(expect, rel=1e-13)
    # s = 0 coincides with the L2 norm
    assert sobolev_norm(grid2d, f, 0.0) == pytest.approx(grid2d.l2_norm_unchecked(f), rel=1e-13)


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
    assert g3.mean() == pytest.approx((f_fine ** 3).mean(), abs=1e-13)


def test_l2_and_sup_norms(grid2d):
    x = grid2d.coords()
    f = 3.0 * np.sin(TWO_PI * x[0])
    assert grid2d.l2_norm_unchecked(f) == pytest.approx(3.0 / np.sqrt(2.0), rel=1e-13)
    assert sup_norm(grid2d, f) == pytest.approx(3.0, rel=1e-12)
    # multi-component sup is the pointwise Frobenius magnitude
    v = np.stack([3.0 * np.ones(grid2d.shape), 4.0 * np.ones(grid2d.shape)])
    assert sup_norm(grid2d, v) == pytest.approx(5.0, rel=1e-14)


@pytest.mark.parametrize("lead, dim, n", [((2, 3), 2, 64), ((2, 2), 2, 64),
                                          ((3, 3), 3, 32), ((2, 2), 2, 128)])
def test_sup_norm_matches_summed_squares_within_two_fields(lead, dim, n):
    """The multi-component sup norm gives the bits of summing the squared
    components over the leading axes, and allocates at most two grid fields
    where that formula allocated the whole squared tensor."""
    g = SpectralGrid(dim, n)
    f = np.random.default_rng(n + dim).standard_normal(lead + g.shape)
    want = float(np.sqrt(np.sum(f * f, axis=tuple(range(len(lead)))).max()))
    got, fields_at_peak = traced_peak_fields(lambda: g.sup_norm_unchecked(f), g)
    assert got == want
    assert fields_at_peak <= 2.0, fields_at_peak


@pytest.mark.parametrize("lead", [(3,), (2, 2), (2, 3), (3, 3)])
@pytest.mark.parametrize("dim, n", [(2, 64), (2, 128), (3, 32)])
def test_sum_squares_matches_summed_products_bitwise(dim, n, lead):
    """The squared-magnitude kernel gives the bytes of np.sum(f * f) over the
    leading axes, for every component layout the package sums over, and
    allocates at most its output plus one grid field."""
    shape = (n,) * dim
    f = np.random.default_rng(n + len(lead)).standard_normal(lead + shape)
    want = np.sum(f * f, axis=tuple(range(len(lead))))
    got, fields_at_peak = traced_peak_fields(lambda: _sum_squares(f, dim), SpectralGrid(dim, n))
    assert got.shape == shape and got.tobytes() == want.tobytes()
    assert fields_at_peak <= 2.0, fields_at_peak


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("name", ["gradient", "dealias"])
def test_calculus_rejects_non_finite(grid2d, name, bad):
    f = np.ones(grid2d.shape)
    f[3, 5] = bad
    with pytest.raises(ParameterError, match="non-finite"):
        getattr(grid2d, name)(f)


@pytest.mark.parametrize("name, lead", [("leray", ()), ("div_tensor", (2,))],
                         ids=["leray-lead2", "div_tensor-lead3"])
def test_calculus_rejects_wrong_component_shape(grid2d, name, lead):
    with pytest.raises(ParameterError, match="expected leading shape"):
        getattr(grid2d, name)(np.zeros(lead + grid2d.shape))


def test_strain_vorticity_decomposition(monkeypatch, grid2d, alpha_one):
    """The bundle's omega d and, unstaged, its A d are the antisymmetric and
    symmetric parts of the grid's gradient of u applied to a tilted d."""
    monkeypatch.setattr(physics, "_stage", lambda g, f: f)
    rng = np.random.default_rng(13)
    u = grid2d.leray(rng.standard_normal((2,) + grid2d.shape))
    d = np.zeros((3,) + grid2d.shape)
    d[2] = 1.0
    d += random_band_limited(grid2d, 3, 4, rng)
    bundle = constitutive(FieldState(grid=grid2d, coeffs=alpha_one,
                                     time=0.0, u=u, d=d))
    G = grid2d.gradient(u)
    A, W = 0.5 * (G + G.swapaxes(0, 1)), 0.5 * (G - G.swapaxes(0, 1))
    assert np.max(np.abs(bundle.omega_d - physics.mat_vec_director(W, d))) < 1e-12
    assert np.max(np.abs(bundle.Ad - physics.mat_vec_director(A, d))) < 1e-12


def test_random_band_limited(grid2d):
    rng = np.random.default_rng(17)
    f = random_band_limited(grid2d, 3, 4, rng)
    assert f.shape == (3,) + grid2d.shape
    assert sup_norm(grid2d, f) == pytest.approx(1.0, rel=1e-13)
    fhat = grid2d.fft(f)
    outside = ~box_mask(grid2d, 4)
    assert np.max(np.abs(fhat[:, outside])) < 1e-10 * grid2d.npoints
    # deterministic under the seed
    g = random_band_limited(grid2d, 3, 4, np.random.default_rng(17))
    assert np.array_equal(f, g)


@pytest.mark.parametrize("lead", [(), (3,), (3, 3)], ids=["scalar", "vector", "tensor"])
@pytest.mark.parametrize("n", [8, 16, 32])
@pytest.mark.parametrize("dim", [2, 3])
def test_transforms_match_numpy_and_the_masked_reference(dim, n, lead):
    """fft(f, M=M) is the box(M) gather of numpy's rfftn and ifft of a box is
    numpy's irfftn of the box zero-padded to the full half spectrum, byte for
    byte; the default M = n/2 is rfftn itself.  Neither writes its input."""
    g = SpectralGrid(dim, n)
    axes = tuple(range(-dim, 0))
    f = np.random.default_rng(n + dim).standard_normal(lead + g.shape)
    f_before = f.copy()
    full = np.fft.rfftn(f, axes=axes)
    assert g.fft(f).tobytes() == full.tobytes()
    for M in (0, 1, g.band, n // 2 - 1, n // 2):
        fhat = g.fft(f, M=M)
        assert fhat.shape == lead + g.box(M).shape, M
        assert fhat.tobytes() == full[box_index(g, M)].tobytes(), M
        fhat_before = fhat.copy()
        padded = np.zeros_like(full)
        padded[box_index(g, M)] = fhat
        assert g.ifft(fhat).tobytes() == np.fft.irfftn(padded, s=g.shape, axes=axes).tobytes(), M
        assert fhat.tobytes() == fhat_before.tobytes()
    assert f.tobytes() == f_before.tobytes()


def test_forward_transform_onto_the_band_holds_no_full_half_spectrum():
    """3D n=32, a 3x3 tensor onto box(band): the slabbed transform stays
    below 8 scalar fields (2 MiB) above its input, output included (6.7;
    13.6 with numpy's full rfft held through its gather)."""
    g = SpectralGrid(3, 32)
    f = np.random.default_rng(37).standard_normal((3, 3) + g.shape)
    g.fft(f, M=g.band)
    fhat, fields_at_peak = traced_peak_fields(lambda: g.fft(f, M=g.band), g)
    assert fhat.shape == (3, 3) + g.box(g.band).shape
    assert fields_at_peak < 8.0, fields_at_peak


def test_sobolev_norm_sums_without_full_size_temporaries():
    """sobolev_norm_hat of a full-layout 3-component spectrum at 3D n=32
    gives the bits of the weighted sum of |fhat|^2 and holds at most 1.5
    real arrays of the spectrum's size (1.34; 2.0 with the squares of the
    real and imaginary parts held at once)."""
    g = SpectralGrid(3, 32)
    fhat = g.fft(np.random.default_rng(41).standard_normal((3,) + g.shape))
    for grad in (False, True):
        w = g.box_of(fhat).sobolev_weight(3.0, grad)
        want = float(np.sqrt(float(np.sum(w * (fhat.real ** 2 + fhat.imag ** 2))))) / g.npoints
        got, fields_at_peak = traced_peak_fields(lambda: g.sobolev_norm_hat(fhat, 3.0, grad=grad), g)
        assert got == want
        assert fields_at_peak <= 1.5 * fhat.real.nbytes / (8 * g.npoints), fields_at_peak


@pytest.mark.parametrize("dim, n", [(2, 16), (2, 32), (3, 16)])
def test_to_box_gathers_and_zero_pads(dim, n):
    """to_box gathers box(M) from a larger box and zero-pads into a larger
    one, by the index of box(M) in the full half spectrum; padding then
    gathering gives the array back byte for byte, and an array already in
    box(M) is returned itself."""
    g = SpectralGrid(dim, n)
    rng = np.random.default_rng(dim + n)
    sizes = (0, 1, g.band, n // 2 - 1, n // 2)
    for M in sizes:
        shape = (3,) + g.box(M).shape
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        assert g.to_box(x, M) is x
        full = g.to_box(x, n // 2)
        expected = np.zeros((3,) + g.hshape, dtype=complex)
        expected[box_index(g, M)] = x
        assert full.tobytes() == expected.tobytes(), M
        for M2 in sizes:
            y = g.to_box(x, M2)
            assert y.shape == (3,) + g.box(M2).shape
            if M2 <= M:
                assert y.tobytes() == full[box_index(g, M2)].tobytes(), (M, M2)
            else:
                assert g.to_box(y, M).tobytes() == x.tobytes(), (M, M2)


@pytest.mark.parametrize("dim, shape", [
    (2, (5, 4)), (2, (33, 17)), (2, (32,)), (2, (0, 0)), (3, (7, 4, 4)), (3, (16, 16, 10)),
])
def test_spectral_arrays_outside_any_box_layout_raise(dim, shape):
    """A spectral array whose trailing shape is no box layout of the grid is
    refused with ParameterError naming its shape, by every operator that
    reads the layout from the shape."""
    g = SpectralGrid(dim, 16)
    bad = np.zeros((dim,) + shape, dtype=complex)
    for op in (g.ifft, g.grad_hat, g.div_hat, g.leray_hat,
               lambda x: g.to_box(x, g.band), lambda x: g.sobolev_norm_hat(x, 1.0)):
        with pytest.raises(ParameterError, match=re.escape(str(bad.shape))):
            op(bad)
    for M in (-1, g.n // 2 + 1, 2.0):
        with pytest.raises(ParameterError, match="box size M"):
            g.fft(np.zeros(g.shape), M=M)


@pytest.mark.parametrize("dim", [2, 3])
def test_per_axis_multipliers_match_dense_ones(dim):
    """grad, div, curl, potential, Leray, ksq and the Sobolev weights on
    box(M) give the bits of dense multipliers built from numpy's FFT
    frequencies and gathered into box(M); M = n/2 = 8 is the full half
    spectrum."""
    g = SpectralGrid(dim, 16)
    kf = [np.fft.fftfreq(g.n, 1.0 / g.n)] * (dim - 1) + [np.fft.rfftfreq(g.n, 1.0 / g.n)]
    rng = np.random.default_rng(dim)
    for M in (2, g.band, g.n // 2):
        k = np.stack(np.meshgrid(*kf, indexing="ij"))[box_index(g, M)]
        kappa = TWO_PI * k
        kappa[np.abs(k) == g.n // 2] = 0.0
        ikappa = 1j * kappa
        ksq = functools.reduce(np.add, (TWO_PI * k) ** 2)
        ksq_d = functools.reduce(np.add, kappa ** 2)
        inv_ksq_d = np.where(ksq_d > 0.0, 1.0 / np.where(ksq_d > 0.0, ksq_d, 1.0), 0.0)
        vhat = g.fft(rng.standard_normal((dim,) + g.shape), M=M)
        That = g.fft(rng.standard_normal((dim, dim) + g.shape), M=M)
        q = functools.reduce(np.add, kappa * vhat) * inv_ksq_d
        assert g.grad_hat(vhat).tobytes() == (ikappa[:, None] * vhat).tobytes()
        assert g.div_hat(That).tobytes() == functools.reduce(np.add, ikappa[:, None] * That).tobytes()
        assert g.potential_hat(vhat).tobytes() == q.tobytes()
        assert g.leray_hat(vhat).tobytes() == (vhat - kappa * q).tobytes()
        if dim == 3:
            curl_dense = np.stack([ikappa[(c + 1) % 3] * vhat[(c + 2) % 3]
                                   - ikappa[(c + 2) % 3] * vhat[(c + 1) % 3] for c in range(3)])
            assert curl_hat(g, vhat).tobytes() == curl_dense.tobytes()
        assert g.box(M).ksq.tobytes() == ksq.tobytes()
        hweight = np.where((k[-1] == 0) | (k[-1] == g.n // 2), 1.0, 2.0)
        for s in (0.0, 3.0):
            w = hweight * (1.0 + ksq) ** s
            assert g.box(M).sobolev_weight(s, False).tobytes() == w.tobytes()
            assert g.box(M).sobolev_weight(s, True).tobytes() == (w * ksq_d).tobytes()


@pytest.mark.parametrize("seed", [5, 6])
@pytest.mark.parametrize("dim, n, kmax", [(2, 32, 4), (3, 16, 5)])
def test_random_band_limited_matches_the_masked_formula(dim, n, kmax, seed):
    g = SpectralGrid(dim, n)
    axes = tuple(range(-dim, 0))
    f = np.random.default_rng(seed).standard_normal((3,) + g.shape)
    f = np.fft.irfftn(np.fft.rfftn(f, axes=axes) * box_mask(g, kmax), s=g.shape, axes=axes)
    expected = f / np.sqrt(np.sum(f * f, axis=0).max())
    got = random_band_limited(g, 3, kmax, np.random.default_rng(seed))
    assert got.tobytes() == expected.tobytes()


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

    def test_load_reads_into_the_returned_array(self, tmp_path):
        """The payload is read straight into the returned array, with no
        second copy: loading a 3D n=32 field peaks at at most 1.25 times its
        bytes (the finiteness mask adds an eighth)."""
        g = SpectralGrid(3, 32)
        f = np.random.default_rng(23).standard_normal((3,) + g.shape)
        p = tmp_path / "u.field"
        save_snapshot(p, f, 0.5, g)
        (field, _, _), fields_at_peak = traced_peak_fields(lambda: load_snapshot(p), g)
        assert field.tobytes() == f.tobytes() and field.flags.writeable
        assert fields_at_peak <= 1.25 * 3, fields_at_peak

    @pytest.mark.parametrize("view", ["contiguous", "strided", "float32"])
    def test_save_writes_the_field_without_copies(self, tmp_path, view):
        """The payload is written from the field itself, with the bytes of
        its little-endian float64 copy: saving a contiguous 3D n=32 field
        peaks at at most 1.25 times its bytes (the finiteness mask adds an
        eighth).  A strided or float32 field is converted first."""
        g = SpectralGrid(3, 32)
        base = np.random.default_rng(29).standard_normal((3,) + g.shape)
        f = {"contiguous": base, "strided": base[:, ::-1, :, ::-1],
             "float32": base.astype(np.float32)}[view]
        p = tmp_path / "d.field"
        _, fields_at_peak = traced_peak_fields(lambda: save_snapshot(p, f, 0.25, g), g)
        header = struct.pack("<8sIIIId", SNAPSHOT_MAGIC, 1, 3, 32, 3, 0.25)
        assert p.read_bytes() == header + np.ascontiguousarray(f).astype("<f8").tobytes()
        if view == "contiguous":
            assert fields_at_peak <= 1.25 * 3, fields_at_peak

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
