"""Constitutive assembly: penalty, Leslie stress, and the right-hand sides."""

import inspect
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from nematicflow import (ConstitutiveBundle, FieldState, LeslieCoefficients, ParameterError,
                         RegimeError, RegularizationConfig, SpectralGrid, Stepper,
                         TimeStepperConfig, channels, constitutive, from_alpha,
                         penalty, rhs_hat)
from nematicflow import physics
from nematicflow.physics import director_rhs, mat_vec_director, momentum_rhs

from conftest import (_full_transform_reference, divergence, laplacian, physical_rhs,
                      smooth_state, sup_norm, tension, traced_peak_fields)

TWO_PI = 2.0 * np.pi
CASE2_SET = LeslieCoefficients(lambda1=-1.0, lambda2=0.2, mu1=0.5, mu2=-0.5,
                               mu3=0.5, mu4=1.0, mu5=0.6, mu6=0.4)


def _outer(a, b):
    """(a(x)b)_ij = a_i b_j over the first dim components, dim = a[0].ndim."""
    dim = a[0].ndim
    return np.einsum("i...,j...->ij...", a[:dim], b[:dim])


def ericksen_stress(grad_d):
    """Reference (grad d o grad d)_ij = sum_c d_i(d_c) d_j(d_c), pointwise."""
    return np.einsum("ic...,jc...->ij...", grad_d, grad_d)


def leslie_stress(grid, c, d, A, N, Ad):
    """Reference Leslie stress, written from the formula in physics' module
    docstring with N and Ad given staged:

        sigma = mu1 (d.Ad) d(x)d + mu2 N(x)d + mu3 d(x)N + mu4 A
              + mu5 (Ad)(x)d + mu6 d(x)(Ad),

    where d.Ad = d(x)d : A is staged here through grid.dealias and d(x)d
    is not."""
    sigma = (c.mu2 * _outer(N, d) + c.mu3 * _outer(d, N) + c.mu4 * A
             + c.mu5 * _outer(Ad, d) + c.mu6 * _outer(d, Ad))
    if c.mu1 != 0.0:
        dd = _outer(d, d)
        dAd = grid.dealias(np.einsum("ij...,ij...->...", dd, A))
        sigma += c.mu1 * dAd * dd
    return sigma


def test_penalty_values():
    d = np.zeros((3, 4, 4))
    d[2] = 1.0
    W, gradW = penalty(d, 0.1)
    assert np.all(W == 0.0)
    assert np.all(gradW == 0.0)

    d[2] = np.sqrt(2.0)  # |d|^2 = 2
    W, gradW = penalty(d, 0.1)
    assert W == pytest.approx(np.full((4, 4), 25.0))
    assert gradW[2] == pytest.approx(np.full((4, 4), 100.0 * np.sqrt(2.0)))
    with pytest.raises(ParameterError):
        penalty(d, 0.0)


def test_ericksen_stress_oracle(grid2d):
    x = grid2d.coords()
    d = np.zeros((3,) + grid2d.shape)
    d[0] = np.sin(TWO_PI * x[0])
    d[2] = 1.0
    grad_d = grid2d.gradient(d)
    sig = ericksen_stress(grad_d)
    # only grad_1 d_1 = 2pi cos(2pi x) is nonzero
    c = TWO_PI * np.cos(TWO_PI * x[0])
    assert np.max(np.abs(sig[0, 0] - c * c)) < 1e-10
    assert np.max(np.abs(sig[0, 1])) < 1e-12
    assert np.max(np.abs(sig[1, 1])) < 1e-12
    assert np.max(np.abs(sig - sig.swapaxes(0, 1))) == 0.0


def test_mat_vec_director_2d_embeds():
    M = np.zeros((2, 2, 4, 4))
    M[0, 1] = 2.0
    d = np.ones((3, 4, 4))
    out = mat_vec_director(M, d)
    assert np.all(out[0] == 2.0)  # M_01 d_1
    assert np.all(out[1] == 0.0)
    assert np.all(out[2] == 0.0)  # the in-plane tensor never tilts d_3


@pytest.mark.parametrize("dim, n", [(2, 64), (2, 128), (3, 32)])
def test_contraction_kernels_match_loops_bitwise(dim, n):
    """mat_vec_director (of G and of the view G^T) gives the bytes of the
    per-entry multiply-and-add loops, summing in index order, and allocates
    at most its output plus one grid field."""
    shape = (n,) * dim
    rng = np.random.default_rng(n + dim)
    G = rng.standard_normal((dim, dim) + shape)
    d = rng.standard_normal((3,) + shape)

    for M in (G, G.swapaxes(0, 1)):
        want = np.zeros((3,) + shape)
        for i in range(dim):
            want[i] = M[i, 0] * d[0]
            for j in range(1, dim):
                want[i] += M[i, j] * d[j]
        got, fields_at_peak = traced_peak_fields(lambda: mat_vec_director(M, d),
                                                 SpectralGrid(dim, n))
        assert got.tobytes() == want.tobytes()
        assert fields_at_peak <= 4.0, fields_at_peak  # 3 components


def test_constitutive_identity(grid2d, alpha_one):
    """lambda1 N + lambda2 Ad + (Lap d - stage(grad_d W)) = 0 to rounding,
    with the tension built from the oracles."""
    for seed in range(3):
        st = smooth_state(grid2d, alpha_one, seed=seed)
        b = constitutive(st)
        resid = (alpha_one.lambda1 * b.N + alpha_one.lambda2 * b.Ad
                 + tension(grid2d, st.d, alpha_one.epsilon))
        assert sup_norm(grid2d, resid) < 1e-12


def test_constitutive_requires_negative_lambda1(grid2d):
    from nematicflow import LeslieCoefficients
    bad = LeslieCoefficients(lambda1=0.5, lambda2=0.0, mu1=0.0, mu2=0.0,
                             mu3=-0.5, mu4=1.0, mu5=0.0, mu6=0.0)
    st = smooth_state(grid2d, bad)
    with pytest.raises(RegimeError):
        constitutive(st)


def test_omega_antisymmetric_bitwise(monkeypatch, grid2d, grid3d, alpha_one):
    """The bundle's omega d and, with staging switched off, its A d are the
    antisymmetric and symmetric parts of grid.gradient(u) applied to d, to
    rounding in 2D and 3D; in 2D both third components are exactly zero."""
    monkeypatch.setattr(physics, "_stage", lambda g, f: f)
    for grid in (grid2d, grid3d):
        st = smooth_state(grid, alpha_one, seed=4)
        b = constitutive(st)
        G = grid.gradient(st.u)
        A, omega = 0.5 * (G + G.swapaxes(0, 1)), 0.5 * (G - G.swapaxes(0, 1))
        for got, want in ((b.omega_d, mat_vec_director(omega, st.d)),
                          (b.Ad, mat_vec_director(A, st.d))):
            assert np.abs(got - want).max() <= 1e-12, grid.dim
        if grid.dim == 2:
            assert not b.omega_d[2].any() and not b.Ad[2].any()


def _strain(b):
    """A for leslie_stress: the symmetric part of the bundle's grad u."""
    return 0.5 * (b.grad_u + b.grad_u.swapaxes(0, 1))


def test_leslie_stress_constant_fields(grid2d):
    """Hand values with d = e1, A = diag(a, -a), N = (0, n, 0), alpha = 1
    (mu1 = 0, mu2 = -1, mu3 = 0, mu4 = 1, mu5 = 1, mu6 = 0):
    sigma = [[2a, 0], [-n, -a]]."""
    c = from_alpha(1.0, 1.0)
    shape = grid2d.shape
    a, n = 0.3, 0.7
    d = np.zeros((3,) + shape); d[0] = 1.0
    A = np.zeros((2, 2) + shape); A[0, 0] = a; A[1, 1] = -a
    N = np.zeros((3,) + shape); N[1] = n
    Ad = mat_vec_director(A, d)
    assert np.all(Ad[0] == a)

    sig = leslie_stress(grid2d, c, d, A, N, Ad)
    assert np.max(np.abs(sig[0, 0] - 2.0 * a)) < 1e-13
    assert np.max(np.abs(sig[0, 1])) < 1e-13
    assert np.max(np.abs(sig[1, 0] + n)) < 1e-13
    assert np.max(np.abs(sig[1, 1] + a)) < 1e-13


def _reference_force_hat(st, b, reg):
    """The momentum force from the reference stresses: div of the transformed
    leslie_stress - mu4 A - ericksen_stress - u (x) u, or with the
    regularised scheme's advecting [u]_M and monitor flux |grad u|^(r-2) grad u / M."""
    g, c, u = st.grid, st.coeffs, st.u
    A = _strain(b)
    stress = leslie_stress(g, c, st.d, A, b.N, b.Ad) - c.mu4 * A - ericksen_stress(b.grad_d)
    if reg is None:
        stress -= _outer(u, u)
    else:
        norm = np.sqrt(np.sum(b.grad_u ** 2, axis=(0, 1)))
        stress += norm ** (reg.r - 2.0) * b.grad_u / reg.M - _outer(g.truncate_modes(u, reg.M), u)
    return g.div_hat(g.fft(stress, M=g.band))


def test_leslie_stress_matches_bundle(grid2d, grid3d, alpha_one):
    """The momentum force, built entry by entry in one buffer from the bundle,
    equals the divergence of the reference stresses to rounding: 2D and 3D,
    mu1 = 0 and mu1 != 0, plain and regularised.  momentum_rhs consumes
    the fields it reads last, so each case builds its own bundle."""
    for grid in (grid2d, grid3d):
        for coeffs in (alpha_one, CASE2_SET):
            st = smooth_state(grid, coeffs, seed=5)
            for reg in (None, RegularizationConfig(M=4, r=4.0)):
                b = constitutive(st)
                want = _reference_force_hat(st, b, reg)
                got = momentum_rhs(st, b, reg)
                case = (grid.dim, coeffs.mu1, reg)
                assert got.shape == want.shape, case
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), case


@pytest.mark.parametrize("stepped", [False, True], ids=["from-fields", "stepped"])
@pytest.mark.parametrize("case", ["2d-alpha", "2d-regularised", "3d-case2"])
def test_rhs_hat_is_both_forces_and_consumes_the_bundle(grid2d, grid3d, alpha_one,
                                                          case, stepped):
    """rhs_hat gives the bytes of (leray_hat(momentum_rhs), director_rhs) on a
    fresh bundle, from a state built from fields (its fields transformed
    onto box(band)) and from a stepped one (carried box coefficients).  It
    leaves every array of the bundle it consumed None: d_hat, omega_d and
    gradW_hat, N, Ad, grad_d and, when mu1 != 0, dAd; u_hat and
    grad_u too, by rhs_hat when unregularised and by momentum_rhs when
    regularised.  Only the numbers stay: E_penalty and tension_sq."""
    grid, coeffs, reg = {
        "2d-alpha": (grid2d, alpha_one, None),
        "2d-regularised": (grid2d, alpha_one, RegularizationConfig(M=4, r=4.0)),
        "3d-case2": (grid3d, CASE2_SET, None),
    }[case]
    st = smooth_state(grid, coeffs, seed=23)
    if stepped:
        st = Stepper(grid, coeffs, TimeStepperConfig(dt=1e-3, t_end=0.01), reg).step_pair(st)
        assert st.spectra is not None
    b = constitutive(st)
    assert (b.dAd is None) == (coeffs.mu1 == 0.0)
    F_d = director_rhs(st, b)  # momentum_rhs consumes grad_d, which director_rhs reads
    want = (grid.leray_hat(momentum_rhs(st, b, reg)), F_d)
    consumed = constitutive(st)
    got = rhs_hat(st, consumed, reg)
    assert len(got) == 2
    for g_hat, w_hat in zip(got, want):
        assert g_hat.shape == w_hat.shape == (g_hat.shape[0],) + grid.box(grid.band).shape
        assert g_hat.tobytes() == w_hat.tobytes()
    for f in fields(ConstitutiveBundle):
        if f.name in ("E_penalty", "tension_sq"):
            assert getattr(consumed, f.name) == getattr(b, f.name), f.name
        else:
            assert getattr(consumed, f.name) is None, f.name


def test_rhs_hat_frees_the_leslie_inputs_before_the_stress_transform():
    """3D Case 2 at n=32 from a stepped state, its bundle built under
    tracemalloc, after a first call has filled the grid's caches: the
    traced peak of rhs_hat stays below 29.4 scalar grid fields, bundle
    included, so momentum_rhs writes the Ericksen entries and drops grad_d
    before it forms the Leslie entries, and drops N, Ad and dAd before
    it transforms the stress (28.9; 35.9 with grad_d held through the
    Leslie entries)."""
    g = SpectralGrid(3, 32)
    st = Stepper(g, CASE2_SET, TimeStepperConfig(dt=1e-3, t_end=0.01)).step_pair(
        smooth_state(g, CASE2_SET, seed=29))

    def forces():
        bundle = constitutive(st)
        tracemalloc.reset_peak()
        rhs_hat(st, bundle)

    forces()
    _, fields_at_peak = traced_peak_fields(forces, g)
    assert fields_at_peak < 29.4, fields_at_peak


def test_director_rhs_linearized_oracle(grid2d):
    """d = e3 + delta sin(2pi x) e1 with tiny delta: the rhs reduces to
    -(1/lambda1) Lap d = -4 pi^2 delta sin(2pi x) e1 up to O(delta^2)."""
    c = from_alpha(1.0, 1.0, epsilon=1.0)
    delta = 1e-5
    x = grid2d.coords()
    d = np.zeros((3,) + grid2d.shape)
    d[2] = 1.0
    d[0] = delta * np.sin(TWO_PI * x[0])
    st = FieldState(grid=grid2d, coeffs=c, time=0.0,
                    u=np.zeros((2,) + grid2d.shape), d=d)
    _, rhs = physical_rhs(st)
    expect = np.zeros_like(d)
    expect[0] = -4.0 * np.pi ** 2 * delta * np.sin(TWO_PI * x[0])
    assert sup_norm(grid2d, rhs - expect) < 1e-8


def test_director_rhs_quiescent_zero(grid2d, alpha_one):
    d = np.zeros((3,) + grid2d.shape); d[2] = 1.0
    st = FieldState(grid=grid2d, coeffs=alpha_one, time=0.0,
                    u=np.zeros((2,) + grid2d.shape), d=d)
    mom, rhs = physical_rhs(st)
    assert sup_norm(grid2d, rhs) == 0.0
    assert sup_norm(grid2d, mom) == 0.0


def test_momentum_reduces_to_navier_stokes(grid2d):
    """With d = e3 every director stress vanishes; the rhs must agree with an
    independently coded spectral Navier-Stokes operator."""
    c = from_alpha(0.5, 1.3)
    rng = np.random.default_rng(21)
    u = grid2d.dealias(grid2d.leray(rng.standard_normal((2,) + grid2d.shape)))
    d = np.zeros((3,) + grid2d.shape); d[2] = 1.0
    st = FieldState(grid=grid2d, coeffs=c, time=0.0, u=u, d=d)
    rhs, _ = physical_rhs(st)

    # independent assembly with raw numpy transforms
    g = grid2d
    gu = g.gradient(u)
    adv = np.einsum("i...,ij...->j...", u, gu)
    expect = g.leray(-g.dealias(adv)) + 0.5 * c.mu4 * laplacian(g, u)
    assert sup_norm(g, rhs - expect) < 1e-10


def test_regularization_config_validation():
    with pytest.raises(ParameterError):
        RegularizationConfig(M=0)
    with pytest.raises(ParameterError):
        RegularizationConfig(r=3.0)  # must exceed 10/3
    with pytest.raises(ParameterError):
        RegularizationConfig(M=16, N_modes=8)
    for bad in ({"M": 2.5}, {"N_modes": 8.5}):
        with pytest.raises(ParameterError, match="must be an integer"):
            RegularizationConfig(**bad)
    RegularizationConfig(M=8, r=4.0, N_modes=8)
    RegularizationConfig(M=np.int64(4), N_modes=np.int64(8))


def test_regularized_force_fixed_points(grid2d, alpha_one):
    """With u = 0 the regularized and plain momentum forces coincide, and the
    director rhs never sees the regularization at all."""
    st = smooth_state(grid2d, alpha_one, seed=8, u_amp=0.0)
    reg = RegularizationConfig(M=8, r=4.0)
    plain, _ = physical_rhs(st)
    regd, _ = physical_rhs(st, reg)
    assert sup_norm(grid2d, plain - regd) < 1e-12


def test_state_validation(grid2d, alpha_one):
    with pytest.raises(ParameterError):
        FieldState(grid=grid2d, coeffs=alpha_one, time=0.0,
                   u=np.zeros((3,) + grid2d.shape), d=np.zeros((3,) + grid2d.shape))
    with pytest.raises(ParameterError):
        FieldState(grid=grid2d, coeffs=alpha_one, time=np.nan,
                   u=np.zeros((2,) + grid2d.shape), d=np.zeros((3,) + grid2d.shape))
    bad_d = np.zeros((3,) + grid2d.shape)
    bad_d[0, 0, 0] = np.inf
    with pytest.raises(ParameterError):
        FieldState(grid=grid2d, coeffs=alpha_one, time=0.0,
                   u=np.zeros((2,) + grid2d.shape), d=bad_d)


def test_constitutive_3d(grid3d):
    c = from_alpha(0.8, 1.0)
    st = smooth_state(grid3d, c, seed=9)
    b = constitutive(st)
    resid = c.lambda1 * b.N + c.lambda2 * b.Ad + tension(grid3d, st.d, c.epsilon)
    assert sup_norm(grid3d, resid) < 1e-12
    rhs, _ = physical_rhs(st)
    assert sup_norm(grid3d, divergence(grid3d, rhs)) < 1e-9


@pytest.mark.parametrize("reg", [None, RegularizationConfig(M=4, r=4.0)],
                         ids=["plain", "regularised"])
@pytest.mark.parametrize("grid_name, coeffs", [("grid2d", from_alpha(1.0, 1.0)),
                                               ("grid3d", CASE2_SET)],
                         ids=["2d-alpha", "3d-case2"])
def test_semi_discrete_energy_law(request, grid_name, coeffs, reg):
    """<u, u_t> + <grad d, grad d_t> + <grad_d W, d_t> = -(sum of the general
    channels) to rounding: the spatial assembly balances the energy law exactly."""
    grid = request.getfixturevalue(grid_name)
    assert _energy_law_defect(smooth_state(grid, coeffs, seed=31), reg) <= 1e-12


def _energy_law_defect(st, reg=None):
    """|dE/dt + D| / D at st: the rate <u, u_t> + <grad d, grad d_t> +
    <grad_d W, d_t> of the spatially discrete system against the general
    channels D, which must be positive."""
    grid = st.grid
    u_t, d_t = physical_rhs(st, reg)
    _, gradW = penalty(st.d, st.coeffs.epsilon)
    rate = (grid.l2_inner_unchecked(st.u, u_t)
            + grid.l2_inner_unchecked(grid.gradient(st.d), grid.gradient(d_t))
            + grid.l2_inner_unchecked(gradW, d_t))
    dissipation = channels(st, constitutive(st), reg).dissipation_general
    assert dissipation > 0.0
    return abs(rate + dissipation) / dissipation


def _full_band_case2(grid, stepped):
    """A Case 2 state whose modes reach band (amplitudes 0.3), as built or
    after 5 euler steps at dt = 1e-3."""
    st = smooth_state(grid, CASE2_SET, seed=31, kmax=grid.band, d_amp=0.3, u_amp=0.3)
    if stepped:
        stepper = Stepper(grid, CASE2_SET, TimeStepperConfig(dt=1e-3, t_end=5e-3))
        for _ in range(5):
            st = stepper.step_pair(st)
    return st


@pytest.mark.parametrize("grid_name, stepped, bound", [
    ("grid2d", False, 5e-7), ("grid2d", True, 3e-13),
    ("grid3d", False, 5e-7), ("grid3d", True, 4e-8),
], ids=["2d-full-band", "2d-stepped", "3d-full-band", "3d-stepped"])
def test_semi_discrete_energy_law_beyond_band_over_3(request, grid_name, stepped, bound):
    """The energy law on Case 2 states whose modes reach band, as built and
    after 5 euler steps: 2D n=32 and 3D n=16, amplitudes 0.3.  There the
    cubic products alias, and the defect above rounding comes from the
    quartic penalty: it scales as 1/eps^2 (3D as built: 4.2e-8, 4.7e-10
    and 4.7e-12 at eps = 0.1, 1 and 10).  Each bound is about ten times
    the largest |dE/dt + D|/D read over seeds 0, 1, 2 and 31: 5.3e-8 (2D)
    and 5.5e-8 (3D) as built, 3.4e-14 (2D) and 3.9e-9 (3D) stepped.  The
    law reads the same to two digits with the mu1 stress built on
    stage(d(x)d), since D_mu1 is at most 5% of D here; the mu1 pairing is
    checked on its own by test_mu1_block_stages_d_Ad_and_pays_its_channel."""
    grid = request.getfixturevalue(grid_name)
    assert _energy_law_defect(_full_band_case2(grid, stepped)) <= bound


@pytest.mark.parametrize("stepped", [False, True], ids=["from-fields", "stepped"])
@pytest.mark.parametrize("grid_name", ["grid2d", "grid3d"])
def test_mu1_block_stages_d_Ad_and_pays_its_channel(request, grid_name, stepped):
    """On the Case 2 states of the energy-law test above, whose modes reach
    band: (a) the bundle's dAd is stage(d.(A d)), A the symmetric part of
    grid.gradient(u), to 1e-13 of its sup; (b) the mu1 stress
    mu1 dAd d(x)d does the work of the channel D_mu1 = mu1 ||dAd||^2 on
    grad u, mean(dAd d.(G d)) = mean(dAd^2) to 1e-13 relative, because
    staging is the grid projection.  Both read below 1e-15 here.  A bundle
    whose dAd is stage(stage(d(x)d) : A) misses (b) by 4.5e-2 and 2.2e-7
    (2D, as built and stepped) and by 3.5e-4 and 2.2e-8 (3D)."""
    grid = request.getfixturevalue(grid_name)
    st = _full_band_case2(grid, stepped)
    d, G = st.d[:grid.dim], grid.gradient(st.u)
    b = constitutive(st)
    A = 0.5 * (G + G.swapaxes(0, 1))
    want = grid.ifft(grid.fft(np.einsum("i...,ij...,j...->...", d, A, d), M=grid.band))
    assert np.abs(b.dAd - want).max() <= 1e-13 * np.abs(want).max()
    work = np.mean(b.dAd * np.einsum("i...,ij...,j...->...", d, G, d))
    channel = np.mean(b.dAd ** 2)
    assert channel > 0.0
    assert abs(work - channel) <= 1e-13 * channel


def _count_transforms(monkeypatch):
    counts = {"fft": 0, "ifft": 0}
    for name in counts:
        def counted(self, *args, _orig=getattr(SpectralGrid, name), _name=name, **kwargs):
            counts[_name] += 1
            return _orig(self, *args, **kwargs)
        monkeypatch.setattr(SpectralGrid, name, counted)
    return counts


@pytest.mark.parametrize("grid_name, coeffs, forward, inverse", [
    ("grid2d", from_alpha(1.0, 1.0), 4, 4),
    ("grid2d", CASE2_SET, 5, 5),
    ("grid3d", CASE2_SET, 5, 5),
], ids=["2d-alpha", "2d-case2", "3d-case2"])
def test_constitutive_stages_mu1_block_only_when_used(request, monkeypatch,
                                                     grid_name, coeffs, forward, inverse):
    """A state built from fields: u, d, grad_d W and Ad take 4 forward
    transforms, and grad u, grad d, the tension and Ad one inverse each;
    d.Ad adds one forward and one inverse transform, and only when
    mu1 != 0: d(x)d is never staged."""
    grid = request.getfixturevalue(grid_name)
    st = smooth_state(grid, coeffs, seed=37)
    counts = _count_transforms(monkeypatch)
    b = constitutive(st)
    assert counts == {"fft": forward, "ifft": inverse}
    if coeffs.mu1 == 0.0:
        assert b.dAd is None
        assert channels(st, b).D_mu1 == 0.0
    else:
        assert b.dAd.shape == grid.shape
        assert channels(st, b).D_mu1 > 0.0


@pytest.mark.parametrize("grid_name, fields", [("grid2d", 20), ("grid3d", 28)])
def test_bundle_holds_each_field_once(request, grid_name, fields):
    """A Case 2 bundle holds grad u, grad d, Ad, omega d, N and dAd as
    real grid fields, once each: dim^2 + 3 dim + 3*3 + 1, with no A,
    omega, tension or d(x)d.  The penalty energy is a number, the mean of
    W(d), bit for bit, and so is the tension's squared norm."""
    grid = request.getfixturevalue(grid_name)
    st = smooth_state(grid, CASE2_SET, seed=39)
    b = constitutive(st)
    assert grid.dim ** 2 + 3 * grid.dim + 3 * 3 + 1 == fields
    real = sum(v.size for v in _bundle_arrays(b).values() if not np.iscomplexobj(v))
    assert real == fields * grid.npoints
    assert type(b.E_penalty) is float
    assert b.E_penalty == float(penalty(st.d, CASE2_SET.epsilon)[0].mean())
    assert type(b.tension_sq) is float


def _bundle_arrays(b):
    return {name: value for name, value in vars(b).items() if isinstance(value, np.ndarray)}


def _stepped(grid, coeffs, seed):
    """(a state the stepper built, the same fields without spectra)."""
    st = smooth_state(grid, coeffs, seed=seed)
    stepper = Stepper(grid, coeffs, TimeStepperConfig(dt=1e-3, t_end=0.01))
    stepped = stepper.step_pair(st)
    return stepped, stepped.with_fields(stepped.u, stepped.d, stepped.time)


@pytest.mark.parametrize("grid_name, coeffs", [("grid2d", from_alpha(1.0, 1.0)),
                                               ("grid3d", CASE2_SET)],
                         ids=["2d-alpha", "3d-case2"])
def test_constitutive_of_carried_spectra_matches_derived(request, monkeypatch,
                                                         grid_name, coeffs):
    """A stepped state's bundle, built from its carried box(band)
    coefficients, equals the bundle of the same fields (transformed forward
    onto box(band)) to rounding, and the bundle built on numpy's full
    transforms, gathered into and zero-padded from the boxes, byte for
    byte.  Both bundles hold u_hat and d_hat on box(band)."""
    grid = request.getfixturevalue(grid_name)
    stepped, derived = _stepped(grid, coeffs, seed=43)
    carried, from_fields = constitutive(stepped), constitutive(derived)
    for b in (carried, from_fields):
        assert b.u_hat.shape[-grid.dim:] == b.d_hat.shape[-grid.dim:] == grid.box(grid.band).shape
    for name, value in _bundle_arrays(from_fields).items():
        got = getattr(carried, name)
        scale = np.abs(value).max()
        assert np.abs(got - value).max() <= 1e-12 * scale, name
    seen = _full_transform_reference(monkeypatch)
    reference = _bundle_arrays(constitutive(stepped))
    assert seen == {grid.band}
    assert {k: v.tobytes() for k, v in reference.items()} == \
           {k: getattr(carried, k).tobytes() for k in reference}


@pytest.mark.parametrize("grid_name, coeffs, M", [
    ("grid2d", from_alpha(1.0, 1.0), None),
    ("grid2d", from_alpha(1.0, 1.0), 4),
    ("grid2d", from_alpha(1.0, 1.0), 12),
    ("grid2d", from_alpha(1.0, 1.0), 16),
    ("grid3d", CASE2_SET, None),
    ("grid3d", CASE2_SET, 7),
], ids=["2d", "2d-reg-M4", "2d-reg-M12", "2d-reg-M16", "3d-case2", "3d-case2-reg-M7"])
def test_field_built_state_reads_through_its_boxes(request, grid_name, coeffs, M):
    """A state built from fields has the bundle, byte for byte in every
    array and every number, of the same state carrying u's and d's box(band)
    coefficients: constitutive reads a state through box(band) and nothing
    else of its fields.  Under a regularised M the forces rhs_hat(., ., reg)
    of the two states agree byte for byte too, with [u]_M below band (M = 4)
    and above it (M = 12 and 16 at band 10, M = 7 at band 5)."""
    grid = request.getfixturevalue(grid_name)
    st = smooth_state(grid, coeffs, seed=41)
    carrying = FieldState(grid=grid, coeffs=coeffs, time=st.time, u=st.u, d=st.d,
                          spectra=(grid.fft(st.u, M=grid.band), grid.fft(st.d, M=grid.band)))
    got, want = constitutive(st), constitutive(carrying)
    assert grid.box_of(got.u_hat).M == grid.box_of(got.d_hat).M == grid.band
    for f in fields(ConstitutiveBundle):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and a.shape == b.shape, f.name
            assert a.tobytes() == b.tobytes(), f.name
        else:  # E_penalty and tension_sq, or the None of the mu1 block when mu1 = 0
            assert a == b, f.name
    if M is not None:
        reg = RegularizationConfig(M=M, r=4.0)
        forces = [[(f.shape, f.tobytes()) for f in rhs_hat(s, constitutive(s), reg)]
                  for s in (st, carrying)]
        assert forces[0] == forces[1]


def test_constitutive_reads_the_state_alone():
    """The bundle depends on the state alone: constitutive takes no
    regularisation, which only the forces and D_reg read."""
    assert list(inspect.signature(constitutive).parameters) == ["state"]


@pytest.mark.parametrize("grid_name, coeffs, forward", [
    ("grid2d", from_alpha(1.0, 1.0), 6),
    ("grid3d", CASE2_SET, 7),
], ids=["2d-alpha", "3d-case2"])
def test_step_from_carried_spectra_skips_two_forward_transforms(request, monkeypatch,
                                                               grid_name, coeffs, forward):
    """A step from the same fields as a stepped state makes 2 more forward
    transforms, those of u and d, and the same number of inverses: every
    gradient takes one inverse, from either state's box coefficients."""
    grid = request.getfixturevalue(grid_name)
    stepped, derived = _stepped(grid, coeffs, seed=47)
    stepper = Stepper(grid, coeffs, TimeStepperConfig(dt=1e-3, t_end=0.01))
    counts = _count_transforms(monkeypatch)
    stepper.step_pair(derived)
    from_fields = dict(counts)
    counts.update(fft=0, ifft=0)
    stepper.step_pair(stepped)
    assert from_fields["fft"] == forward
    assert counts == {"fft": forward - 2, "ifft": from_fields["ifft"]}
