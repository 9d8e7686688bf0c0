"""Constitutive assembly: penalty, Leslie stress, and the right-hand sides."""

import numpy as np
import pytest

from nematicflow import (FieldState, LeslieCoefficients, ParameterError,
                         RegimeError, RegularizationConfig, SpectralGrid, channels,
                         constitutive, director_rhs,
                         ericksen_stress, from_alpha, leslie_stress,
                         momentum_rhs, penalty)
from nematicflow.physics import _visco_flux, mat_vec_director

from conftest import smooth_state

TWO_PI = 2.0 * np.pi


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


def test_constitutive_identity(grid2d, alpha_one):
    """lambda1 N + lambda2 Ad + (Lap d - grad_d W) = 0 by construction."""
    for seed in range(3):
        st = smooth_state(grid2d, alpha_one, seed=seed)
        b = constitutive(st)
        resid = alpha_one.lambda1 * b.N + alpha_one.lambda2 * b.Ad + b.tension
        assert grid2d.sup_norm(resid) < 1e-12


def test_constitutive_requires_negative_lambda1(grid2d):
    from nematicflow import LeslieCoefficients
    bad = LeslieCoefficients(lambda1=0.5, lambda2=0.0, mu1=0.0, mu2=0.0,
                             mu3=-0.5, mu4=1.0, mu5=0.0, mu6=0.0)
    st = smooth_state(grid2d, bad)
    with pytest.raises(RegimeError):
        constitutive(st)


def test_omega_antisymmetric_bitwise(grid2d, alpha_one):
    st = smooth_state(grid2d, alpha_one, seed=4)
    b = constitutive(st)
    assert np.max(np.abs(b.omega + b.omega.swapaxes(0, 1))) == 0.0
    assert np.max(np.abs(b.A - b.A.swapaxes(0, 1))) == 0.0
    assert np.max(np.abs(b.A + b.omega - b.grad_u)) < 1e-15


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


def test_leslie_stress_matches_bundle(grid2d, alpha_one):
    st = smooth_state(grid2d, alpha_one, seed=5)
    b = constitutive(st)
    sig = leslie_stress(grid2d, alpha_one, st.d, b.A, b.N, b.Ad)
    assert grid2d.sup_norm(sig - b.sigma) < 1e-12


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
    rhs = director_rhs(st)
    expect = np.zeros_like(d)
    expect[0] = -4.0 * np.pi ** 2 * delta * np.sin(TWO_PI * x[0])
    assert grid2d.sup_norm(rhs - expect) < 1e-8


def test_director_rhs_quiescent_zero(grid2d, alpha_one):
    d = np.zeros((3,) + grid2d.shape); d[2] = 1.0
    st = FieldState(grid=grid2d, coeffs=alpha_one, time=0.0,
                    u=np.zeros((2,) + grid2d.shape), d=d)
    rhs = director_rhs(st)
    assert grid2d.sup_norm(rhs) == 0.0
    mom = momentum_rhs(st)
    assert grid2d.sup_norm(mom) == 0.0


def test_momentum_reduces_to_navier_stokes(grid2d):
    """With d = e3 every director stress vanishes; the rhs must agree with an
    independently coded spectral Navier-Stokes operator."""
    c = from_alpha(0.5, 1.3)
    rng = np.random.default_rng(21)
    u = grid2d.dealias(grid2d.leray(rng.standard_normal((2,) + grid2d.shape)))
    d = np.zeros((3,) + grid2d.shape); d[2] = 1.0
    st = FieldState(grid=grid2d, coeffs=c, time=0.0, u=u, d=d)
    rhs = momentum_rhs(st)

    # independent assembly with raw numpy transforms
    g = grid2d
    gu = g.gradient(u)
    adv = np.einsum("i...,ij...->j...", u, gu)
    expect = g.leray(-g.dealias(adv)) + 0.5 * c.mu4 * g.laplacian(u)
    assert g.sup_norm(rhs - expect) < 1e-10


def test_regularization_config_validation():
    with pytest.raises(ParameterError):
        RegularizationConfig(M=0)
    with pytest.raises(ParameterError):
        RegularizationConfig(r=3.0)  # must exceed 10/3
    with pytest.raises(ParameterError):
        RegularizationConfig(M=16, N_modes=8)
    cfg = RegularizationConfig(M=8, r=4.0, N_modes=8)
    assert cfg.enabled


def test_visco_flux_constant_gradient(grid2d):
    G = np.zeros((2, 2) + grid2d.shape)
    G[0, 1] = 2.0
    out = _visco_flux(G, 4.0)
    # |G|^2 = 4, so |G|^(r-2) G has the single entry 4 * 2 = 8
    assert np.max(np.abs(out[0, 1] - 8.0)) < 1e-12
    assert np.max(np.abs(out[0, 0])) < 1e-12


def test_regularized_force_fixed_points(grid2d, alpha_one):
    """With u = 0 the regularized and plain momentum forces coincide, and the
    director rhs never sees the regularization at all."""
    st = smooth_state(grid2d, alpha_one, seed=8, u_amp=0.0)
    reg = RegularizationConfig(M=8, r=4.0)
    plain = momentum_rhs(st)
    regd = momentum_rhs(st, reg=reg)
    assert grid2d.sup_norm(plain - regd) < 1e-12


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
    resid = c.lambda1 * b.N + c.lambda2 * b.Ad + b.tension
    assert grid3d.sup_norm(resid) < 1e-12
    assert b.sigma.shape == (3, 3) + grid3d.shape
    rhs = momentum_rhs(st)
    assert grid3d.sup_norm(grid3d.divergence(rhs)) < 1e-9


CASE2_SET = LeslieCoefficients(lambda1=-1.0, lambda2=0.2, mu1=0.5, mu2=-0.5,
                               mu3=0.5, mu4=1.0, mu5=0.6, mu6=0.4)


@pytest.mark.parametrize("reg", [None, RegularizationConfig(M=4, r=4.0)],
                         ids=["plain", "regularised"])
@pytest.mark.parametrize("grid_name, coeffs", [("grid2d", from_alpha(1.0, 1.0)),
                                               ("grid3d", CASE2_SET)],
                         ids=["2d-alpha", "3d-case2"])
def test_semi_discrete_energy_law(request, grid_name, coeffs, reg):
    """<u, u_t> + <grad d, grad d_t> + <grad_d W, d_t> = -(sum of the general
    channels) to rounding: the spatial assembly balances the energy law exactly."""
    grid = request.getfixturevalue(grid_name)
    st = smooth_state(grid, coeffs, seed=31)
    u_t = momentum_rhs(st, reg=reg)
    d_t = director_rhs(st)
    _, gradW = penalty(st.d, coeffs.epsilon)
    rate = (grid.l2_inner(st.u, u_t)
            + grid.l2_inner(grid.gradient(st.d), grid.gradient(d_t))
            + grid.l2_inner(gradW, d_t))
    dissipation = channels(st, reg=reg).dissipation_general
    assert dissipation > 0.0
    assert abs(rate + dissipation) <= 1e-12 * dissipation


def _count_transforms(monkeypatch):
    counts = {"fft": 0, "ifft": 0}
    for name in counts:
        def counted(self, f, _orig=getattr(SpectralGrid, name), _name=name):
            counts[_name] += 1
            return _orig(self, f)
        monkeypatch.setattr(SpectralGrid, name, counted)
    return counts


@pytest.mark.parametrize("grid_name, coeffs, transforms", [
    ("grid2d", from_alpha(1.0, 1.0), 4),
    ("grid2d", CASE2_SET, 6),
    ("grid3d", CASE2_SET, 6),
], ids=["2d-alpha", "2d-case2", "3d-case2"])
def test_constitutive_stages_mu1_block_only_when_used(request, monkeypatch,
                                                     grid_name, coeffs, transforms):
    """u, d, grad_d W and Ad take 4 forward and 4 inverse transforms; d(x)d
    and dd : A add one each, and only when mu1 != 0."""
    grid = request.getfixturevalue(grid_name)
    st = smooth_state(grid, coeffs, seed=37)
    counts = _count_transforms(monkeypatch)
    b = constitutive(st)
    assert counts == {"fft": transforms, "ifft": transforms}
    if coeffs.mu1 == 0.0:
        assert b.dd is None and b.dAd is None
        assert channels(st, b).D_mu1 == 0.0
    else:
        assert b.dd.shape == (grid.dim, grid.dim) + grid.shape
        assert channels(st, b).D_mu1 > 0.0


@pytest.mark.parametrize("grid_name", ["grid2d", "grid3d"])
def test_leslie_stress_stages_mu1_block_bitwise(request, grid_name):
    """With mu1 != 0, leslie_stress staging d(x)d and dd : A itself gives the
    bundle's sigma bit for bit."""
    grid = request.getfixturevalue(grid_name)
    st = smooth_state(grid, CASE2_SET, seed=41)
    b = constitutive(st)
    assert np.array_equal(leslie_stress(grid, CASE2_SET, st.d, b.A, b.N, b.Ad), b.sigma)
