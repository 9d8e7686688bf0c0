"""Constitutive assembly: penalty, Leslie stress, and the right-hand sides."""

import tracemalloc

import numpy as np
import pytest

from nematicflow import (FieldState, LeslieCoefficients, ParameterError,
                         RegimeError, RegularizationConfig, SpectralGrid, Stepper,
                         TimeStepperConfig, channels, constitutive, director_rhs,
                         ericksen_stress, from_alpha, leslie_stress,
                         momentum_rhs, penalty)
from nematicflow import physics
from nematicflow.physics import _momentum_force_hat, _visco_flux, mat_vec_director

from conftest import _full_transform_reference, smooth_state

TWO_PI = 2.0 * np.pi
CASE2_SET = LeslieCoefficients(lambda1=-1.0, lambda2=0.2, mu1=0.5, mu2=-0.5,
                               mu3=0.5, mu4=1.0, mu5=0.6, mu6=0.4)


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


def _traced(kernel, *args):
    """(kernel(*args), the traced peak of the call in bytes)."""
    tracemalloc.start()
    try:
        out = kernel(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak


@pytest.mark.parametrize("dim, n", [(2, 64), (2, 128), (3, 32)])
def test_contraction_kernels_match_loops_bitwise(dim, n):
    """mat_vec_director (of G and of the view G^T) and every entry of
    ericksen_stress give the bytes of the per-entry multiply-and-add loops,
    summing in index order, and each allocates at most its output plus one
    grid field."""
    shape = (n,) * dim
    rng = np.random.default_rng(n + dim)
    G = rng.standard_normal((dim, dim) + shape)
    d = rng.standard_normal((3,) + shape)
    grad_d = rng.standard_normal((dim, 3) + shape)
    field = 8 * n ** dim

    for M in (G, G.swapaxes(0, 1)):
        want = np.zeros((3,) + shape)
        for i in range(dim):
            want[i] = M[i, 0] * d[0]
            for j in range(1, dim):
                want[i] += M[i, j] * d[j]
        got, peak = _traced(mat_vec_director, M, d)
        assert got.tobytes() == want.tobytes()
        assert peak <= 4 * field, peak / field  # 3 components

    got, peak = _traced(ericksen_stress, grad_d)
    for i, j in np.ndindex(dim, dim):
        want = grad_d[i, 0] * grad_d[j, 0]
        for c in range(1, 3):
            want += grad_d[i, c] * grad_d[j, c]
        assert got[i, j].tobytes() == want.tobytes(), (i, j)
    assert peak <= (dim * dim + 1) * field, peak / field


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
    regularised scheme's advecting [u]_M and monitor flux."""
    g, c, u = st.grid, st.coeffs, st.u
    A = _strain(b)
    stress = (leslie_stress(g, c, st.d, A, b.N, b.Ad, b.dd, b.dAd) - c.mu4 * A
              - ericksen_stress(b.grad_d))
    if reg is None:
        stress -= np.einsum("i...,j...->ij...", u, u)
    else:
        u_M = g.truncate_modes(u, reg.M)
        stress += _visco_flux(b.grad_u, reg.r) / reg.M - np.einsum("i...,j...->ij...", u_M, u)
    return g.div_hat(g.fft(stress, M=g.band))


def test_leslie_stress_matches_bundle(grid2d, grid3d, alpha_one):
    """The momentum force, built entry by entry in one buffer from the bundle,
    equals the divergence of the reference stresses to rounding: 2D and 3D,
    mu1 = 0 and mu1 != 0, plain and regularised."""
    for grid in (grid2d, grid3d):
        for coeffs in (alpha_one, CASE2_SET):
            st = smooth_state(grid, coeffs, seed=5)
            b = constitutive(st)
            for reg in (None, RegularizationConfig(M=4, r=4.0)):
                want = _reference_force_hat(st, b, reg)
                got = _momentum_force_hat(st, b, reg)
                case = (grid.dim, coeffs.mu1, reg)
                assert got.shape == want.shape, case
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), case


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
    for bad in ({"M": 2.5}, {"N_modes": 8.5}):
        with pytest.raises(ParameterError, match="must be an integer"):
            RegularizationConfig(**bad)
    RegularizationConfig(M=8, r=4.0, N_modes=8)
    RegularizationConfig(M=np.int64(4), N_modes=np.int64(8))


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
    assert leslie_stress(grid3d, c, st.d, _strain(b), b.N, b.Ad).shape == (3, 3) + grid3d.shape
    rhs = momentum_rhs(st)
    assert grid3d.sup_norm(grid3d.divergence(rhs)) < 1e-9


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
        def counted(self, *args, _orig=getattr(SpectralGrid, name), _name=name, **kwargs):
            counts[_name] += 1
            return _orig(self, *args, **kwargs)
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
        assert b.dd.shape == (grid.dim * (grid.dim + 1) // 2,) + grid.shape
        assert channels(st, b).D_mu1 > 0.0


@pytest.mark.parametrize("grid_name, fields", [("grid2d", 26), ("grid3d", 37)])
def test_bundle_holds_each_field_once(request, grid_name, fields):
    """A Case 2 bundle holds grad u, grad d, Ad, omega d, the tension, N, the
    distinct entries of d(x)d and dAd as real grid fields, once each:
    dim^2 + 3 dim + 4*3 + npairs + 1, with no A, omega or full dd block.
    The penalty energy is a number, the mean of W(d), bit for bit."""
    grid = request.getfixturevalue(grid_name)
    st = smooth_state(grid, CASE2_SET, seed=39)
    b = constitutive(st)
    npairs = grid.dim * (grid.dim + 1) // 2
    assert grid.dim ** 2 + 3 * grid.dim + 4 * 3 + npairs + 1 == fields
    real = sum(v.size for v in _bundle_arrays(b).values() if not np.iscomplexobj(v))
    assert real == fields * grid.npoints
    assert type(b.E_penalty) is float
    assert b.E_penalty == float(penalty(st.d, CASE2_SET.epsilon)[0].mean())


@pytest.mark.parametrize("grid_name", ["grid2d", "grid3d"])
def test_leslie_stress_stages_mu1_block_bitwise(request, grid_name):
    """With mu1 != 0, leslie_stress staging d(x)d and dd : A itself from A
    gives the stress from the bundle's dd and dAd, contracted from grad u,
    bit for bit."""
    grid = request.getfixturevalue(grid_name)
    st = smooth_state(grid, CASE2_SET, seed=41)
    b = constitutive(st)
    A = _strain(b)
    assert np.array_equal(leslie_stress(grid, CASE2_SET, st.d, A, b.N, b.Ad),
                          leslie_stress(grid, CASE2_SET, st.d, A, b.N, b.Ad, b.dd, b.dAd))


def _bundle_arrays(b):
    return {name: value for name, value in vars(b).items() if isinstance(value, np.ndarray)}


def _stepped(grid, coeffs, seed):
    """(a state the stepper built, the same fields without spectra)."""
    st = smooth_state(grid, coeffs, seed=seed)
    stepper = Stepper(grid, coeffs, TimeStepperConfig(dt=1e-3, t_end=0.01))
    stepped, _ = stepper.step_pair(st)
    return stepped, stepped.with_fields(stepped.u, stepped.d, stepped.time)


@pytest.mark.parametrize("grid_name, coeffs", [("grid2d", from_alpha(1.0, 1.0)),
                                               ("grid3d", CASE2_SET)],
                         ids=["2d-alpha", "3d-case2"])
def test_constitutive_of_carried_spectra_matches_derived(request, monkeypatch,
                                                         grid_name, coeffs):
    """A stepped state's bundle, built from its carried box(band)
    coefficients, equals the bundle of the same fields (full half spectrum)
    to rounding, and the bundle built on numpy's full transforms, gathered
    into and zero-padded from the boxes, byte for byte."""
    grid = request.getfixturevalue(grid_name)
    stepped, derived = _stepped(grid, coeffs, seed=43)
    carried, from_fields = constitutive(stepped), constitutive(derived)
    for b, shape in ((carried, grid.box(grid.band).shape), (from_fields, grid.hshape)):
        assert b.u_hat.shape[-grid.dim:] == b.d_hat.shape[-grid.dim:] == shape
    for name, value in _bundle_arrays(from_fields).items():
        got = getattr(carried, name)
        if np.iscomplexobj(got):
            got = grid.to_box(got, grid.box_of(value).M)
        scale = np.abs(value).max()
        assert np.abs(got - value).max() <= 1e-12 * scale, name
    seen = _full_transform_reference(monkeypatch)
    reference = _bundle_arrays(constitutive(stepped))
    assert seen == {grid.band}
    assert {k: v.tobytes() for k, v in reference.items()} == \
           {k: getattr(carried, k).tobytes() for k in reference}


@pytest.mark.parametrize("grid_name, coeffs, forward", [
    ("grid2d", from_alpha(1.0, 1.0), 6),
    ("grid3d", CASE2_SET, 8),
], ids=["2d-alpha", "3d-case2"])
def test_step_from_carried_spectra_skips_two_forward_transforms(request, monkeypatch,
                                                               grid_name, coeffs, forward):
    """A step from a stepped state makes 2 fewer forward transforms than a
    step from the same fields, and as many inverses."""
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
