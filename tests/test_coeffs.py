"""Coefficient constraints, regime classification, and the dissipation form."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nematicflow import (LeslieCoefficients, ParameterError, RegimeError,
                         RegimeReport, dissipation_form, eta_margin, from_alpha,
                         validate)
from nematicflow.coeffs import CONSTRAINTS


def test_from_alpha_endpoints():
    c = from_alpha(1.0, 1.0)
    assert c.lambda1 == -1.0
    assert c.lambda2 == 1.0
    assert c.mu1 == 0.0
    assert c.mu2 == -1.0
    assert c.mu3 == 0.0
    assert c.mu4 == 1.0
    assert c.mu5 == 1.0
    assert c.mu6 == 0.0

    c = from_alpha(0.0, 2.0)
    assert c.lambda2 == -1.0
    assert c.mu2 == 0.0
    assert c.mu3 == 1.0
    assert c.mu4 == 2.0
    assert c.mu5 == 0.0
    assert c.mu6 == 1.0


def test_from_alpha_midpoint_regime():
    rep = validate(from_alpha(0.5, 1.0))
    # lambda2 = 0: the case-1 inequality is 0 <= 0, the case-2 strict
    # inequality has nothing to be strict about (mu5 + mu6 = 0).
    assert rep.case1
    assert not rep.case2
    assert rep.admissible


@pytest.mark.parametrize("alpha", np.linspace(0.0, 1.0, 11).tolist())
@pytest.mark.parametrize("nu", [0.5, 1.0, 4.0])
def test_from_alpha_always_case1(alpha, nu):
    rep = validate(from_alpha(alpha, nu))
    assert rep.base_constraints_hold
    assert rep.parodi_holds
    assert rep.case1


def test_from_alpha_rejects_bad_nu():
    with pytest.raises(ParameterError):
        from_alpha(0.5, 0.0)
    with pytest.raises(ParameterError):
        from_alpha(0.5, -1.0)
    with pytest.raises(ParameterError):
        from_alpha(math.nan, 1.0)


def test_coefficients_reject_nonfinite():
    with pytest.raises(ParameterError):
        LeslieCoefficients(lambda1=-1.0, lambda2=0.0, mu1=0.0, mu2=-0.5,
                           mu3=0.5, mu4=math.inf, mu5=0.0, mu6=0.0)
    with pytest.raises(ParameterError):
        from_alpha(0.5, 1.0, epsilon=0.0)


def test_validate_names_violations():
    c = LeslieCoefficients(lambda1=1.0, lambda2=1.0, mu1=-0.5, mu2=-1.0,
                           mu3=0.0, mu4=0.0, mu5=1.0, mu6=0.0)
    rep = validate(c)
    names = [name for name, _ in rep.violations]
    assert "lambda1<0" in names
    assert "mu1>=0" in names
    assert "mu4>0" in names
    # lambda1 = mu2 - mu3 fails by exactly 2
    assert ("lambda1=mu2-mu3", 2.0) in rep.violations
    assert not rep.admissible


def test_constraint_table_matches_report_fields():
    """CONSTRAINTS lists the seven constraint flags in RegimeReport's field order."""
    flags = [f.name for f in dataclasses.fields(RegimeReport)][:7]
    assert [flag for flag, _, _ in CONSTRAINTS] == flags


def test_validate_identity_residual_values():
    c = LeslieCoefficients(lambda1=-1.0, lambda2=0.5, mu1=0.0, mu2=-0.5,
                           mu3=0.5, mu4=1.0, mu5=0.1, mu6=0.1)
    rep = validate(c)
    # lambda2 = mu5 - mu6 off by 0.5; Parodi off by |0 - 0| = 0 holds
    assert not rep.lambda2_identity
    assert ("lambda2=mu5-mu6", 0.5) in rep.violations
    assert rep.parodi_holds


CASE2_ONLY = LeslieCoefficients(lambda1=-1.0, lambda2=0.3, mu1=0.0, mu2=-0.5,
                                mu3=0.5, mu4=1.0, mu5=0.6, mu6=0.3)


def test_case2_without_parodi():
    rep = validate(CASE2_ONLY)
    assert rep.base_constraints_hold
    assert not rep.parodi_holds
    assert not rep.case1
    assert rep.case2
    assert rep.admissible


def test_case2_needs_strictly_positive_mu56():
    # mu5 + mu6 = 0 leaves no strict margin, so case 2 must report False.
    c = LeslieCoefficients(lambda1=-1.0, lambda2=0.0, mu1=0.0, mu2=-0.6,
                           mu3=0.4, mu4=1.0, mu5=0.0, mu6=0.0)
    rep = validate(c)
    assert not rep.case2


def test_dissipation_form_alpha_one(alpha_one):
    form = dissipation_form(alpha_one)
    # lambda2 - mu2 - mu3 = 1 - (-1) - 0 = 2
    assert (form.a_nn, form.a_na, form.a_aa) == (1.0, -2.0, 1.0)
    assert form.psd
    assert form.smaller_eigenvalue == pytest.approx(0.0, abs=1e-15)
    assert eta_margin(alpha_one) == 0.0


def test_dissipation_form_requires_base():
    bad = LeslieCoefficients(lambda1=1.0, lambda2=1.0, mu1=0.0, mu2=0.0,
                             mu3=-1.0, mu4=1.0, mu5=1.0, mu6=0.0)
    with pytest.raises(RegimeError):
        dissipation_form(bad)


def test_eta_margin_matches_eigenvalue_oracle():
    form = dissipation_form(CASE2_ONLY)
    mat = np.array([[form.a_nn, form.a_na / 2.0], [form.a_na / 2.0, form.a_aa]])
    lam_min = float(np.linalg.eigvalsh(mat)[0])
    assert eta_margin(CASE2_ONLY) == pytest.approx(lam_min, rel=1e-14)
    assert lam_min > 0.0


def test_eta_margin_rejects_indefinite_form():
    # Parodi holds but lambda2^2/(-lambda1) > mu5 + mu6: cross term dominates.
    c = LeslieCoefficients(lambda1=-1.0, lambda2=2.0, mu1=0.0, mu2=-1.5,
                           mu3=-0.5, mu4=1.0, mu5=1.5, mu6=-0.5)
    assert validate(c).parodi_holds
    with pytest.raises(RegimeError):
        eta_margin(c)


def _random_parodi_set(rng):
    """Random coefficients satisfying both lambda identities and Parodi.

    Parodi forces lambda2 = -(mu2 + mu3); the free choices are mu2, mu3
    (with mu2 < mu3 so lambda1 < 0), mu1, mu4, and s = mu5 + mu6 >= 0.
    """
    mu2 = rng.uniform(-2.0, 0.0)
    mu3 = mu2 + rng.uniform(0.1, 2.0)
    lam2 = -(mu2 + mu3)
    s = rng.uniform(0.0, 3.0)
    # keep clear of the psd boundary, where the two float paths of the
    # equivalence below may legitimately disagree within ulps
    lam1 = mu2 - mu3
    if s > 0.0 and 0.999 < lam2 ** 2 / (-lam1) / s < 1.001:
        s = 1.1 * lam2 ** 2 / (-lam1)
    return LeslieCoefficients(
        lambda1=lam1, lambda2=lam2, mu1=rng.uniform(0.0, 1.0), mu2=mu2,
        mu3=mu3, mu4=rng.uniform(0.1, 2.0), mu5=0.5 * (s + lam2),
        mu6=0.5 * (s - lam2),
    )


def test_parodi_psd_iff_case1():
    """Under Parodi, the dissipation form is psd exactly when case 1 holds."""
    rng = np.random.default_rng(42)
    n_case1 = 0
    for _ in range(1000):
        c = _random_parodi_set(rng)
        rep = validate(c)
        assert rep.parodi_holds
        form = dissipation_form(c)
        assert form.psd == rep.case1
        n_case1 += rep.case1
    # the draw exercises both branches
    assert 100 < n_case1 < 900


@settings(max_examples=200, deadline=None)
@given(alpha=st.floats(0.0, 1.0), nu=st.floats(1e-3, 1e3))
def test_from_alpha_property(alpha, nu):
    c = from_alpha(alpha, nu)
    rep = validate(c)
    assert rep.case1
    assert abs(c.lambda1 - (c.mu2 - c.mu3)) <= 1e-12
    assert abs(c.lambda2 - (c.mu5 - c.mu6)) <= 1e-12
    assert abs((c.mu2 + c.mu3) - (c.mu6 - c.mu5)) <= 1e-12
    # the family sits exactly on the case-1 boundary
    assert c.lambda2 ** 2 / (-c.lambda1) == pytest.approx(c.mu5 + c.mu6, abs=1e-12)


def test_as_dict_round_trip(alpha_one):
    d = alpha_one.as_dict()
    assert LeslieCoefficients(**d) == alpha_one
