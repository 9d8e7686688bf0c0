"""Leslie coefficient sets, admissibility checks, dissipation regime classification.

The six Leslie viscosities mu1..mu6 together with lambda1 = mu2 - mu3 and
lambda2 = mu5 - mu6 control the stress and the director relaxation.  A set is
physically usable when

    lambda1 < 0,   mu1 >= 0,   mu4 > 0,   mu5 + mu6 >= 0,

and the two lambda identities hold.  On top of that the solver distinguishes

    case 1:  Parodi relation mu2 + mu3 = mu6 - mu5 holds and
             lambda2^2 / (-lambda1) <= mu5 + mu6     (closable energy law),
    case 2:  |lambda2 - mu2 - mu3| < 2 sqrt(-lambda1) sqrt(mu5 + mu6)
             (strict dissipation without Parodi).

Equalities are checked to an absolute tolerance, 1e-12 by default.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields

from .errors import ParameterError, RegimeError

EQUALITY_TOL = 1e-12


@dataclass(frozen=True)
class LeslieCoefficients:
    """One material: Leslie viscosities plus the penalization width epsilon."""

    lambda1: float
    lambda2: float
    mu1: float
    mu2: float
    mu3: float
    mu4: float
    mu5: float
    mu6: float
    epsilon: float = 0.1

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if not isinstance(v, (int, float)) or not math.isfinite(v):
                raise ParameterError(f"coefficient {f.name} must be finite, got {v!r}")
            object.__setattr__(self, f.name, float(v))
        if self.epsilon <= 0.0:
            raise ParameterError(f"epsilon must be positive, got {self.epsilon}")

    def as_dict(self) -> dict[str, float]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def from_alpha(alpha: float, nu: float, epsilon: float = 0.1) -> LeslieCoefficients:
    """One-parameter family used throughout the tests.

    lambda1 = -1, lambda2 = 2*alpha - 1, mu1 = 0, mu2 = -alpha, mu3 = 1 - alpha,
    mu4 = nu, mu5 = alpha*(2*alpha - 1), mu6 = (alpha - 1)*(2*alpha - 1).

    Satisfies Parodi identically; for alpha in [0, 1] and nu > 0 it lands in
    case 1 (lambda2^2/(-lambda1) = mu5 + mu6 exactly).
    """
    if not math.isfinite(alpha) or not math.isfinite(nu):
        raise ParameterError("alpha and nu must be finite")
    if nu <= 0.0:
        raise ParameterError(f"nu must be positive, got {nu}")
    lam2 = 2.0 * alpha - 1.0
    return LeslieCoefficients(
        lambda1=-1.0,
        lambda2=lam2,
        mu1=0.0,
        mu2=-alpha,
        mu3=1.0 - alpha,
        mu4=nu,
        mu5=alpha * lam2,
        mu6=(alpha - 1.0) * lam2,
        epsilon=epsilon,
    )


# One entry per constraint, in RegimeReport's field order: (report flag,
# violation name, validate label).  The first six are the base constraints.
CONSTRAINTS = (
    ("lambda1_negative", "lambda1<0", "lambda1 < 0"),
    ("mu1_nonnegative", "mu1>=0", "mu1 >= 0"),
    ("mu4_positive", "mu4>0", "mu4 > 0"),
    ("mu56_nonnegative", "mu5+mu6>=0", "mu5 + mu6 >= 0"),
    ("lambda1_identity", "lambda1=mu2-mu3", "lambda1 = mu2 - mu3"),
    ("lambda2_identity", "lambda2=mu5-mu6", "lambda2 = mu5 - mu6"),
    ("parodi_holds", "mu2+mu3=mu6-mu5", "Parodi mu2 + mu3 = mu6 - mu5"),
)


@dataclass(frozen=True)
class RegimeReport:
    """Outcome of validate(): one flag per CONSTRAINTS entry plus the regime calls.

    violations lists (name, residual) pairs for every failed constraint, where
    residual is the magnitude by which it fails.
    """

    lambda1_negative: bool
    mu1_nonnegative: bool
    mu4_positive: bool
    mu56_nonnegative: bool
    lambda1_identity: bool
    lambda2_identity: bool
    parodi_holds: bool
    case1: bool
    case2: bool
    violations: tuple[tuple[str, float], ...]

    @property
    def base_constraints_hold(self) -> bool:
        """lambda1 < 0, mu1 >= 0, mu4 > 0, mu5+mu6 >= 0 and both lambda identities."""
        return all(getattr(self, flag) for flag, _, _ in CONSTRAINTS[:6])

    @property
    def admissible(self) -> bool:
        return self.case1 or self.case2

    def as_dict(self) -> dict:
        return {**asdict(self), "violations": [list(v) for v in self.violations]}


def validate(c: LeslieCoefficients, tol: float = EQUALITY_TOL) -> RegimeReport:
    """Check the sign constraints, the lambda identities, Parodi, and classify."""
    if tol < 0.0 or not math.isfinite(tol):
        raise ParameterError(f"tol must be a finite nonnegative number, got {tol}")

    s56 = c.mu5 + c.mu6
    r_l1 = abs(c.lambda1 - (c.mu2 - c.mu3))
    r_l2 = abs(c.lambda2 - (c.mu5 - c.mu6))
    r_parodi = abs((c.mu2 + c.mu3) - (c.mu6 - c.mu5))
    # (holds, residual) per CONSTRAINTS entry
    checks = (
        (c.lambda1 < 0.0, max(0.0, c.lambda1)),
        (c.mu1 >= 0.0, -c.mu1),
        (c.mu4 > 0.0, max(0.0, -c.mu4)),
        (s56 >= 0.0, -s56),
        (r_l1 <= tol, r_l1),
        (r_l2 <= tol, r_l2),
        (r_parodi <= tol, r_parodi),
    )
    flags = {flag: ok for (flag, _, _), (ok, _) in zip(CONSTRAINTS, checks)}
    violations = tuple((name, r) for (_, name, _), (ok, r) in zip(CONSTRAINTS, checks) if not ok)
    base = all(ok for ok, _ in checks[:6])

    case1 = False
    case2 = False
    if base:
        # case 1 needs Parodi plus lambda2^2/(-lambda1) <= mu5+mu6 (tol slack on
        # the inequality so exact-equality presets classify as case 1).
        if flags["parodi_holds"] and c.lambda2 ** 2 / (-c.lambda1) <= s56 + tol:
            case1 = True
        # case 2 is a strict inequality, demoted to a tol margin; mu5+mu6 = 0
        # leaves nothing strict to satisfy, so it reports False there.
        if s56 > 0.0:
            gap = 2.0 * math.sqrt(-c.lambda1) * math.sqrt(s56)
            if abs(c.lambda2 - c.mu2 - c.mu3) < gap - tol:
                case2 = True

    return RegimeReport(**flags, case1=case1, case2=case2, violations=violations)


@dataclass(frozen=True)
class DissipationForm:
    """Quadratic form q(N, Ad) = a_nn |N|^2 + a_na <N, Ad> + a_aa |Ad|^2.

    This is the dissipation rate density produced by the director channels of
    the Leslie stress after the energy-law contractions.
    """

    a_nn: float
    a_na: float
    a_aa: float

    @property
    def psd(self) -> bool:
        """Positive semidefinite iff a_na^2 <= 4 a_nn a_aa (with a_nn, a_aa >= 0)."""
        return self.a_nn >= 0.0 and self.a_aa >= 0.0 and self.a_na ** 2 <= 4.0 * self.a_nn * self.a_aa

    @property
    def smaller_eigenvalue(self) -> float:
        """Smaller eigenvalue of [[a_nn, a_na/2], [a_na/2, a_aa]]."""
        tr = self.a_nn + self.a_aa
        disc = math.hypot(self.a_nn - self.a_aa, self.a_na)
        return 0.5 * (tr - disc)


def dissipation_form(c: LeslieCoefficients, tol: float = EQUALITY_TOL) -> DissipationForm:
    """Coefficients of the cross-term dissipation form for an admissible base set.

    a_nn = -lambda1, a_na = -(lambda2 - mu2 - mu3), a_aa = mu5 + mu6.
    Raises RegimeError unless the base constraints hold.
    """
    rep = validate(c, tol)
    if not rep.base_constraints_hold:
        bad = ", ".join(name for name, _ in rep.violations)
        raise RegimeError(f"base coefficient constraints violated: {bad}")
    return DissipationForm(
        a_nn=-c.lambda1,
        a_na=-(c.lambda2 - c.mu2 - c.mu3),
        a_aa=c.mu5 + c.mu6,
    )


def eta_margin(c: LeslieCoefficients, tol: float = EQUALITY_TOL) -> float:
    """Coercivity margin eta >= 0 of the dissipation form.

    Sharp value: the smaller eigenvalue of the symmetrized form matrix, so
    q(N, Ad) >= eta (|N|^2 + |Ad|^2) pointwise.  Returns 0 exactly in the
    semidefinite-but-not-definite case.  Raises RegimeError if the form is
    not positive semidefinite.
    """
    form = dissipation_form(c, tol)
    if not form.psd:
        raise RegimeError(
            "dissipation form is not positive semidefinite: "
            f"a_nn={form.a_nn}, a_na={form.a_na}, a_aa={form.a_aa}"
        )
    return max(0.0, form.smaller_eigenvalue)
