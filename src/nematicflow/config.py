"""Run configuration: a single INI file with typed sections, exact round-trip.

Grammar (see README for the full key table): seven sections, scalar values
only, '#' comments.  Floats are written back with repr so parse(serialize(c))
== c holds exactly.  Coefficients come either from the alpha family

    [coefficients]
    alpha = 1.0
    nu = 1.0

or as the explicit eight Leslie values (lambda1, lambda2, mu1..mu6); mixing
the two styles is an error.
"""

from __future__ import annotations

import configparser
import hashlib
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .coeffs import LeslieCoefficients, from_alpha
from .errors import ConfigError, ParameterError
from .physics import FieldState, RegularizationConfig
from .solver import SCHEMES, TimeStepperConfig
from .spectral import SpectralGrid, load_snapshot, random_band_limited


@dataclass
class GridSection:
    dim: int = 2
    n: int = 64


@dataclass
class CoeffSection:
    alpha: float | None = None
    nu: float | None = None
    lambda1: float | None = None
    lambda2: float | None = None
    mu1: float | None = None
    mu2: float | None = None
    mu3: float | None = None
    mu4: float | None = None
    mu5: float | None = None
    mu6: float | None = None
    epsilon: float = 0.1


@dataclass
class ICSection:
    preset: str = "quiescent"
    amplitude: float = 1.0
    kmax: int = 4
    u_path: str | None = None
    d_path: str | None = None


@dataclass
class StepperSection:
    dt: float = 1e-3
    t_end: float = 0.1
    scheme: str = "semi-implicit-euler"
    max_vorticity_sup: float | None = None


@dataclass
class RegSection:
    enabled: bool = False
    m: int = 8
    r: float = 4.0
    n_modes: int | None = None


@dataclass
class DiagSection:
    cadence: int = 1
    snapshot_cadence: int = 0
    output_dir: str = "output"


@dataclass
class RunSection:
    seed: int = 0


@dataclass
class RunConfig:
    grid: GridSection = field(default_factory=GridSection)
    coefficients: CoeffSection = field(default_factory=CoeffSection)
    initial_condition: ICSection = field(default_factory=ICSection)
    stepper: StepperSection = field(default_factory=StepperSection)
    regularization: RegSection = field(default_factory=RegSection)
    diagnostics: DiagSection = field(default_factory=DiagSection)
    run: RunSection = field(default_factory=RunSection)


def _kind(annotation: str) -> str:
    """Value kind of a section field: its type name, with an 'opt' prefix for X | None."""
    base, _, rest = annotation.partition(" | ")
    return "opt" + base if rest == "None" else base


# section -> (dataclass, {key: kind}), both in declaration order
_SECTIONS = {
    sec.name: (sec.default_factory, {f.name: _kind(f.type) for f in fields(sec.default_factory)})
    for sec in fields(RunConfig)
}

PRESETS = ("quiescent", "taylor-green-uniform-director", "perturbed-director", "snapshot")


def _convert(section: str, key: str, raw: str, kind: str):
    raw = raw.strip()
    try:
        if kind == "int" or kind == "optint":
            return int(raw)
        if kind == "float" or kind == "optfloat":
            return float(raw)
        if kind == "bool":
            low = raw.lower()
            if low in ("true", "false"):
                return low == "true"
            raise ValueError(raw)
        return raw
    except ValueError:
        raise ConfigError(
            f"[{section}] {key}: expected {kind.removeprefix('opt')}, got {raw!r}"
        ) from None


def parse_config_text(text: str) -> RunConfig:
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as e:
        raise ConfigError(f"config parse error: {e}") from None

    cfg = RunConfig()
    for section in cp.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}]")
        cls, schema = _SECTIONS[section]
        values = {}
        for key, raw in cp.items(section):
            if key not in schema:
                raise ConfigError(f"[{section}] unknown key '{key}'")
            values[key] = _convert(section, key, raw, schema[key])
        setattr(cfg, section, cls(**{**asdict(getattr(cfg, section)), **values}))
    return cfg


def parse_config(path) -> RunConfig:
    try:
        with open(path, "r") as fh:
            text = fh.read()
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from None
    return parse_config_text(text)


def _fmt_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def serialize_config(cfg: RunConfig) -> str:
    """Canonical text form: fixed section and key order, None keys omitted."""
    lines = []
    for section, (cls, schema) in _SECTIONS.items():
        lines.append(f"[{section}]")
        obj = getattr(cfg, section)
        for key in schema:
            v = getattr(obj, key)
            if v is None:
                continue
            lines.append(f"{key} = {_fmt_value(v)}")
        lines.append("")
    return "\n".join(lines)


def config_sha256(cfg: RunConfig) -> str:
    return hashlib.sha256(serialize_config(cfg).encode()).hexdigest()


# -- builders: config sections -> live objects ----------------------------------


def build_coefficients(cfg: RunConfig) -> LeslieCoefficients:
    co = cfg.coefficients
    explicit_keys = ("lambda1", "lambda2", "mu1", "mu2", "mu3", "mu4", "mu5", "mu6")
    explicit = [k for k in explicit_keys if getattr(co, k) is not None]
    if co.alpha is not None:
        if explicit:
            raise ConfigError(
                "[coefficients] give either alpha/nu or the explicit eight values, not both"
            )
        nu = co.nu if co.nu is not None else 1.0
        return from_alpha(co.alpha, nu, epsilon=co.epsilon)
    if co.nu is not None:
        raise ConfigError("[coefficients] nu is only meaningful together with alpha")
    missing = [k for k in explicit_keys if getattr(co, k) is None]
    if missing:
        raise ConfigError(f"[coefficients] missing values: {', '.join(missing)}")
    return LeslieCoefficients(
        lambda1=co.lambda1, lambda2=co.lambda2, mu1=co.mu1, mu2=co.mu2,
        mu3=co.mu3, mu4=co.mu4, mu5=co.mu5, mu6=co.mu6, epsilon=co.epsilon,
    )


def build_grid(cfg: RunConfig) -> SpectralGrid:
    return SpectralGrid(cfg.grid.dim, cfg.grid.n)


def build_stepper_config(cfg: RunConfig) -> TimeStepperConfig:
    st = cfg.stepper
    if st.scheme not in SCHEMES:
        raise ConfigError(f"[stepper] scheme must be one of {SCHEMES}, got {st.scheme!r}")
    return TimeStepperConfig(dt=st.dt, t_end=st.t_end, scheme=st.scheme,
                             max_vorticity_sup=st.max_vorticity_sup)


def build_regularization(cfg: RunConfig) -> RegularizationConfig | None:
    rg = cfg.regularization
    if not rg.enabled:
        return None
    return RegularizationConfig(enabled=True, M=rg.m, r=rg.r, N_modes=rg.n_modes)


def taylor_green_velocity(grid: SpectralGrid, amplitude: float) -> np.ndarray:
    """u = amp (sin 2pi x cos 2pi y, -cos 2pi x sin 2pi y); 2D only."""
    if grid.dim != 2:
        raise ParameterError("taylor-green initial condition is 2D only")
    x = grid.coords()
    u = np.empty((2,) + grid.shape)
    u[0] = amplitude * np.sin(2.0 * np.pi * x[0]) * np.cos(2.0 * np.pi * x[1])
    u[1] = -amplitude * np.cos(2.0 * np.pi * x[0]) * np.sin(2.0 * np.pi * x[1])
    return u


def build_initial_state(cfg: RunConfig, grid: SpectralGrid | None = None,
                        coeffs: LeslieCoefficients | None = None) -> FieldState:
    """Materialize the configured initial condition (band-limited by design)."""
    if grid is None:
        grid = build_grid(cfg)
    if coeffs is None:
        coeffs = build_coefficients(cfg)
    ic = cfg.initial_condition
    e3 = np.zeros((3,) + grid.shape)
    e3[2] = 1.0
    time = 0.0

    if ic.preset == "quiescent":
        u = np.zeros((grid.dim,) + grid.shape)
        d = e3
    elif ic.preset == "taylor-green-uniform-director":
        u = taylor_green_velocity(grid, ic.amplitude)
        d = e3
    elif ic.preset == "perturbed-director":
        u = np.zeros((grid.dim,) + grid.shape)
        rng = np.random.default_rng(cfg.run.seed)
        delta = random_band_limited(grid, 3, ic.kmax, rng)
        d = e3 + ic.amplitude * delta
    elif ic.preset == "snapshot":
        if not ic.u_path or not ic.d_path:
            raise ConfigError("[initial_condition] snapshot preset needs u_path and d_path")
        u, t_u, meta_u = load_snapshot(ic.u_path)
        d, t_d, meta_d = load_snapshot(ic.d_path)
        if meta_u["dim"] != grid.dim or meta_u["n"] != grid.n:
            raise ConfigError(
                f"[initial_condition] u snapshot grid {meta_u['dim']}D n={meta_u['n']} "
                f"does not match configured {grid.dim}D n={grid.n}"
            )
        if meta_d["dim"] != grid.dim or meta_d["n"] != grid.n:
            raise ConfigError("[initial_condition] d snapshot grid does not match config")
        if meta_u["ncomp"] != grid.dim or meta_d["ncomp"] != 3:
            raise ConfigError(
                f"[initial_condition] expected {grid.dim}-component u and 3-component d, "
                f"got {meta_u['ncomp']} and {meta_d['ncomp']}"
            )
        if t_u != t_d:
            raise ConfigError(f"[initial_condition] snapshot times differ: {t_u} vs {t_d}")
        time = t_u
    else:
        raise ConfigError(
            f"[initial_condition] unknown preset {ic.preset!r}; choose from {PRESETS}"
        )
    return FieldState(grid=grid, coeffs=coeffs, time=time, u=u, d=d)
