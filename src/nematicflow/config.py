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
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .coeffs import LeslieCoefficients, from_alpha
from .errors import ConfigError, ParameterError
from .physics import FieldState, RegularizationConfig
from .solver import TimeStepperConfig
from .spectral import (SpectralGrid, check_kmax, load_snapshot,
                       random_band_limited, read_snapshot_header)


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


@contextmanager
def _in_section(section: str):
    """Re-raise a constructor's ParameterError as a ConfigError naming the section."""
    try:
        yield
    except ParameterError as e:
        raise ConfigError(f"[{section}] {e}") from None


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
        with _in_section("coefficients"):
            return from_alpha(co.alpha, nu, epsilon=co.epsilon)
    if co.nu is not None:
        raise ConfigError("[coefficients] nu is only meaningful together with alpha")
    missing = [k for k in explicit_keys if getattr(co, k) is None]
    if missing:
        raise ConfigError(f"[coefficients] missing values: {', '.join(missing)}")
    with _in_section("coefficients"):
        return LeslieCoefficients(
            lambda1=co.lambda1, lambda2=co.lambda2, mu1=co.mu1, mu2=co.mu2,
            mu3=co.mu3, mu4=co.mu4, mu5=co.mu5, mu6=co.mu6, epsilon=co.epsilon,
        )


def build_grid(cfg: RunConfig) -> SpectralGrid:
    with _in_section("grid"):
        return SpectralGrid(cfg.grid.dim, cfg.grid.n)


def build_stepper_config(cfg: RunConfig) -> TimeStepperConfig:
    st = cfg.stepper
    with _in_section("stepper"):
        return TimeStepperConfig(dt=st.dt, t_end=st.t_end, scheme=st.scheme,
                                 max_vorticity_sup=st.max_vorticity_sup)


def build_regularization(cfg: RunConfig) -> RegularizationConfig | None:
    rg = cfg.regularization
    if not rg.enabled:
        return None
    with _in_section("regularization"):
        return RegularizationConfig(M=rg.m, r=rg.r, N_modes=rg.n_modes)


def build_sampling(cfg: RunConfig, cadence: int | None = None) -> tuple[int, int]:
    """([diagnostics] cadence, snapshot_cadence): sample every cadence >= 1
    steps, write snapshots every snapshot_cadence steps, or none when it is 0.
    cadence, when given, overrides the configured one, and an override below
    1 is reported as the run command's --cadence flag.  Snapshots are taken
    of sampled states, so snapshot_cadence must be a multiple of cadence."""
    dg = cfg.diagnostics
    cad, source = ((dg.cadence, "[diagnostics] cadence") if cadence is None
                   else (cadence, "--cadence"))
    if cad < 1:
        raise ConfigError(f"{source} must be >= 1, got {cad}")
    if dg.snapshot_cadence < 0:
        raise ConfigError(
            f"[diagnostics] snapshot_cadence must be >= 0, got {dg.snapshot_cadence}")
    if dg.snapshot_cadence % cad:
        raise ConfigError(f"[diagnostics] snapshot_cadence must be a multiple of the "
                          f"sampling cadence {cad}, got {dg.snapshot_cadence}")
    return cad, dg.snapshot_cadence


def taylor_green_velocity(grid: SpectralGrid, amplitude: float) -> np.ndarray:
    """u = amp (sin 2pi x cos 2pi y, -cos 2pi x sin 2pi y) on a 2D grid; the
    coordinates of a 3D grid do not unpack (the preset's check refuses it)."""
    x, y = grid.coords()
    u = np.empty((2,) + grid.shape)
    u[0] = amplitude * np.sin(2.0 * np.pi * x) * np.cos(2.0 * np.pi * y)
    u[1] = -amplitude * np.cos(2.0 * np.pi * x) * np.sin(2.0 * np.pi * y)
    return u


def check_initial_condition(cfg: RunConfig, grid: SpectralGrid) -> float:
    """Refuse the initial condition for every reason its config and grid
    decide, reading snapshot headers but no payload; return its start time."""
    ic = cfg.initial_condition
    with _in_section("initial_condition"):
        if ic.preset not in PRESETS:
            raise ParameterError(f"unknown preset {ic.preset!r}; choose from {PRESETS}")
        if ic.preset == "taylor-green-uniform-director" and grid.dim != 2:
            raise ParameterError("taylor-green initial condition is 2D only")
        elif ic.preset == "perturbed-director":
            check_kmax(grid, ic.kmax)
        elif ic.preset == "snapshot":
            if not ic.u_path or not ic.d_path:
                raise ParameterError("snapshot preset needs u_path and d_path")
            metas = [read_snapshot_header(path) for path in (ic.u_path, ic.d_path)]
            for name, meta, ncomp in zip("ud", metas, (grid.dim, 3)):
                if (meta["dim"], meta["n"], meta["ncomp"]) != (grid.dim, grid.n, ncomp):
                    raise ParameterError(f"{name} snapshot holds a {meta['ncomp']}-component "
                                         f"{meta['dim']}D n={meta['n']} field, expected {ncomp} "
                                         f"components on the configured {grid.dim}D n={grid.n} grid")
            if metas[0]["time"] != metas[1]["time"]:
                raise ParameterError(
                    f"snapshot times differ: {metas[0]['time']} vs {metas[1]['time']}")
            return metas[0]["time"]
    return 0.0


def build_initial_state(cfg: RunConfig, grid: SpectralGrid,
                        coeffs: LeslieCoefficients) -> FieldState:
    """Materialize the configured initial condition (band-limited by design)."""
    time = check_initial_condition(cfg, grid)
    ic = cfg.initial_condition
    e3 = np.reshape([0.0, 0.0, 1.0], (3,) + (1,) * grid.dim)  # broadcast over the grid

    with _in_section("initial_condition"):
        if ic.preset == "quiescent":
            u = np.zeros((grid.dim,) + grid.shape)
            d = np.broadcast_to(e3, (3,) + grid.shape).copy()
        elif ic.preset == "taylor-green-uniform-director":
            u = taylor_green_velocity(grid, ic.amplitude)
            d = np.broadcast_to(e3, (3,) + grid.shape).copy()
        elif ic.preset == "perturbed-director":
            u = np.zeros((grid.dim,) + grid.shape)
            rng = np.random.default_rng(cfg.run.seed)
            d = random_band_limited(grid, 3, ic.kmax, rng)
            d *= ic.amplitude
            d += e3
        else:  # snapshot
            u, d = load_snapshot(ic.u_path)[0], load_snapshot(ic.d_path)[0]
        return FieldState(grid=grid, coeffs=coeffs, time=time, u=u, d=d)
