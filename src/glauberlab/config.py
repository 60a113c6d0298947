"""Experiment configuration: line-oriented `key = value` text.

`#` starts a comment, blank lines are ignored, keys are dotted section
names from the table below, and unknown keys are rejected by name.  All
parse and validation failures raise ConfigError with the offending line
number where one applies.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError
from .hierarchy import ScaleParams
from .lattice import (
    Grid,
    GridField,
    PairPotential,
    gaussian_potential,
    make_grid,
    potential_from_samples,
    tophat_potential,
    zero_potential,
)
from .vlasov import SCHEMES, VlasovConfig

POTENTIAL_KINDS = ("zero", "gaussian", "tophat", "file")


@dataclass(frozen=True)
class ExperimentConfig:
    n_sites: int = 8
    length: float = 8.0
    potential_kind: str = "gaussian"
    potential_amplitude: float = 0.5
    potential_width: float = 1.0
    potential_path: str = ""
    z: float = 0.5
    epsilon: float = 1.0
    n_max: int = 3
    alpha: float = 0.5
    alpha0: float = 1.0
    m_max: int = 60
    tol: float = 1e-12
    t_final: float = 0.05
    substep_fraction: float = 0.9
    dt: float = 1e-3
    scheme: str = "rk4"
    sample_stride: int = 10
    initial_level: float = math.nan
    initial_cosine_amplitude: float = 0.0
    seed: int = 12345


_KEYS = {
    "grid.n_sites": ("n_sites", int),
    "grid.length": ("length", float),
    "potential.kind": ("potential_kind", str),
    "potential.amplitude": ("potential_amplitude", float),
    "potential.width": ("potential_width", float),
    "potential.path": ("potential_path", str),
    "model.z": ("z", float),
    "model.epsilon": ("epsilon", float),
    "truncation.n_max": ("n_max", int),
    "solver.alpha": ("alpha", float),
    "solver.alpha0": ("alpha0", float),
    "solver.m_max": ("m_max", int),
    "solver.tol": ("tol", float),
    "time.t_final": ("t_final", float),
    "time.substep_fraction": ("substep_fraction", float),
    "vlasov.dt": ("dt", float),
    "vlasov.scheme": ("scheme", str),
    "vlasov.sample_stride": ("sample_stride", int),
    "initial.level": ("initial_level", float),
    "initial.cosine_amplitude": ("initial_cosine_amplitude", float),
    "rng.seed": ("seed", int),
}


def _validate(cfg: ExperimentConfig):
    checks = [
        (cfg.n_sites >= 2, "grid.n_sites must be >= 2"),
        (cfg.length > 0, "grid.length must be positive"),
        (cfg.potential_kind in POTENTIAL_KINDS,
         "potential.kind must be one of %s" % (POTENTIAL_KINDS,)),
        (cfg.potential_amplitude >= 0, "potential.amplitude must be non-negative"),
        (cfg.potential_width > 0, "potential.width must be positive"),
        (cfg.z > 0, "model.z must be positive"),
        (cfg.epsilon >= 0, "model.epsilon must be non-negative"),
        (cfg.n_max >= 0, "truncation.n_max must be non-negative"),
        (0 < cfg.alpha < cfg.alpha0, "need 0 < solver.alpha < solver.alpha0"),
        (cfg.m_max >= 1, "solver.m_max must be >= 1"),
        (cfg.tol > 0, "solver.tol must be positive"),
        (cfg.t_final >= 0, "time.t_final must be non-negative"),
        (0 < cfg.substep_fraction < 1,
         "time.substep_fraction must lie in (0, 1)"),
        (cfg.dt > 0, "vlasov.dt must be positive"),
        (cfg.scheme in SCHEMES, "vlasov.scheme must be rk4 or euler"),
        (cfg.sample_stride >= 1, "vlasov.sample_stride must be >= 1"),
        (cfg.initial_cosine_amplitude >= 0,
         "initial.cosine_amplitude must be non-negative"),
        (cfg.potential_kind != "file" or bool(cfg.potential_path),
         "potential.kind = file requires potential.path"),
        (cfg.seed >= 0, "rng.seed must be non-negative"),
    ]
    for ok, message in checks:
        if not ok:
            raise ConfigError(message)
    if not math.isnan(cfg.initial_level) and cfg.initial_level < 0:
        raise ConfigError("initial.level must be non-negative")


def parse_config(path) -> ExperimentConfig:
    """Read a config file; missing keys keep their defaults."""
    cfg = ExperimentConfig()
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except (OSError, ValueError) as exc:  # a byte the locale cannot decode is a ValueError
        raise ConfigError("cannot read config file %s: %s" % (path, exc)) from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("line %d: expected `key = value`, got %r" % (lineno, raw.strip()))
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KEYS:
            raise ConfigError("line %d: unknown key '%s'" % (lineno, key))
        attr, typ = _KEYS[key]
        try:
            parsed = typ(value)
        except ValueError:
            raise ConfigError(
                "line %d: cannot parse value %r for key '%s'" % (lineno, value, key)
            ) from None
        if isinstance(parsed, float) and not math.isfinite(parsed):
            raise ConfigError(
                "line %d: value %r for key '%s' is not finite" % (lineno, value, key)
            )
        cfg = replace(cfg, **{attr: parsed})
    _validate(cfg)
    return cfg


def build_grid(cfg: ExperimentConfig) -> Grid:
    return make_grid(cfg.n_sites, cfg.length)


def build_potential(cfg: ExperimentConfig, grid: Grid) -> PairPotential:
    if cfg.potential_kind == "zero":
        return zero_potential(grid)
    if cfg.potential_kind == "gaussian":
        return gaussian_potential(grid, cfg.potential_amplitude, cfg.potential_width)
    if cfg.potential_kind == "tophat":
        return tophat_potential(grid, cfg.potential_amplitude, cfg.potential_width)
    try:
        with open(cfg.potential_path) as fh:
            values = [float(ln.strip()) for ln in fh if ln.strip()]
    except OSError as exc:
        raise ConfigError(
            "cannot read potential samples %s: %s" % (cfg.potential_path, exc)
        ) from None
    except ValueError:
        raise ConfigError(
            "potential file %s holds non-numeric lines" % cfg.potential_path
        ) from None
    return potential_from_samples(grid, np.asarray(values))


def build_initial_density(cfg: ExperimentConfig, grid: Grid) -> GridField:
    """Initial density level + cosine wobble; the level defaults to z."""
    level = cfg.z if math.isnan(cfg.initial_level) else cfg.initial_level
    positions = np.arange(grid.n_sites) * grid.spacing
    # x and L scaled by one power of two, so 2 pi x cannot overflow; the
    # scaling is exact, so the phase keeps its unscaled bits wherever
    # those stay normal
    e = math.frexp(grid.length)[1]
    with np.errstate(over="ignore"):  # an overflowing sum is GridField's invalid-argument
        values = level + cfg.initial_cosine_amplitude * np.cos(
            2.0 * math.pi * np.ldexp(positions, -e) / math.ldexp(grid.length, -e)
        )
    if np.any(values < 0):
        raise ConfigError("initial density dips below zero; lower the wobble")
    return GridField(grid, values)


def build_scale_params(cfg: ExperimentConfig) -> ScaleParams:
    return ScaleParams(cfg.alpha, cfg.alpha0, cfg.z)


def build_vlasov_config(cfg: ExperimentConfig) -> VlasovConfig:
    """The kinetic settings of every command that integrates the kinetic equation."""
    return VlasovConfig(cfg.z, cfg.dt, cfg.scheme, cfg.t_final, cfg.sample_stride)


def kind_from_epsilon(epsilon) -> float:  # kept importable for bench/workloads.py
    """The generator is selected by epsilon itself; 0 is the mean-field limit."""
    return float(epsilon)
