"""Experiment configuration: line-oriented `key = value` text.

Files are read as UTF-8, up to READ_CAP characters.  `#` starts a comment,
blank lines are ignored, keys are the dotted names that the ExperimentConfig
fields state, and unknown keys are rejected by name.  All parse and
validation failures raise ConfigError, with the line number where one applies.
"""

import math
from dataclasses import dataclass, field, fields, replace

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
READ_CAP = 2**20  # characters read from one config or potential sample file

# a value rule: the text after `<key> must`, and the predicate a value passes
_POSITIVE = ("be positive", lambda v: v > 0)
_NON_NEGATIVE = ("be non-negative", lambda v: not v < 0)  # an unset initial.level, NaN, passes


def _key(name, default, rule=None):
    """Field of key `name` and its rule; no `from __future__ import annotations`: the type parses."""
    return field(default=default, metadata={"key": name, "rule": rule})


@dataclass(frozen=True)
class ExperimentConfig:
    """One field per config key; the field's annotation parses the value."""

    n_sites: int = _key("grid.n_sites", 8, ("be >= 2", lambda v: v >= 2))
    length: float = _key("grid.length", 8.0, _POSITIVE)
    potential_kind: str = _key("potential.kind", "gaussian",
                               ("be one of %s" % (POTENTIAL_KINDS,), POTENTIAL_KINDS.__contains__))
    potential_amplitude: float = _key("potential.amplitude", 0.5, _NON_NEGATIVE)
    potential_width: float = _key("potential.width", 1.0, _POSITIVE)
    potential_path: str = _key("potential.path", "")
    z: float = _key("model.z", 0.5, _POSITIVE)
    epsilon: float = _key("model.epsilon", 1.0, _NON_NEGATIVE)
    n_max: int = _key("truncation.n_max", 3, _NON_NEGATIVE)
    alpha: float = _key("solver.alpha", 0.5)
    alpha0: float = _key("solver.alpha0", 1.0)
    m_max: int = _key("solver.m_max", 60, ("be >= 1", lambda v: v >= 1))
    tol: float = _key("solver.tol", 1e-12, _POSITIVE)
    t_final: float = _key("time.t_final", 0.05, _NON_NEGATIVE)
    substep_fraction: float = _key("time.substep_fraction", 0.9,
                                   ("lie in (0, 1)", lambda v: 0 < v < 1))
    dt: float = _key("vlasov.dt", 1e-3, _POSITIVE)
    scheme: str = _key("vlasov.scheme", "rk4", ("be rk4 or euler", SCHEMES.__contains__))
    sample_stride: int = _key("vlasov.sample_stride", 10, ("be >= 1", lambda v: v >= 1))
    initial_level: float = _key("initial.level", math.nan, _NON_NEGATIVE)
    initial_cosine_amplitude: float = _key("initial.cosine_amplitude", 0.0, _NON_NEGATIVE)
    seed: int = _key("rng.seed", 12345, _NON_NEGATIVE)


_KEYS = {f.metadata["key"]: f for f in fields(ExperimentConfig)}


def _validate(cfg: ExperimentConfig):
    """Raise ConfigError for the first broken rule: each field's `<key> must <rule>` in
    field order, then 0 < solver.alpha < solver.alpha0, then potential.kind = file's path."""
    for key, spec in _KEYS.items():
        rule = spec.metadata["rule"]
        if rule and not rule[1](getattr(cfg, spec.name)):
            raise ConfigError("%s must %s" % (key, rule[0]))
    if not 0 < cfg.alpha < cfg.alpha0:
        raise ConfigError("need 0 < solver.alpha < solver.alpha0")
    if cfg.potential_kind == "file" and not cfg.potential_path:
        raise ConfigError("potential.kind = file requires potential.path")


def _read_lines(path, what):
    """readlines() of UTF-8 file `path`, in chunks; ConfigError past READ_CAP characters."""
    lines, left = [], READ_CAP + 1
    with open(path, encoding="utf-8") as fh:
        while left and (line := fh.readline(left)):
            lines.append(line)
            left -= len(line)
    if not left:
        raise ConfigError("%s %s exceeds %d characters" % (what, path, READ_CAP))
    return lines


def parse_config(path) -> ExperimentConfig:
    """Read a config file; missing keys keep their defaults."""
    cfg = ExperimentConfig()
    try:
        lines = _read_lines(path, "config file")
    except (OSError, ValueError) as exc:  # a byte that is not UTF-8 is a ValueError
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
        spec = _KEYS[key]
        try:
            parsed = spec.type(value)
        except ValueError:
            raise ConfigError(
                "line %d: cannot parse value %r for key '%s'" % (lineno, value, key)
            ) from None
        if isinstance(parsed, float) and not math.isfinite(parsed):
            raise ConfigError(
                "line %d: value %r for key '%s' is not finite" % (lineno, value, key)
            )
        cfg = replace(cfg, **{spec.name: parsed})
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
        lines = _read_lines(cfg.potential_path, "potential file")
        values = [float(ln.strip()) for ln in lines if ln.strip()]
    except (OSError, UnicodeDecodeError) as exc:  # a ValueError, so caught before the next
        raise ConfigError(
            "cannot read potential samples %s: %s" % (cfg.potential_path, exc)
        ) from None
    except ValueError:
        raise ConfigError(
            "potential file %s holds non-numeric lines" % cfg.potential_path
        ) from None
    if len(values) != grid.n_sites:
        raise ConfigError(
            "potential file %s holds %d samples, need grid.n_sites = %d"
            % (cfg.potential_path, len(values), grid.n_sites)
        )
    if not all(map(math.isfinite, values)):
        raise ConfigError("potential file %s holds non-finite samples" % cfg.potential_path)
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
