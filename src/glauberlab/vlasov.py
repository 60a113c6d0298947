"""The mean-field kinetic equation and its fixed-step integrator.

    d rho_t / dt = -rho_t + z exp(-(phi * rho_t))

on the periodic grid, with * the lattice convolution.  The flow preserves
the positive cone and the a-priori bound ||rho_t||_inf <= max(||rho_0||_inf, z);
the integrator does not clamp undershoots, negativity beyond tolerance is
treated as an integrator defect and surfaces in linf_bound_check.

The exponential functional exp(sum_x rho(x) theta(x) dx) evaluated along a
solution is the mean-field evolution of a product-form state; chaos
preservation is the statement that the hierarchy flow under the limit
generator keeps states of exactly this form.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, MemoryGuardError, NonfiniteStateError
from .lattice import (
    MEMORY_GUARD_ENTRIES,
    GridField,
    PairPotential,
    convolution_kernel,
    convolve_values,
    displacement_matrix,  # unused here; kept importable for bench/spans.py
    field_linf_norm,
    require_same_grid,
)

SCHEMES = ("rk4", "euler")


@dataclass(frozen=True)
class VlasovConfig:
    """Integrator settings: activity, step, scheme and final time."""

    z: float
    dt: float
    scheme: str = "rk4"
    t_final: float = 0.0
    sample_stride: int = 1

    def __post_init__(self):
        if not (self.z > 0):
            raise InvalidArgumentError("z must be positive")
        if not (self.dt > 0 and math.isfinite(self.dt)):
            raise InvalidArgumentError("dt must be finite and positive")
        if self.scheme not in SCHEMES:
            raise InvalidArgumentError("scheme must be rk4 or euler")
        if not (self.t_final >= 0 and math.isfinite(self.t_final)):
            raise InvalidArgumentError("t_final must be finite and non-negative")
        if self.t_final > 0 and self.dt > self.t_final:
            raise InvalidArgumentError("dt must not exceed t_final")
        if not (self.sample_stride >= 1):
            raise InvalidArgumentError("sample_stride must be at least 1")


def _rhs(kernel, values, z, dx):
    """-v + z exp(-(phi * v)) on raw values, phi given by its convolution kernel."""
    return -values + z * np.exp(-convolve_values(kernel, values, dx))


def vlasov_rhs(rho: GridField, z, pot: PairPotential) -> GridField:
    """Right-hand side -rho + z exp(-(phi * rho))."""
    require_same_grid(rho, pot)
    with np.errstate(over="ignore"):  # an overflowing phi * rho is inf, its exp the right 0
        values = _rhs(convolution_kernel(pot), rho.values, z, pot.grid.spacing)
    return GridField(rho.grid, values)


def integrate(rho0: GridField, cfg: VlasovConfig, pot: PairPotential):
    """Integrate to cfg.t_final; returns (final field, trajectory samples).

    Trajectory samples are (t, values-copy) pairs recorded at t = 0, every
    sample_stride-th step, and the final time.  Raises NonfiniteStateError
    as soon as the state picks up a NaN or infinity, and MemoryGuardError
    before the first step when steps times sites exceeds the memory guard.
    """
    require_same_grid(rho0, pot)
    if np.any(rho0.values < 0):
        raise InvalidArgumentError("initial density must be non-negative")
    grid = rho0.grid
    steps = cfg.t_final / cfg.dt
    if steps * grid.n_sites > MEMORY_GUARD_ENTRIES:
        raise MemoryGuardError(
            "%.3g steps on %d sites exceed the guard of %d entries"
            % (steps, grid.n_sites, MEMORY_GUARD_ENTRIES)
        )
    kernel = convolution_kernel(pot)
    dx = grid.spacing
    z = cfg.z

    def rhs(values):
        return _rhs(kernel, values, z, dx)

    def euler(values, h):
        return values + h * rhs(values)

    def rk4(values, h):
        k1 = rhs(values)
        k2 = rhs(values + 0.5 * h * k1)
        k3 = rhs(values + 0.5 * h * k2)
        k4 = rhs(values + h * k3)
        return values + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    step = euler if cfg.scheme == "euler" else rk4
    n_full = int(math.floor(cfg.t_final / cfg.dt + 1e-9))
    remainder = cfg.t_final - n_full * cfg.dt
    if remainder < 1e-9 * max(cfg.dt, 1.0):
        remainder = 0.0
    last = n_full + (remainder > 0.0)  # the remainder step, if any, is step n_full + 1

    values = rho0.values.copy()
    trajectory = [(0.0, values.copy())]
    # overflow is diagnosed by the isfinite check below, not by numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, last + 1):
            h, t = (cfg.dt, i * cfg.dt) if i <= n_full else (remainder, cfg.t_final)
            values = step(values, h)
            if not np.all(np.isfinite(values)):
                raise NonfiniteStateError("state became non-finite at t=%.9g" % t)
            if i % cfg.sample_stride == 0 or i == last:
                trajectory.append((t, values.copy()))
    return GridField(grid, values), trajectory


def linf_bound_check(trajectory, rho0: GridField, z) -> bool:
    """True iff every sample obeys rho <= max(||rho_0||_inf, z) + 1e-9 and rho >= -1e-9."""
    bound = max(field_linf_norm(rho0), z) + 1e-9
    for _, values in trajectory:
        if float(np.max(values)) > bound or float(np.min(values)) < -1e-9:
            return False
    return True


def stationary_residual(rho: GridField, z, pot) -> float:
    """Sup-norm of the right-hand side; zero at fixed points."""
    return field_linf_norm(vlasov_rhs(rho, z, pot))
