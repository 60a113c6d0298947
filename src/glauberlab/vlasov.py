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

The integrator writes every step into N-vectors one run owns, with the
bits of the textbook expression form; phi = 0 has an empty band, whose
convolution is a fill with zeros.
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
        if not (0 < self.z < math.inf):
            raise InvalidArgumentError("z must be finite and positive")
        if not (self.dt > 0 and math.isfinite(self.dt)):
            raise InvalidArgumentError("dt must be finite and positive")
        if self.scheme not in SCHEMES:
            raise InvalidArgumentError("scheme must be rk4 or euler")
        if not (self.t_final >= 0 and math.isfinite(self.t_final)):
            raise InvalidArgumentError("t_final must be finite and non-negative")
        if self.t_final > 0 and self.dt > self.t_final:
            raise InvalidArgumentError("dt must not exceed t_final")
        if not 1 <= self.sample_stride < math.inf or int(self.sample_stride) != self.sample_stride:
            raise InvalidArgumentError("sample_stride must be an integer >= 1")


def _rhs(kernel, values, z, dx, out=None):
    """-v + z exp(-(phi * v)) on raw values, phi given by its convolution kernel.

    Written into out when given, as z e - v: the bits of -v + z e.
    """
    out = convolve_values(kernel, values, dx, out)
    np.negative(out, out=out)
    np.exp(out, out=out)
    out *= z
    out -= values
    return out


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
    Beside the state the run owns five N-vectors, k1..k4 and the stage
    argument, written in place by every step; rho0 is not written, and
    every sample is a copy.
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
    values = rho0.values.copy()
    k1, k2, k3, k4, stage = (np.empty_like(values) for _ in range(5))
    n_full = int(math.floor(cfg.t_final / cfg.dt + 1e-9))
    remainder = cfg.t_final - n_full * cfg.dt
    if remainder < 1e-9 * cfg.dt:
        remainder = 0.0
    last = n_full + (remainder > 0.0)  # the remainder step, if any, is step n_full + 1

    trajectory = [(0.0, values.copy())]
    # overflow is diagnosed by the isfinite check below, not by numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, last + 1):
            h, t = (cfg.dt, i * cfg.dt) if i <= n_full else (remainder, cfg.t_final)
            _rhs(kernel, values, z, dx, k1)
            if cfg.scheme == "euler":  # values + h k1
                k1 *= h
                values += k1
            else:  # values + (h/6) (((k1 + 2 k2) + 2 k3) + k4)
                for h_stage, k_in, k_out in ((0.5 * h, k1, k2), (0.5 * h, k2, k3), (h, k3, k4)):
                    np.multiply(h_stage, k_in, out=stage)
                    stage += values  # the stage argument values + h_stage k_in
                    _rhs(kernel, stage, z, dx, k_out)
                k2 *= 2.0
                k2 += k1
                k3 *= 2.0
                k2 += k3
                k2 += k4
                k2 *= h / 6.0
                values += k2
            if not np.isfinite(values).all():
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
