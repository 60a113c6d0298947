"""Periodic 1-D lattice: grids, grid functions, pair potentials.

The lattice stands in for continuous space.  A box of length L is cut
into N sites with spacing dx = L/N, and the continuum norms become

    ||f||_1   = sum_x |f(x)| dx        ||f||_inf = max_x |f(x)|

Pair potentials are stored by periodic displacement d = 0..N-1 and are
required to be non-negative and even, phi(d) = phi(N-d).  Convolution is
computed by direct O(N^2) summation; the direct sum is the normative
semantics (bit-stable, reduction order fixed), an FFT path is deliberately
not used.
"""

import numpy as np
from dataclasses import dataclass

from .errors import GridMismatchError, InvalidArgumentError

EVENNESS_TOL = 1e-12


@dataclass(frozen=True)
class Grid:
    """Periodic 1-D lattice of n_sites points over a box of given length."""

    n_sites: int
    length: float
    spacing: float


def make_grid(n_sites, length) -> Grid:
    """Build a grid with spacing length/n_sites.

    Requires n_sites >= 2 and length > 0.
    """
    if int(n_sites) != n_sites or n_sites < 2:
        raise InvalidArgumentError("n_sites must be an integer >= 2, got %r" % (n_sites,))
    if not (length > 0):
        raise InvalidArgumentError("length must be positive, got %r" % (length,))
    n = int(n_sites)
    return Grid(n, float(length), float(length) / n)


@dataclass(frozen=True, eq=False)
class GridField:
    """Real-valued function on the sites of a grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.shape != (self.grid.n_sites,):
            raise InvalidArgumentError(
                "field needs %d values, got shape %r" % (self.grid.n_sites, vals.shape)
            )
        if not np.all(np.isfinite(vals)):
            raise InvalidArgumentError("field values must be finite")
        object.__setattr__(self, "values", vals)


def constant_field(grid, value) -> GridField:
    return GridField(grid, np.full(grid.n_sites, float(value)))


def zero_field(grid) -> GridField:
    return GridField(grid, np.zeros(grid.n_sites))


def field_l1_norm(f: GridField) -> float:
    """Discrete L1 norm, sum |f| dx."""
    return float(np.sum(np.abs(f.values)) * f.grid.spacing)


def field_linf_norm(f: GridField) -> float:
    """Discrete sup norm, max |f|."""
    return float(np.max(np.abs(f.values)))


@dataclass(frozen=True, eq=False)
class PairPotential:
    """Non-negative even interaction sampled by periodic displacement.

    values_by_displacement[d] is the interaction strength between two
    sites d apart (periodically); norm_l1 and norm_linf are precomputed
    discrete norms of the sampled function.
    """

    grid: Grid
    values_by_displacement: np.ndarray
    norm_l1: float
    norm_linf: float


def potential_from_samples(grid, values) -> PairPotential:
    """Validate displacement samples and precompute their norms.

    Rejects negative entries and asymmetry phi(d) != phi(N-d) beyond
    EVENNESS_TOL.
    """
    n = grid.n_sites
    vals = np.asarray(values, dtype=np.float64)
    if vals.shape != (n,):
        raise InvalidArgumentError(
            "potential needs %d samples, got shape %r" % (n, vals.shape)
        )
    if not np.all(np.isfinite(vals)):
        raise InvalidArgumentError("potential samples must be finite")
    if np.any(vals < 0.0):
        raise InvalidArgumentError("potential must be non-negative")
    mirrored = vals[(-np.arange(n)) % n]
    worst = float(np.max(np.abs(vals - mirrored)))
    if worst > EVENNESS_TOL:
        raise InvalidArgumentError(
            "potential must be even in displacement (asymmetry %.3g)" % worst
        )
    norm_l1 = float(np.sum(np.abs(vals)) * grid.spacing)
    norm_linf = float(np.max(np.abs(vals)))
    return PairPotential(grid, vals, norm_l1, norm_linf)


def zero_potential(grid) -> PairPotential:
    return potential_from_samples(grid, np.zeros(grid.n_sites))


def _min_image_distance(grid):
    d = np.arange(grid.n_sites)
    return np.minimum(d, grid.n_sites - d) * grid.spacing


def gaussian_potential(grid, amplitude, width) -> PairPotential:
    """Sample amplitude * exp(-(r/width)^2) at min-image distances r."""
    if amplitude < 0:
        raise InvalidArgumentError("amplitude must be non-negative")
    if not (width > 0):
        raise InvalidArgumentError("width must be positive")
    r = _min_image_distance(grid)
    return potential_from_samples(grid, amplitude * np.exp(-((r / width) ** 2)))


def tophat_potential(grid, amplitude, width) -> PairPotential:
    """Sample amplitude on min-image distances <= width, zero beyond."""
    if amplitude < 0:
        raise InvalidArgumentError("amplitude must be non-negative")
    if not (width > 0):
        raise InvalidArgumentError("width must be positive")
    r = _min_image_distance(grid)
    return potential_from_samples(grid, np.where(r <= width, amplitude, 0.0))


def require_same_grid(a, b):
    if a.grid != b.grid:
        raise GridMismatchError("operands live on different grids")


def displacement_matrix(grid):
    """Matrix D with D[x, y] = (x - y) mod n_sites."""
    idx = np.arange(grid.n_sites)
    return (idx[:, None] - idx[None, :]) % grid.n_sites


def convolution_kernel(pot: PairPotential):
    """Matrix K[x, y] = phi(x - y) of the periodic convolution."""
    return pot.values_by_displacement[displacement_matrix(pot.grid)]


def convolve_values(kernel, values, dx):
    """Direct sum (K v)(x) = sum_y K[x, y] v(y) dx over raw arrays.

    The one convolution path: the reduction order is fixed by np.sum over
    a contiguous row, so results are reproducible bit for bit.
    """
    return np.sum(kernel * values[None, :], axis=1) * dx


def convolve(pot: PairPotential, f: GridField) -> GridField:
    """Periodic convolution (phi * f)(x) = sum_y phi(x-y) f(y) dx."""
    require_same_grid(pot, f)
    out = convolve_values(convolution_kernel(pot), f.values, pot.grid.spacing)
    return GridField(pot.grid, out)
