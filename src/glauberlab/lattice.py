"""Periodic 1-D lattice: grids, grid functions, pair potentials.

The lattice stands in for continuous space.  A box of length L is cut
into N sites with spacing dx = L/N, and the continuum norms become

    ||f||_1   = sum_x |f(x)| dx        ||f||_inf = max_x |f(x)|

Pair potentials are stored by periodic displacement d = 0..N-1 and are
required to be non-negative and even, phi(d) = phi(N-d).  Convolution is
computed by direct summation over the support band, the B <= N displacements
|d| <= s that hold every nonzero sample of phi: O(N B) work, O(N) memory.
The direct sum is the normative semantics, an FFT path is deliberately not
used, and only exact zeros of phi are skipped, whose products add nothing.
The sum is einsum's sum of products over each (N, B) window row
(optimize=False: no BLAS call and no N x N array or temporary), so its
reduction order is fixed for a given numpy build and results are
reproducible bit for bit.  The kernel is still held to the same N^2 entry
guard as the hierarchy tensors so the site limits stay where they were.
Gaussian samples below GAUSSIAN_FLOOR are stored as zero, so a gaussian's
convolution never multiplies by a subnormal number, which takes the
processor's slow path, and its band narrows to the samples above the floor.
"""

import numpy as np
from dataclasses import dataclass

from .errors import GridMismatchError, InvalidArgumentError, MemoryGuardError

EVENNESS_TOL = 1e-12
MEMORY_GUARD_ENTRIES = 10_000_000
# 2**-970: a sample at or above it times any value above 2**-52 is a normal number
GAUSSIAN_FLOOR = np.finfo(np.float64).tiny / np.finfo(np.float64).eps


@dataclass(frozen=True)
class Grid:
    """Periodic 1-D lattice of n_sites points over a box of given length."""

    n_sites: int
    length: float
    spacing: float


def make_grid(n_sites, length) -> Grid:
    """Build a grid with spacing length/n_sites.

    Requires n_sites >= 2 and a finite length > 0 whose spacing does not
    underflow to 0.
    """
    if int(n_sites) != n_sites or n_sites < 2:
        raise InvalidArgumentError("n_sites must be an integer >= 2, got %r" % (n_sites,))
    if not (0 < length < np.inf):
        raise InvalidArgumentError("length must be finite and positive, got %r" % (length,))
    n = int(n_sites)
    if float(length) / n == 0:
        raise InvalidArgumentError("spacing %r / %d underflows to 0" % (length, n))
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


def l1_norm(values, dx) -> float:
    """sum |values| dx, inf where that overflows: an inf norm still bounds."""
    with np.errstate(over="ignore"):
        return float(np.sum(np.abs(values)) * dx)


def field_l1_norm(f: GridField) -> float:
    """Discrete L1 norm, sum |f| dx."""
    return l1_norm(f.values, f.grid.spacing)


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
    norm_l1 = l1_norm(vals, grid.spacing)
    norm_linf = float(np.max(np.abs(vals)))
    return PairPotential(grid, vals, norm_l1, norm_linf)


def zero_potential(grid) -> PairPotential:
    return potential_from_samples(grid, np.zeros(grid.n_sites))


def _min_image_distance(grid):
    d = np.arange(grid.n_sites)
    return np.minimum(d, grid.n_sites - d) * grid.spacing


def gaussian_potential(grid, amplitude, width) -> PairPotential:
    """Sample amplitude * exp(-(r/width)^2) at min-image distances r.

    Samples below GAUSSIAN_FLOOR are stored as zero, as the ones that
    underflow exp already are.  Kept, they make their products in the
    convolution subnormal, which more than doubles the cost of one
    convolution at N = 512, for terms below 1e-292 times the values they
    multiply.  Dropping them also narrows the convolution's support band.
    """
    if amplitude < 0:
        raise InvalidArgumentError("amplitude must be non-negative")
    if not (width > 0):
        raise InvalidArgumentError("width must be positive")
    r = _min_image_distance(grid)
    with np.errstate(over="ignore"):  # an overflowing square is inf, its exp the right 0
        samples = amplitude * np.exp(-((r / width) ** 2))
    samples[samples < GAUSSIAN_FLOOR] = 0.0
    return potential_from_samples(grid, samples)


def tophat_potential(grid, amplitude, width) -> PairPotential:
    """Sample amplitude on min-image distances <= width, zero beyond."""
    if amplitude < 0:
        raise InvalidArgumentError("amplitude must be non-negative")
    if not (width > 0):
        raise InvalidArgumentError("width must be positive")
    r = _min_image_distance(grid)
    return potential_from_samples(grid, np.where(r <= width, amplitude, 0.0))


def require_within_memory_guard(n_sites, n_max):
    """Raise MemoryGuardError when the order-n_max tensor would exceed the guard."""
    if n_sites**n_max > MEMORY_GUARD_ENTRIES:
        raise MemoryGuardError(
            "top tensor would hold %d entries (guard %d)"
            % (n_sites**n_max, MEMORY_GUARD_ENTRIES)
        )


def require_same_grid(a, b):
    if a.grid != b.grid:
        raise GridMismatchError("operands live on different grids")


def displacement_matrix(grid):
    """Matrix D with D[x, y] = (x - y) mod n_sites, held to the N^2 entry guard."""
    require_within_memory_guard(grid.n_sites, 2)
    idx = np.arange(grid.n_sites)
    return (idx[:, None] - idx[None, :]) % grid.n_sites


def convolution_kernel(pot: PairPotential):
    """Wrap index and weights of the periodic convolution over phi's support band.

    The band is the B displacements d = s, s-1, .., s-B+1, where s is the
    largest min-image distance of a nonzero sample and B = min(2s+1, N):
    it holds every nonzero sample, and at full support (B = N) each
    displacement exactly once.  Without support B = 0.  The index is
    j - s for j = 0..N+B-2 and weight j is phi(s - j), so window row x of
    the gathered values pairs phi(d) with v(x - d).  O(N) memory, no N x N
    array.  The N^2 entry guard is kept, so the site limits of the commands
    that convolve do not depend on the layout.  Raises MemoryGuardError
    before allocating when N^2 exceeds the guard.
    """
    n = pot.grid.n_sites
    require_within_memory_guard(n, 2)
    phi = pot.values_by_displacement
    support = np.flatnonzero(phi)
    if support.size:
        s = int(np.max(np.minimum(support, n - support)))
        b = min(2 * s + 1, n)
    else:
        s = b = 0
    weights = phi[(s - np.arange(b)) % n]
    return np.arange(n + b - 1) - s, weights


def convolve_values(kernel, values, dx):
    """Direct sum (K v)(x) = sum_d phi(d) v(x - d) dx over the support band.

    The one convolution path, O(N B) with B <= N: gather the values once
    along the wrap index, lay an (N, B) window over them (row x holds
    v(x - d) for the band's d) and take einsum's sum of products with the
    weights, with optimize=False, so no FFT, no BLAS call and no N x N
    array.  The products left out are those with exact zeros of phi, which
    add nothing.  The reduction order is fixed for a given numpy build, so
    results are reproducible bit for bit, whatever the thread count or
    buffer alignment.
    """
    index, weights = kernel
    gathered = np.asarray(values, dtype=np.float64).take(index, mode="wrap")
    b = weights.size
    window = np.ndarray((index.size - b + 1, b), np.float64, gathered, 0, (8, 8))
    return np.einsum("ij,j->i", window, weights, optimize=False) * dx


def convolve(pot: PairPotential, f: GridField) -> GridField:
    """Periodic convolution (phi * f)(x) = sum_y phi(x-y) f(y) dx."""
    require_same_grid(pot, f)
    out = convolve_values(convolution_kernel(pot), f.values, pot.grid.spacing)
    return GridField(pot.grid, out)
