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
reproducible bit for bit.  A zero potential has an empty band (B = 0),
and its convolution is +0.0 everywhere without a gather or a sum.
Gaussian samples below max(GAUSSIAN_FLOOR, amplitude * 2^-53) are stored as
zero: weights under the unit roundoff relative to the peak weight.  That cuts
the band at r > 6.06 width, where exp(-(r/width)^2) falls below 2^-53.
"""

import numpy as np
from dataclasses import dataclass

from .errors import GridMismatchError, InvalidArgumentError, MemoryGuardError

EVENNESS_TOL = 1e-12
MEMORY_GUARD_ENTRIES = 10_000_000
# The absolute term of the gaussian floor max(GAUSSIAN_FLOOR, amplitude * 2**-53),
# whose relative term cuts at r > 6.06 width: 2**-970, so that a sample at or
# above it times any value above 2**-52 is a normal number, off the slow path
GAUSSIAN_FLOOR = np.finfo(np.float64).tiny / np.finfo(np.float64).eps


@dataclass(frozen=True)
class Grid:
    """Periodic 1-D lattice of n_sites points over a box of given length."""

    n_sites: int
    length: float
    spacing: float


def make_grid(n_sites, length) -> Grid:
    """Build a grid with spacing length/n_sites.

    Requires an integer n_sites >= 2 and a finite length > 0 whose spacing
    does not underflow to 0.  Every operator on the lattice is N x N, so
    N^2 is held to the memory guard here, once: at most 3162 sites.
    """
    if not 2 <= n_sites < np.inf or int(n_sites) != n_sites:
        raise InvalidArgumentError("n_sites must be an integer >= 2, got %r" % (n_sites,))
    n = int(n_sites)
    require_within_memory_guard(n, 2)
    if not (0 < length < np.inf):
        raise InvalidArgumentError("length must be finite and positive, got %r" % (length,))
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


def _min_image_distance(grid, amplitude, width):
    if amplitude < 0:
        raise InvalidArgumentError("amplitude must be non-negative")
    if not (width > 0):
        raise InvalidArgumentError("width must be positive")
    d = np.arange(grid.n_sites)
    return np.minimum(d, grid.n_sites - d) * grid.spacing


def gaussian_potential(grid, amplitude, width) -> PairPotential:
    """Sample amplitude * exp(-(r/width)^2) at min-image distances r.

    Samples below max(GAUSSIAN_FLOOR, amplitude * 2^-53) are stored as zero,
    as the ones that underflow exp already are.  The relative term cuts the
    tail at r > 6.06 width, weights under the unit roundoff relative to the
    peak: at N = 512, dx = 0.125 and width 1 the band keeps 97 sites instead
    of 415, and one convolution takes a third of the time.  The absolute
    term keeps a tiny amplitude's products off subnormal numbers.
    """
    r = _min_image_distance(grid, amplitude, width)
    with np.errstate(over="ignore"):  # an overflowing square is inf, its exp the right 0
        samples = amplitude * np.exp(-((r / width) ** 2))
    samples[samples < max(GAUSSIAN_FLOOR, amplitude * 2.0**-53)] = 0.0
    return potential_from_samples(grid, samples)


def tophat_potential(grid, amplitude, width) -> PairPotential:
    """Sample amplitude on min-image distances <= width, zero beyond."""
    r = _min_image_distance(grid, amplitude, width)
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
    """Matrix D with D[x, y] = (x - y) mod n_sites."""
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
    array.
    """
    n = pot.grid.n_sites
    phi = pot.values_by_displacement
    support = np.flatnonzero(phi)
    if support.size:
        s = int(np.max(np.minimum(support, n - support)))
        b = min(2 * s + 1, n)
    else:
        s = b = 0
    weights = phi[(s - np.arange(b)) % n]
    return np.arange(n + b - 1) - s, weights


def convolve_values(kernel, values, dx, out=None):
    """Direct sum (K v)(x) = sum_d phi(d) v(x - d) dx over the support band.

    The one convolution path, O(N B) with B <= N: gather the values once
    along the wrap index, lay an (N, B) window over them (row x holds
    v(x - d) for the band's d) and take einsum's sum of products with the
    weights, with optimize=False, so no FFT, no BLAS call and no N x N
    array.  The products left out are those with exact zeros of phi, which
    add nothing.  The reduction order is fixed for a given numpy build, so
    results are reproducible bit for bit, whatever the thread count or
    buffer alignment.  An empty band (phi = 0) gives +0.0, the bits of an
    empty sum times dx, with no gather or sum.  out, when given, is a
    float64 N-vector other than values, and receives the result.
    """
    index, weights = kernel
    b = weights.size
    n = index.size - b + 1
    if out is None:
        out = np.empty(n)
    if b == 0:
        out.fill(0.0)
        return out
    gathered = np.asarray(values, dtype=np.float64).take(index, mode="wrap")
    window = np.ndarray((n, b), np.float64, gathered, 0, (8, 8))
    np.einsum("ij,j->i", window, weights, out=out, optimize=False)
    out *= dx
    return out


def convolve(pot: PairPotential, f: GridField) -> GridField:
    """Periodic convolution (phi * f)(x) = sum_y phi(x-y) f(y) dx; overflow fails as non-finite."""
    require_same_grid(pot, f)
    with np.errstate(over="ignore"):
        out = convolve_values(convolution_kernel(pot), f.values, pot.grid.spacing)
    return GridField(pot.grid, out)
