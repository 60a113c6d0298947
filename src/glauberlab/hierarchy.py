"""Truncated correlation hierarchies and their functional calculus.

A hierarchy stores symmetric tensors k_0 .. k_{n_max} (k_n of shape
(N,)*n) and represents the entire functional

    B(theta) = sum_{n=0}^{n_max}  dx^n / n!  sum_{x_1..x_n} k_n(x_1..x_n) prod_i theta(x_i),

the finite shadow of a generating functional: the n-th tensor is the n-th
variational Taylor coefficient of B at theta = 0, and the dx^n/n! weights
discretize the sum-over-configurations measure.  Orders above n_max are
closed by zero, which keeps every operation in this package exactly linear
on the truncated space.

The scale norm, gf_upper_bound and cauchy_estimate_checks read only the profile
[max|k_0|, .., max|k_{n_max}|] that max_abs_by_order returns, so one scan of a
hierarchy serves them all.  The scale norm is the computable surrogate

    scale_norm(profile, alpha) = sup_n alpha^n max|k_n|,

which dominates the weighted-functional norm sup_theta |B(theta)| e^{-||theta||_1/alpha}
through the series majorant; inequality checks in this package always place
the surrogate on the majorant side.

A snapshot (save_hierarchy, load_hierarchy) is an uncompressed npz archive of
n_sites (int64), length (float64) and k0 .. k{n_max}, read back bit for bit; its
zip entries carry numpy's one fixed date, so equal hierarchies give equal bytes.
"""

import math
import zipfile
from dataclasses import dataclass

import numpy as np

from .errors import (
    GridMismatchError,
    InvalidArgumentError,
    NonfiniteStateError,
)
from .lattice import (  # the guard lives in lattice; re-exported for bench/ and tests
    MEMORY_GUARD_ENTRIES,
    Grid,
    GridField,
    make_grid,
    require_same_grid,
    require_within_memory_guard,
)


@dataclass(frozen=True)
class ScaleParams:
    """Scale indices, activity and scaling parameter of a model run.

    alpha < alpha0 are the target and initial scale indices, z is the
    birth activity, epsilon the scaling parameter (0 denotes the
    mean-field limit).
    """

    alpha: float
    alpha0: float
    z: float
    epsilon: float = 1.0

    def __post_init__(self):
        if not (0 < self.alpha < self.alpha0):
            raise InvalidArgumentError(
                "need 0 < alpha < alpha0, got alpha=%r alpha0=%r"
                % (self.alpha, self.alpha0)
            )
        if not (self.z > 0):
            raise InvalidArgumentError("activity z must be positive")
        if not (self.epsilon >= 0):
            raise InvalidArgumentError("epsilon must be non-negative")


class CorrelationHierarchy:
    """Symmetric tensors k_0 .. k_{n_max} on a shared grid.

    tensors[0] is a 0-d array (a scalar); tensors[n] has shape (N,)*n.
    Symmetry under index permutations holds to roundoff, not by construction:
    evolved and sampled tensors can differ from their transposes in the last
    bits.
    """

    __slots__ = ("grid", "tensors")

    def __init__(self, grid: Grid, tensors):
        n = grid.n_sites
        tens = []
        for order, t in enumerate(tensors):
            arr = np.asarray(t, dtype=np.float64)
            if arr.shape != (n,) * order:
                raise InvalidArgumentError(
                    "tensor %d has shape %r, expected %r"
                    % (order, arr.shape, (n,) * order)
                )
            if not np.all(np.isfinite(arr)):
                raise InvalidArgumentError("tensor %d has non-finite entries" % order)
            tens.append(arr)
        if not tens:
            raise InvalidArgumentError("hierarchy needs at least the order-0 tensor")
        require_within_memory_guard(n, len(tens) - 1)
        self.grid = grid
        self.tensors = tens

    @classmethod
    def _trusted(cls, grid, tensors):
        """Wrap float64 tensors of the right shapes without re-validating them.

        For the generator and Taylor-loop intermediates, whose inputs were
        already validated; callers check finiteness once per accepted result.
        """
        obj = cls.__new__(cls)
        obj.grid = grid
        obj.tensors = list(tensors)
        return obj

    @property
    def n_max(self) -> int:
        return len(self.tensors) - 1

    def __repr__(self):
        return "CorrelationHierarchy(n_sites=%d, n_max=%d)" % (
            self.grid.n_sites,
            self.n_max,
        )


def zero_hierarchy(grid, n_max) -> CorrelationHierarchy:
    if n_max < 0:
        raise InvalidArgumentError("n_max must be non-negative")
    require_within_memory_guard(grid.n_sites, n_max)
    tensors = [np.zeros((grid.n_sites,) * n) for n in range(n_max + 1)]
    return CorrelationHierarchy(grid, tensors)


def exponential_hierarchy(rho: GridField, n_max) -> CorrelationHierarchy:
    """Product hierarchy k_n(x_1..x_n) = prod_i rho(x_i), k_0 = 1.

    The finite analogue of a Poisson-type state with density rho.
    """
    if n_max < 0:
        raise InvalidArgumentError("n_max must be non-negative")
    grid = rho.grid
    require_within_memory_guard(grid.n_sites, n_max)
    tensors = [np.array(1.0)]
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(n_max):
            tensors.append(np.multiply.outer(tensors[-1], rho.values))
    require_finite(tensors, "product state of order %d" % n_max)
    return CorrelationHierarchy(grid, tensors)


def random_ruelle_hierarchy(grid, n_max, rng, envelope=1.0) -> CorrelationHierarchy:
    """Random symmetric hierarchy with |k_n| <= envelope^n for n >= 1.

    The order-0 entry is drawn near 1.  Used by the inequality harness and
    the test suite; the envelope plays the role of the activity bound, so
    sampled states grow no faster than a prescribed geometric rate.  Each
    uniform draw is averaged over its axis permutations by the coset
    recursion, with the rng stream and law of the n!-term average and its
    entries up to roundoff.  An overflowing or nan envelope^n_max is NonfiniteStateError;
    past it every entry is finite (|average| <= 1), so none is validated again.
    """
    require_within_memory_guard(grid.n_sites, n_max)
    if not _pow_or_inf(envelope, n_max) < math.inf:
        raise NonfiniteStateError("activity envelope %r overflows at order %d" % (envelope, n_max))
    tensors = [np.array(rng.uniform(0.5, 1.5))]
    for order in range(1, n_max + 1):
        tensors.append(_symmetrize_tensor(rng.uniform(-1.0, 1.0, size=(grid.n_sites,) * order)))
        tensors[-1] *= envelope**order
    return CorrelationHierarchy._trusted(grid, tensors)


def require_finite(tensors, what):
    """Raise NonfiniteStateError unless every entry of every tensor is finite."""
    for tensor in tensors:
        if not np.all(np.isfinite(tensor)):
            raise NonfiniteStateError("%s has non-finite entries" % what)


def _contract_first(tensor, rows, shared=False):
    """Contract the first axis after the row axis x of `tensor` with rows[x].

    With shared=True, `tensor` has no row axis and its first axis is
    contracted with every row.  The one contraction every route goes
    through: batched and single-field callers therefore agree bit for bit.
    Each weight rows[x, i] scales one contiguous slice of N^(m-1) entries,
    so einsum's inner loop runs over that contiguous tail.
    """
    subscripts = "xi,i...->x..." if shared else "xi,xi...->x..."
    return np.einsum(subscripts, rows, tensor, optimize=False)


def _contract_leading(tensor, rows, count):
    """Contract `count` leading axes of `tensor` with each row of `rows`.

    rows has shape (R, N); the result carries a leading axis of length R
    followed by the last tensor.ndim - count axes of `tensor`.
    """
    if count == 0:
        return np.broadcast_to(tensor, rows.shape[:1] + tensor.shape)
    out = _contract_first(tensor, rows, shared=True)
    for _ in range(count - 1):
        out = _contract_first(out, rows)
    return out


def _fsum_or_nan(terms) -> float:
    """math.fsum, or nan where it raises on inf - inf or on a sum past the largest double."""
    try:
        return math.fsum(terms)
    except (OverflowError, ValueError):
        return math.nan


def _order_terms(k: CorrelationHierarchy, rows):
    """Per row theta of `rows` (shape (R, N)), the order terms dx^n/n! sum_tuples k_n prod theta."""
    weights = _taylor_weights(k.grid.spacing, len(k.tensors))
    per_order = []
    for n, (weight, tensor) in enumerate(zip(weights, k.tensors)):
        per_order.append(
            [weight * v for v in _contract_leading(tensor, rows, n).tolist()]
        )
    return zip(*per_order)


def evaluate_gf_rows(k: CorrelationHierarchy, rows):
    """B(theta) for every row theta of `rows` (shape (R, N)), as a list of floats.

    Each row's order terms are combined with math.fsum, so every value is
    correctly rounded; a value that overflows is nan.
    """
    return [_fsum_or_nan(terms) for terms in _order_terms(k, rows)]


def evaluate_gf(k: CorrelationHierarchy, theta: GridField) -> float:
    """Evaluate B(theta) = sum_n dx^n/n! sum_tuples k_n prod theta.

    The order contributions are combined with math.fsum so the returned
    value is correctly rounded; the finite-difference oracle depends on
    this when it divides tiny differences of nearby evaluations.
    """
    require_same_grid(k, theta)
    return evaluate_gf_rows(k, theta.values[np.newaxis])[0]


def substitute_affine_rows(k: CorrelationHierarchy, a_rows, b_rows, top):
    """Orders 0..top of theta -> B(a_x*theta + b_x) for every row x at once.

    a_rows and b_rows have shape (R, N); order m of the result has shape
    (R,) + (N,)*m and carries, at row x,

        c_m(y_1..y_m) = prod_i a_x(y_i) * sum_{j<=n_max-m} dx^j/j! sum_w k_{m+j}(w, y) prod b_x(w_l).

    The inner sum is capped at j <= n_max - m: with orders above n_max
    closed by zero this makes evaluate_gf(c, theta) == evaluate_gf(k, a*theta+b)
    an exact polynomial identity, not an approximation.
    """
    nm = k.n_max
    batch = (b_rows.shape[0],)
    acc = [np.broadcast_to(t, batch + t.shape).copy() for t in k.tensors[: top + 1]]
    nxt = [_contract_first(t, b_rows, shared=True) for t in k.tensors[1:]]
    weights = _taylor_weights(k.grid.spacing, nm + 1)
    next(weights)  # the j = 0 term is acc itself
    for j, weight in enumerate(weights, start=1):
        # row j+1 is contracted from row j before row j is weighted in place
        row, nxt = nxt, [_contract_first(r, b_rows) for r in nxt[1:]]
        for m in range(min(top, nm - j) + 1):
            row[m] *= weight
            acc[m] += row[m]
    for m in range(1, top + 1):
        for axis in range(m):
            shape = list(batch) + [1] * m
            shape[axis + 1] = -1
            acc[m] *= a_rows.reshape(shape)
    return acc


def substitute_affine(k, a: GridField, b: GridField) -> CorrelationHierarchy:
    """Hierarchy of the substituted functional theta -> B(a*theta + b).

    The single-field case of substitute_affine_rows, over all orders.
    """
    require_same_grid(k, a)
    require_same_grid(k, b)
    tensors = substitute_affine_rows(
        k, a.values[np.newaxis], b.values[np.newaxis], k.n_max
    )
    return CorrelationHierarchy(k.grid, [t[0] for t in tensors])


def _pow_or_inf(base, n) -> float:
    """float(base)**n, or inf where it overflows: inf is still an upper bound."""
    try:
        return float(base) ** n
    except OverflowError:
        return math.inf


def scale_norm(profile, alpha) -> float:
    """Scale norm sup_n alpha^n max|k_n| of a profile: zero orders add 0, overflows inf, a nan order nan."""
    if not (alpha > 0):
        raise InvalidArgumentError("alpha must be positive")
    terms = [_pow_or_inf(alpha, n) * m if m else 0.0 for n, m in enumerate(profile)]
    return math.nan if any(map(math.isnan, terms)) else max(terms)  # max skips a nan not first


def ruelle_margin(k: CorrelationHierarchy, z) -> float:
    """scale_norm at 1/z; at most 1 iff the activity envelope |k_n| <= z^n holds."""
    if not (z > 0):
        raise InvalidArgumentError("z must be positive")
    return scale_norm(max_abs_by_order(k), 1.0 / z)


def _taylor_weights(r, count):
    """r^n / n! for n = 0..count-1, accumulated as weight *= r / n.

    The one source of the Taylor weights: dx^n / n! for the functional and
    its substitutions, r^n / n! for the majorant.
    """
    weight = 1.0
    for n in range(count):
        if n > 0:
            weight *= r / n
        yield weight


def gf_upper_bound(profile, r) -> float:
    """Majorant sum_n max|k_n| r^n / n! of a profile, >= sup |B| on the radius-r ball.

    r must be finite.  An order whose max is 0 adds 0, also where r^n / n!
    overflows to inf.
    """
    if not (0 < r < math.inf):
        raise InvalidArgumentError("r must be finite and positive, got %r" % (r,))
    total = 0.0
    for weight, m in zip(_taylor_weights(r, len(profile)), profile):
        if m:
            total += weight * m
    return total


def cauchy_estimate_checks(profile, r):
    """Verdicts of the derivative growth estimate at orders 1..n_max, from one majorant.

    With w_n = r^n / n!, the very weight gf_upper_bound accumulates, and
    bound = gf_upper_bound(profile, r), the check is w_1 max|k_1| <= bound
    for n = 1 and w_n max|k_n| <= e^n bound for n >= 2, where an overflowing
    e^n reads as inf; a zero order passes.  The left side is a product the
    majorant sums, so no underflowing or overflowing weight can fail it.
    Because the majorant dominates the sup of |B| over the complex radius-r
    ball and k_n is the n-th derivative kernel at 0, the check holds
    identically, also on sampled hierarchies, whose coset average is
    symmetric to roundoff.
    """
    bound = gf_upper_bound(profile, r)
    weights = list(_taylor_weights(r, len(profile)))
    caps = [bound] + [_pow_or_inf(math.e, n) * bound if bound else 0.0  # inf * 0 is nan
                      for n in range(2, len(profile))]
    return [not m or w * m <= cap for w, m, cap in zip(weights[1:], profile[1:], caps)]


def flat_dimension(grid, n_max) -> int:  # kept importable for bench/ladder.py
    return sum(grid.n_sites**n for n in range(n_max + 1))


def _symmetrize_tensor(tensor):
    """Average of `tensor` over all axis permutations, one new axis at a time.

    Stage m takes a tensor already symmetric in its first m - 1 axes and
    averages it with its m - 1 swaps of axis m - 1 with an earlier axis,
    one representative per coset of S_{m-1} in S_m: order n costs
    1 + 2 + ... + (n - 1) strided adds instead of n! - 1.
    """
    out = tensor
    for m in range(2, tensor.ndim + 1):
        total = out + np.swapaxes(out, 0, m - 1)
        for i in range(1, m - 1):
            total += np.swapaxes(out, i, m - 1)
        total /= m
        out = total
    return out


def max_abs_difference(k1, k2) -> float:
    if k1.grid != k2.grid:
        raise GridMismatchError("hierarchies live on different grids")
    if k1.n_max != k2.n_max:
        raise InvalidArgumentError(
            "hierarchies have different truncation orders %d and %d"
            % (k1.n_max, k2.n_max)
        )
    return max(
        float(np.max(np.abs(t1 - t2))) for t1, t2 in zip(k1.tensors, k2.tensors)
    )


def max_abs_by_order(k: CorrelationHierarchy):
    """The profile [max|k_0|, .., max|k_{n_max}|] that the scale-norm family reads.

    Two reductions per order and no |k_n| temporary; the outer abs turns the
    -0.0 of an all-zero order, and a negative nan, into what np.abs gives.
    """
    return [abs(float(max(t.max(), -t.min()))) for t in k.tensors]


def save_hierarchy(k: CorrelationHierarchy, path):
    """Write k as a snapshot at exactly `path`: np.savez appends `.npz` to names, not to files."""
    tensors = {"k%d" % n: t for n, t in enumerate(k.tensors)}
    with open(path, "wb") as fh:
        np.savez(fh, n_sites=np.int64(k.grid.n_sites), length=np.float64(k.grid.length), **tensors)


def _read_entry(archive, key, dtype, shape=()):
    """Entry `key`, read once its header shows dtype and shape: a lying shape is never allocated."""
    with archive.zip.open(key + ".npy") as fh:
        header = np.lib.format.read_magic(fh) == (1, 0) and np.lib.format.read_array_header_1_0(fh)
    if not header or (header[0], header[2]) != (shape, np.dtype(dtype)):
        raise InvalidArgumentError("entry %s is not %s of shape %r" % (key, dtype.__name__, shape))
    return archive[key]


def load_hierarchy(path) -> CorrelationHierarchy:
    """Read a snapshot written by save_hierarchy.

    Any other entry set, dtype or shape, a bad grid, a non-finite value or an
    unreadable file raises InvalidArgumentError; the guard is checked first.
    """
    try:
        with open(path, "rb") as fh:
            if fh.read(4) != b"PK\x03\x04":  # np.load would read a bare .npy whole
                raise InvalidArgumentError("not an npz archive")
            fh.seek(0)
            with np.load(fh, allow_pickle=False) as archive:
                names = archive.zip.namelist()
                keys = ["n_sites", "length"] + ["k%d" % n for n in range(len(names) - 2)]
                if sorted(names) != sorted(key + ".npy" for key in keys):
                    raise InvalidArgumentError("entries %r are not %r" % (names, keys))
                n_sites = int(_read_entry(archive, "n_sites", np.int64))
                grid = make_grid(n_sites, float(_read_entry(archive, "length", np.float64)))
                require_within_memory_guard(n_sites, len(keys) - 3)
                tensors = [_read_entry(archive, key, np.float64, (n_sites,) * n)
                           for n, key in enumerate(keys[2:])]
                return CorrelationHierarchy(grid, tensors)
    # InvalidArgumentError is a ValueError, so every reason above also gets the path
    except (OSError, EOFError, ValueError, zipfile.BadZipFile) as exc:
        raise InvalidArgumentError("bad snapshot %s: %s" % (path, exc)) from None
