"""Truncated correlation hierarchies and their functional calculus.

A hierarchy stores symmetric tensors k_0 .. k_{n_max} (k_n of shape
(N,)*n) and represents the entire functional

    B(theta) = sum_{n=0}^{n_max}  dx^n / n!  sum_{x_1..x_n} k_n(x_1..x_n) prod_i theta(x_i),

the finite shadow of a generating functional: the n-th tensor is the n-th
variational Taylor coefficient of B at theta = 0, and the dx^n/n! weights
discretize the sum-over-configurations measure.  Orders above n_max are
closed by zero, which keeps every operation in this package exactly linear
on the truncated space.

Since k_n is a function of the unordered set {x_1..x_n}, it holds one value
per orbit of index tuples under axis permutations, C(N+n-1, n) of them, at
the orbit's representative, its sorted index tuple.  The generators and the
Taylor loop work on those values (pack_hierarchy), and unpack_hierarchy
writes each back to every entry of its orbit.  So every operator reads k at
its representatives only: on a k that is not symmetric it acts on the
symmetric hierarchy that k's representatives define, and its result is
symmetric bit for bit.

The scale norm reads only the profile [max|k_0|, .., max|k_{n_max}|] that
max_abs_by_order returns, so one scan of a hierarchy serves every scale index.
It is the computable surrogate

    scale_norm(profile, alpha) = sup_n alpha^n max|k_n|,

which dominates the weighted-functional norm sup_theta |B(theta)| e^{-||theta||_1/alpha}
through the series majorant; inequality checks in this package always place
the surrogate on the majorant side.

A snapshot (save_hierarchy, load_hierarchy) is an uncompressed npz archive of
n_sites (int64), length (float64) and k0 .. k{n_max}, read back bit for bit; its
zip entries carry numpy's one fixed date, so equal hierarchies give equal bytes.
"""

import functools
import math
import zipfile
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    GridMismatchError,
    InvalidArgumentError,
    NonfiniteStateError,
)
from .lattice import (  # the guard lives in lattice; re-exported for bench/test_smoke.py
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

    0 < alpha < alpha0 < inf are the target and initial scale indices,
    0 < z < inf is the birth activity, epsilon the scaling parameter (0
    denotes the mean-field limit).
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
        if not math.isfinite(self.alpha0):
            raise InvalidArgumentError("alpha0 must be finite, got %r" % (self.alpha0,))
        if not (0 < self.z < math.inf):
            raise InvalidArgumentError("activity z must be finite and positive")
        if not (self.epsilon >= 0):
            raise InvalidArgumentError("epsilon must be non-negative")


class CorrelationHierarchy:
    """Symmetric tensors k_0 .. k_{n_max} on a shared grid.

    tensors[0] is a 0-d array (a scalar); tensors[n] has shape (N,)*n, or
    (R_n,) in a hierarchy held at its orbits (pack_hierarchy), the form
    the operators work in.  Sampled tensors
    (random_ruelle_hierarchy) are symmetric bit for bit: each entry is read
    from its orbit's one mean.  So is every operator's result, each entry
    read from its orbit's representative.  A product state
    (exponential_hierarchy) is symmetric to roundoff only: its factors are
    multiplied in axis order, and an operator reads it at its
    representatives.
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

        For the builders' tensors and the generator and Taylor-loop intermediates,
        made from validated inputs; callers check finiteness once per accepted result.
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


def _require_order(grid, n_max) -> int:
    """The builders' gate, checked before they allocate: an integer n_max >= 0 and the guard."""
    if not 0 <= n_max < math.inf or int(n_max) != n_max:
        raise InvalidArgumentError("n_max must be an integer >= 0")
    n_max = int(n_max)
    require_within_memory_guard(grid.n_sites, n_max)
    return n_max


def zero_hierarchy(grid, n_max) -> CorrelationHierarchy:
    n_max = _require_order(grid, n_max)
    tensors = [np.zeros((grid.n_sites,) * n) for n in range(n_max + 1)]
    return CorrelationHierarchy._trusted(grid, tensors)


def exponential_hierarchy(rho: GridField, n_max) -> CorrelationHierarchy:
    """Product hierarchy k_n(x_1..x_n) = prod_i rho(x_i), k_0 = 1.

    The finite analogue of a Poisson-type state with density rho.
    """
    n_max = _require_order(rho.grid, n_max)
    tensors = [np.array(1.0)]
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(n_max):
            tensors.append(np.multiply.outer(tensors[-1], rho.values))
    require_finite(tensors, "product state of order %d" % n_max)
    return CorrelationHierarchy._trusted(rho.grid, tensors)


def random_ruelle_hierarchy(grid, n_max, rng, envelope=1.0) -> CorrelationHierarchy:
    """Random symmetric hierarchy with |k_n| <= envelope^n for n >= 1.

    The order-0 entry is drawn near 1.  Used by the inequality harness and
    the test suite; the envelope plays the role of the activity bound, so
    sampled states grow no faster than a prescribed geometric rate.  Each
    uniform draw of order n is averaged over its axis permutations by
    _symmetrize_tensor: the rng stream and the law are those of the n!-term
    average, and the tensors are symmetric bit for bit.  The orbit index it
    reads is built on the first call at (n_sites, n_max) and cached, so a run
    that samples one shape many times builds it once.  A negative envelope is
    InvalidArgumentError, an overflowing or nan envelope^n_max
    NonfiniteStateError; past them every entry is finite (|average| <= 1), so
    none is validated again.
    """
    n_max = _require_order(grid, n_max)
    if envelope < 0:
        raise InvalidArgumentError("envelope must be non-negative")
    if not _pow_or_inf(envelope, n_max) < math.inf:
        raise NonfiniteStateError("activity envelope %r overflows at order %d" % (envelope, n_max))
    tensors = [np.array(rng.uniform(0.5, 1.5))]
    for order in range(1, n_max + 1):
        raw = rng.uniform(-1.0, 1.0, size=(grid.n_sites,) * order)
        tensors.append(_symmetrize_tensor(raw, n_max))
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
    Each weight rows[x, i] scales one contiguous slice of the tail (N^(m-1)
    entries, or R_(m-1) orbit columns), so einsum's inner loop runs over
    that contiguous tail.  einsum's bits depend on the layout as well as the
    values: the same values in a transposed copy sum in another order.
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


def substitute_affine_orbits(k: CorrelationHierarchy, a_rows, b_rows, top, orbits):
    """Orders 0..top of theta -> B(a_x*theta + b_x) for every row x, at the orbits' representatives.

    k is held at its orbits (pack_hierarchy); a_rows and b_rows have shape
    (R, N); orbits is _orbit_index(N, k.n_max).
    Order m of the result has shape (R, R_m), one column per orbit of order
    m (order 0 has shape (R,)), and carries, at row x and the orbit whose
    sorted index tuple is y,

        c_m(y_1..y_m) = prod_i a_x(y_i) * sum_{j<=n_max-m} dx^j/j! sum_w k_{m+j}(w, y) prod b_x(w_l).

    The inner sum is capped at j <= n_max - m: with orders above n_max
    closed by zero this makes evaluate_gf(c, theta) == evaluate_gf(k, a*theta+b)
    an exact polynomial identity, not an approximation.

    A contraction over w reads k_{m+j}(w, y) from the column of the orbit
    that w joined to y falls in (orbits[m+j].prepend).
    On a k that is symmetric bit for bit this is the contraction over all
    N^m entries, term by term, so every column keeps the bits of the
    unpacked route at its sorted tuple, whose a-factors are multiplied in
    axis order: at (16, 4) the top-order contraction is 209k instead of
    1.05M multiply-adds.  Each gather is an np.take along axis 1, whose
    result is C-contiguous like the unpacked rows (an advanced index along
    axis 1 is laid out transposed, and einsum then rounds differently), and
    an order-0 result keeps the unpacked route's 2-D einsum "xw,xw->x":
    order 1's prepend table has no orbit axis.

    Two exact identities of the birth shift are skipped, with the same bits
    as the full sum.  Where b is all zeros (phi = 0) and every weight is
    finite, each b-contraction is +0 (einsum sums from +0), so the j >= 1
    terms add +0 and order m < n_max is k_m + 0.0; with an infinite weight
    the full sum's 0 * inf is nan, so it runs.  Where a is all ones
    (epsilon = 0, or phi = 0), the a-products multiply by exact ones.
    """
    nm = k.n_max
    batch = (b_rows.shape[0],)
    packed = k.tensors
    weights = list(_taylor_weights(k.grid.spacing, nm + 1))
    reach = min(top, nm - 1)  # the orders a j >= 1 term adds to
    if not b_rows.any() and math.isfinite(weights[-1]):
        acc = [np.broadcast_to(p, batch + p.shape) + 0.0 for p in packed[: reach + 1]]
    else:
        acc = []
        nxt = [_contract_first(np.take(p, o.prepend), b_rows, shared=True)
               for p, o in zip(packed[1:], orbits[1:])]
        for j, weight in enumerate(weights[1:], start=1):
            # row j+1 is contracted from row j before row j is weighted in place
            row = nxt
            nxt = [_contract_first(np.take(r, o.prepend, axis=1), b_rows)
                   for r, o in zip(row[1:], orbits[1:])]
            for m in range(min(top, nm - j) + 1):
                row[m] *= weight
                if j == 1:  # the j = 0 term is k_m itself
                    row[m] += packed[m]
                    acc.append(row[m])
                else:
                    acc[m] += row[m]
    acc += [np.broadcast_to(p, batch + p.shape).copy() for p in packed[reach + 1 : top + 1]]
    if np.all(a_rows == 1.0):
        return acc
    for m in range(1, top + 1):
        for sites in orbits[m].cols:
            acc[m] *= np.take(a_rows, sites, axis=1)
    return acc


def substitute_affine(k, a: GridField, b: GridField) -> CorrelationHierarchy:
    """Hierarchy of the substituted functional theta -> B(a*theta + b).

    The one-row case of substitute_affine_orbits, over all orders, on k
    held at its orbits and unpacked: the result is symmetric bit for bit,
    and k is read at its representatives.  An entry that overflows raises
    NonfiniteStateError, without a warning.
    """
    require_same_grid(k, a)
    require_same_grid(k, b)
    orbits = _orbit_index(k.grid.n_sites, k.n_max)
    with np.errstate(over="ignore", invalid="ignore"):
        rows = substitute_affine_orbits(
            pack_hierarchy(k), a.values[np.newaxis], b.values[np.newaxis], k.n_max, orbits
        )
    substituted = unpack_hierarchy(CorrelationHierarchy._trusted(k.grid, [c[0] for c in rows]))
    require_finite(substituted.tensors, "substituted hierarchy")
    return substituted


def pack_hierarchy(k) -> CorrelationHierarchy:
    """k held at its orbits: order n as its R_n values at the orbits' representatives.

    Orders 0 and 1 keep their shapes, so a hierarchy of n_max <= 1 is held
    at its orbits as it is.
    """
    orbits = _orbit_index(k.grid.n_sites, k.n_max)
    return CorrelationHierarchy._trusted(
        k.grid, k.tensors[:1] + [np.take(t, o.reps) for t, o in zip(k.tensors[1:], orbits[1:])]
    )


def unpack_hierarchy(k) -> CorrelationHierarchy:
    """The full tensors of a hierarchy held at its orbits."""
    orbits = _orbit_index(k.grid.n_sites, k.n_max)
    return CorrelationHierarchy._trusted(
        k.grid, k.tensors[:1] + [unpack_orbits(v, o) for v, o in zip(k.tensors[1:], orbits[1:])]
    )


def unpack_orbits(values, orbits):
    """The order whose orbit values `values` holds, each written to all of its orbit's entries."""
    return values[orbits.ids.reshape(orbits.shape)]


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
    if not (0 < z < math.inf):
        raise InvalidArgumentError("z must be finite and positive")
    return scale_norm(max_abs_by_order(k), 1.0 / z)


def _taylor_weights(dx, count):
    """dx^n / n! for n = 0..count-1, accumulated as weight *= dx / n.

    The one source of the Taylor weights of the functional and its substitutions.
    """
    weight = 1.0
    for n in range(count):
        if n > 0:
            weight *= dx / n
        yield weight


def flat_dimension(grid, n_max) -> int:  # kept importable for bench/ladder.py
    return sum(grid.n_sites**n for n in range(n_max + 1))


class Orbits(NamedTuple):
    """One order q of an (N, n_max) orbit index: its R_q orbits, each named by its sorted index tuple.

    ids (N^q,): the orbit of each flat entry, numbered by the flat index of
    its sorted tuple; sizes (R_q,): entries per orbit, as floats; reps
    (R_q,): the flat index of each sorted tuple; cols (q, R_q): the sorted
    tuples, one row per position; prepend (N, R_{q-1}): the orbit of site w
    joined to orbit r of order q - 1; drop (q, R_q): for position i of
    orbit r's tuple, s_i * R_{q-1} plus the orbit of the tuple without s_i,
    a flat index into an (N, R_{q-1}) array.  Order 1's prepend is (N,), as
    order 0 has no tuple axis.  cols is int16 from order 2 on, and prepend
    and drop are int32, which keeps the first sample of a shape under six
    top tensors at (128, 3); np.take reads any integer index at one speed.
    All are read-only.
    """

    shape: tuple
    ids: np.ndarray
    sizes: np.ndarray
    reps: np.ndarray
    cols: np.ndarray
    prepend: np.ndarray
    drop: np.ndarray


def _read_only(*arrays):
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


@functools.lru_cache(maxsize=2)
def _orbit_index(n_sites, n_max):
    """The Orbits of orders 0..n_max of an (n_sites, n_max) hierarchy, indexed by order.

    The one orbit table of the package: the sampler reads ids and sizes,
    unpacking ids, packing reps and the birth route the rest.  Order
    q is built from order q - 1: entry (w, s) lies in the orbit of w's orbit
    joined by site s, so the R_{q-1} * N sorted tuples of the orbits of
    order q - 1, each joined by each site, and one gather number every
    entry; those joins are the prepend table.  A table of all N^q index
    tuples, sorted entry by entry, took 385 instead of 30 ms and peaked at
    8.2 instead of 2.1 top tensors at (2, 20).  Keyed by the whole shape and
    built on the first sample or packing of a shape, so a run
    that works at one shape builds each order once.
    """
    zero = np.zeros(1, dtype=np.intp)
    tables = _read_only(zero, np.ones(1), zero, np.zeros((0, 1), dtype=np.intp))
    index = [Orbits((), *tables, None, None)]  # order 0: one orbit, the empty tuple
    ids = reps = joins = np.arange(n_sites)
    members = [ids]
    for order in range(1, n_max + 1):
        shape = (n_sites,) * order
        if order > 1:
            sites = np.arange(n_sites, dtype=np.int16)  # the guard keeps n_sites <= 3162 from order 2 on
            joined = [np.repeat(c, n_sites) for c in members] + [np.tile(sites, len(members[0]))]
            for j in range(order - 1, 0, -1):  # one insertion pass sorts each joined tuple
                low, high = joined[j - 1 : j + 1]
                joined[j - 1 : j + 1] = np.minimum(low, high), np.maximum(low, high)
            canonical = np.ravel_multi_index(joined, shape)
            seen = np.zeros(n_sites**order, dtype=bool)
            seen[canonical] = True
            reps = np.flatnonzero(seen)  # this order's orbits, by the flat index of their sorted tuple
            joins = np.searchsorted(reps, canonical).reshape(-1, n_sites)
            members = [c.astype(np.int16) for c in np.unravel_index(reps, shape)]
            ids = joins[ids]
        cols = np.array(members)
        # dropping position i of a sorted tuple leaves a sorted tuple of order - 1
        below = index[-1]
        before = below.ids.reshape(below.shape)
        drop = np.array([cols[i].astype(np.int32) * len(below.sizes)
                         + before[tuple(np.delete(cols, i, axis=0))] for i in range(order)],
                        dtype=np.int32)
        flat = ids.reshape(-1)
        sizes = np.bincount(flat).astype(np.float64)
        prepend = np.ascontiguousarray(joins.T, dtype=np.int32)
        index.append(Orbits(shape, *_read_only(flat, sizes, reps, cols, prepend, drop)))
    return tuple(index)


def _symmetrize_tensor(tensor, n_max):
    """Average of `tensor`, one order of an (N, n_max) hierarchy, over all axis permutations.

    Each entry becomes the mean of its orbit, the distinct entries its axis
    permutations reach, summed by np.bincount and divided by the orbit size:
    that is the n!-term average, to roundoff, and every entry of an orbit
    reads the one mean, so the result is symmetric bit for bit.  With
    _orbit_index cached, a random_ruelle_hierarchy call at (12, 4) takes
    0.15 ms, against 0.37 ms with the coset recursion this replaced, whose
    1 + .. + (n - 1) strided adds and n - 1 divisions each swept the tensor.
    Order 2 stays (t + t.T) / 2, the orbit mean bit for bit and faster than
    the gather (19 against 26 ms at N = 2000); orders 0 and 1 are returned as
    they are.
    """
    order = tensor.ndim
    if order < 3:
        return tensor if order < 2 else (tensor + tensor.T) / 2
    orbits = _orbit_index(tensor.shape[0], n_max)[order]
    return unpack_orbits(np.bincount(orbits.ids, weights=tensor.ravel()) / orbits.sizes, orbits)


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
