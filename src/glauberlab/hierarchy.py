"""Truncated correlation hierarchies and their functional calculus.

A hierarchy stores symmetric tensors k_0 .. k_{n_max} (k_n of shape
(N,)*n) and represents the entire functional

    B(theta) = sum_{n=0}^{n_max}  dx^n / n!  sum_{x_1..x_n} k_n(x_1..x_n) prod_i theta(x_i),

the finite shadow of a generating functional: the n-th tensor is the n-th
variational Taylor coefficient of B at theta = 0, and the dx^n/n! weights
discretize the sum-over-configurations measure.  Orders above n_max are
closed by zero, which keeps every operation in this package exactly linear
on the truncated space.

The scale norm used for all solver bookkeeping is the computable surrogate

    scale_norm(k, alpha) = sup_n alpha^n max|k_n|,

which dominates the weighted-functional norm sup_theta |B(theta)| e^{-||theta||_1/alpha}
through the series majorant; inequality checks in this package always place
the surrogate on the majorant side.
"""

import math
from dataclasses import dataclass
from itertools import permutations

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
        if self.epsilon < 0:
            raise InvalidArgumentError("epsilon must be non-negative")


class CorrelationHierarchy:
    """Symmetric tensors k_0 .. k_{n_max} on a shared grid.

    tensors[0] is a 0-d array (a scalar); tensors[n] has shape (N,)*n.
    Symmetry under index permutations is preserved by construction in all
    package operations and can be asserted with `symmetrize`.
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

    def copy(self):
        return CorrelationHierarchy(self.grid, [t.copy() for t in self.tensors])

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
    sampled states grow no faster than a prescribed geometric rate.
    """
    require_within_memory_guard(grid.n_sites, n_max)
    tensors = [np.array(rng.uniform(0.5, 1.5))]
    for order in range(1, n_max + 1):
        raw = rng.uniform(-1.0, 1.0, size=(grid.n_sites,) * order)
        tensors.append(_symmetrize_tensor(raw) * envelope**order)
    return CorrelationHierarchy(grid, tensors)


def require_finite(tensors, what):
    """Raise NonfiniteStateError unless every entry of every tensor is finite."""
    for tensor in tensors:
        if not np.all(np.isfinite(tensor)):
            raise NonfiniteStateError("%s has non-finite entries" % what)


def _contract_last(batched, rows):
    """Contract the last axis of `batched` (leading axis x) with rows[x].

    The one contraction every route goes through: batched and single-field
    callers therefore agree bit for bit.
    """
    return np.einsum("x...i,xi->x...", batched, rows)


def _contract_trailing(tensor, rows, count):
    """Contract `count` trailing axes of `tensor` with each row of `rows`.

    rows has shape (R, N); the result carries a leading axis of length R.
    """
    out = np.broadcast_to(tensor, rows.shape[:1] + tensor.shape)
    for _ in range(count):
        out = _contract_last(out, rows)
    return out


def evaluate_gf_rows(k: CorrelationHierarchy, rows):
    """B(theta) for every row theta of `rows` (shape (R, N)), as a list of floats.

    Each row's order contributions are combined with math.fsum, so every
    value is correctly rounded.
    """
    dx = k.grid.spacing
    per_order = []
    weight = 1.0
    for n, tensor in enumerate(k.tensors):
        if n > 0:
            weight *= dx / n
        per_order.append(
            [weight * v for v in _contract_trailing(tensor, rows, n).tolist()]
        )
    return [math.fsum(terms) for terms in zip(*per_order)]


def evaluate_gf(k: CorrelationHierarchy, theta: GridField) -> float:
    """Evaluate B(theta) = sum_n dx^n/n! sum_tuples k_n prod theta.

    The order contributions are combined with math.fsum so the returned
    value is correctly rounded; the finite-difference oracle depends on
    this when it divides tiny differences of nearby evaluations.
    """
    require_same_grid(k, theta)
    return evaluate_gf_rows(k, theta.values[np.newaxis])[0]


def variational_derivative_field(k: CorrelationHierarchy, theta: GridField):
    """First variational derivative of B at theta, as an array over sites.

    delta B(theta; x) = sum_{n<=n_max-1} dx^n/n! sum_tuples k_{n+1}(x, ...) prod theta.
    """
    require_same_grid(k, theta)
    dx = k.grid.spacing
    rows = theta.values[np.newaxis]
    out = np.zeros(k.grid.n_sites)
    weight = 1.0
    for order in range(k.n_max):
        if order > 0:
            weight *= dx / order
        out += weight * _contract_trailing(k.tensors[order + 1], rows, order)[0]
    return out


def variational_derivative(k: CorrelationHierarchy, theta: GridField, x) -> float:
    """delta B(theta; x) at a single site x."""
    if not (0 <= int(x) < k.grid.n_sites):
        raise InvalidArgumentError("site index %r out of range" % (x,))
    return float(variational_derivative_field(k, theta)[int(x)])


def substitute_affine_rows(k: CorrelationHierarchy, a_rows, b_rows, top):
    """Orders 0..top of theta -> B(a_x*theta + b_x) for every row x at once.

    a_rows and b_rows have shape (R, N); order m of the result has shape
    (R,) + (N,)*m and carries, at row x,

        c_m(y_1..y_m) = prod_i a_x(y_i) * sum_{j<=n_max-m} dx^j/j! sum_w k_{m+j}(y, w) prod b_x(w_l).

    The inner sum is capped at j <= n_max - m: with orders above n_max
    closed by zero this makes evaluate_gf(c, theta) == evaluate_gf(k, a*theta+b)
    an exact polynomial identity, not an approximation.
    """
    nm = k.n_max
    dx = k.grid.spacing
    batch = (b_rows.shape[0],)
    row = [np.broadcast_to(t, batch + t.shape) for t in k.tensors]
    acc = [r.copy() for r in row[: top + 1]]
    weight = 1.0
    for j in range(1, nm + 1):
        weight *= dx / j
        row = [_contract_last(row[p + 1], b_rows) for p in range(nm - j + 1)]
        for m in range(min(top, nm - j) + 1):
            acc[m] += weight * row[m]
    del row
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


def scale_norm(k: CorrelationHierarchy, alpha) -> float:
    """Surrogate scale norm sup_n alpha^n max|k_n|."""
    if not (alpha > 0):
        raise InvalidArgumentError("alpha must be positive")
    return max(
        float(alpha**n * np.max(np.abs(t))) for n, t in enumerate(k.tensors)
    )


def ruelle_margin(k: CorrelationHierarchy, z) -> float:
    """scale_norm at 1/z; at most 1 iff the activity envelope |k_n| <= z^n holds."""
    if not (z > 0):
        raise InvalidArgumentError("z must be positive")
    return scale_norm(k, 1.0 / z)


def gf_upper_bound(k: CorrelationHierarchy, r) -> float:
    """Majorant sum_n max|k_n| r^n / n! >= sup over the radius-r ball of |B|."""
    if not (r > 0):
        raise InvalidArgumentError("r must be positive")
    total = 0.0
    weight = 1.0
    for n, tensor in enumerate(k.tensors):
        if n > 0:
            weight *= r / n
        total += weight * float(np.max(np.abs(tensor)))
    return total


def cauchy_estimate_check(k: CorrelationHierarchy, n, r) -> bool:
    """Check the derivative growth estimate at order n against the majorant.

    True iff max|k_1| <= (1/r) * gf_upper_bound(k, r) for n = 1 and
    max|k_n| <= n! (e/r)^n * gf_upper_bound(k, r) for n >= 2.  Because the
    majorant dominates the sup of |B| over the complex radius-r ball and
    k_n is the n-th derivative kernel at 0, the check holds identically.
    """
    if not (1 <= n <= k.n_max):
        raise InvalidArgumentError("order %r outside 1..n_max" % (n,))
    bound = gf_upper_bound(k, r)
    top = float(np.max(np.abs(k.tensors[n])))
    if n == 1:
        return top <= bound / r
    return top <= math.factorial(n) * (math.e / r) ** n * bound


def _require_compatible(k1, k2):
    if k1.grid != k2.grid:
        raise GridMismatchError("hierarchies live on different grids")
    if k1.n_max != k2.n_max:
        raise InvalidArgumentError(
            "hierarchies have different truncation orders %d and %d"
            % (k1.n_max, k2.n_max)
        )


def axpy(a, k1, k2) -> CorrelationHierarchy:
    """Entrywise a*k1 + k2."""
    _require_compatible(k1, k2)
    return CorrelationHierarchy(
        k1.grid, [a * t1 + t2 for t1, t2 in zip(k1.tensors, k2.tensors)]
    )


def scale_hierarchy(a, k) -> CorrelationHierarchy:
    return CorrelationHierarchy(k.grid, [a * t for t in k.tensors])


def flat_dimension(grid, n_max) -> int:
    return sum(grid.n_sites**n for n in range(n_max + 1))


def _symmetrize_tensor(tensor):
    order = tensor.ndim
    if order < 2:
        return np.array(tensor, copy=True)
    total = np.zeros_like(tensor)
    for perm in permutations(range(order)):
        total += np.transpose(tensor, perm)
    return total / math.factorial(order)


def symmetrize(k: CorrelationHierarchy) -> CorrelationHierarchy:
    """Average every tensor over index permutations (idempotent)."""
    return CorrelationHierarchy(k.grid, [_symmetrize_tensor(t) for t in k.tensors])


def max_abs_difference(k1, k2) -> float:
    _require_compatible(k1, k2)
    return max(
        float(np.max(np.abs(t1 - t2))) for t1, t2 in zip(k1.tensors, k2.tensors)
    )


def max_abs_by_order(k: CorrelationHierarchy):
    return [float(np.max(np.abs(t))) for t in k.tensors]


def save_hierarchy(k: CorrelationHierarchy, path):
    """Write the snapshot text format.

    First line `n_sites,length,n_max`, then one line per entry
    `n,i1,...,in,value`, orders ascending and indices in C order.  Values are written with repr,
    so the file round-trips float64 entries exactly.  Order n is written
    one chunk per leading index i1, from a line template built once per
    order.
    """
    n_sites = k.grid.n_sites
    fields = ["%d," % i for i in range(n_sites)]
    tails = [""]  # "i2,...,in," for every trailing index of order n, C order
    with open(path, "w", newline="\n") as fh:
        fh.write("%d,%s,%d\n" % (n_sites, repr(k.grid.length), k.n_max))
        fh.write("0,%s\n" % repr(float(k.tensors[0])))
        for n, tensor in enumerate(k.tensors[1:], start=1):
            if n > 1:
                tails = [tail + field for tail in tails for field in fields]
            # one line per tail: "%s" takes the "n,i1," head, "%r" the value
            template = "".join(["%s" + tail + "%r\n" for tail in tails])
            args = [None] * (2 * len(tails))
            for lead in range(n_sites):
                args[0::2] = ["%d,%d," % (n, lead)] * len(tails)
                args[1::2] = tensor[lead].ravel().tolist()
                fh.write(template % tuple(args))


def load_hierarchy(path) -> CorrelationHierarchy:
    """Read a snapshot written by save_hierarchy.

    Every entry must appear exactly once, with its order in 0..n_max and
    its indices in 0..n_sites-1; anything else raises InvalidArgumentError.
    """
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise InvalidArgumentError("empty snapshot file %s" % path)
    head = lines[0].split(",")
    try:
        n_sites, length, n_max = int(head[0]), float(head[1]), int(head[2])
    except (ValueError, IndexError):
        raise InvalidArgumentError("malformed snapshot header %r" % lines[0]) from None
    if len(head) != 3 or n_max < 0:
        raise InvalidArgumentError("malformed snapshot header %r" % lines[0])
    grid = make_grid(n_sites, length)
    require_within_memory_guard(n_sites, n_max)
    tensors = [np.zeros((n_sites,) * n) for n in range(n_max + 1)]
    seen = [np.zeros((n_sites,) * n, dtype=bool) for n in range(n_max + 1)]
    for ln in lines[1:]:
        parts = ln.split(",")
        try:
            order = int(parts[0])
            idx = tuple(int(p) for p in parts[1:-1])
            value = float(parts[-1])
        except ValueError:
            raise InvalidArgumentError("malformed snapshot line %r" % ln) from None
        if not (0 <= order <= n_max) or len(parts) != order + 2:
            raise InvalidArgumentError("malformed snapshot line %r" % ln)
        if not all(0 <= i < n_sites for i in idx):
            raise InvalidArgumentError("snapshot index out of range in line %r" % ln)
        if seen[order][idx]:
            raise InvalidArgumentError("duplicate snapshot entry in line %r" % ln)
        seen[order][idx] = True
        tensors[order][idx] = value
    expected = flat_dimension(grid, n_max)
    count = sum(int(np.count_nonzero(s)) for s in seen)
    if count != expected:
        raise InvalidArgumentError(
            "snapshot holds %d entries, expected %d" % (count, expected)
        )
    return CorrelationHierarchy(grid, tensors)
