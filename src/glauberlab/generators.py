"""Linear generators of the birth-and-death dynamics on truncated hierarchies.

The generator family is indexed by the scaling parameter epsilon >= 0 and
differs only in the affine shift applied to the functional argument for a
birth at site x:

    epsilon > 0:  a_x(y) = exp(-e*phi(x-y))      b_x(y) = expm1(-e*phi(x-y)) / e
    epsilon = 0:  a_x(y) = 1                     b_x(y) = -phi(x-y)

epsilon = 1 is the plain Glauber generator, b_x = exp(-phi(x-y)) - 1, and
epsilon = 0 its mean-field (Vlasov) limit.  On the functional side the
generator is

    (L B)(theta) = - sum_x dx theta(x) [ deltaB(theta;x) - z * B(a_x theta + b_x) ],

with unit death rate and birth activity z.  The tensor-level action is
obtained by collecting theta-monomial coefficients: the death part scales
order n by n, the birth part symmetrizes the per-site substituted
hierarchies.  The same rule gives the functional death term: by Euler's
identity, sum_x dx theta(x) deltaB(theta;x) = sum_n n B_n(theta), with B_n
the order-n term of B.  Orders above n_max are closed by zero, so pairing
the tensor route with the direct functional evaluation (minus the top-order
product term the closure discards, see evaluate_generator_gf) is an exact
identity and serves as the module's master self-check.
"""

import math

import numpy as np

from .errors import InvalidArgumentError
from .hierarchy import (
    CorrelationHierarchy,
    ScaleParams,
    _contract_leading,
    _fsum_or_nan,
    _orbit_index,
    _order_terms,
    _pow_or_inf,
    evaluate_gf,  # unused here; kept importable for bench/spans.py
    pack_hierarchy,
    substitute_affine,  # unused here; kept importable for bench/spans.py
    substitute_affine_orbits,
    unpack_hierarchy,
)
from .lattice import GridField, PairPotential, displacement_matrix, l1_norm, require_same_grid

GLAUBER = 1.0
VLASOV_LIMIT = 0.0


def shift_displacement_tables(pot: PairPotential, epsilon):
    """Per-displacement samples (a, b) of the birth shift fields at epsilon.

    expm1 keeps b accurate down to epsilon -> 0; epsilon = 0 is the limit.
    Where |epsilon*phi| < 2^-53, -phi is the correctly rounded expm1(-e*phi)/e
    (and a rounds to 1), so b is -phi there: the quotient would round twice,
    and a subnormal epsilon*phi has lost bits besides.
    """
    if not (epsilon >= 0 and math.isfinite(epsilon)):
        raise InvalidArgumentError(
            "epsilon must be finite and non-negative, got %r" % (epsilon,)
        )
    phi = pot.values_by_displacement
    if epsilon == 0:
        return np.ones_like(phi), -phi
    with np.errstate(over="ignore"):
        x = -epsilon * phi
    b = np.where(np.abs(x) < 2.0**-53, -phi, np.expm1(x) / epsilon)
    return np.exp(x), b


def shift_rows(pot, epsilons):
    """Shift rows (a, b) of E epsilons stacked to (E*N, N); row e*N + x is site x at epsilons[e]."""
    disp = displacement_matrix(pot.grid)
    tables = [shift_displacement_tables(pot, eps) for eps in epsilons]
    return tuple(np.concatenate([table[i][disp] for table in tables]) for i in (0, 1))


def shift_bound_constants(pot, epsilon):
    """(c0, c1) with c0 = max_y a_x(y) and c1 = ||b_x||_1, both x-independent."""
    a_disp, b_disp = shift_displacement_tables(pot, epsilon)
    return float(np.max(a_disp)), l1_norm(b_disp, pot.grid.spacing)


@np.errstate(over="ignore", invalid="ignore")
def apply_birth(k, pot: PairPotential, epsilon, rows=None) -> CorrelationHierarchy:
    """Birth part: symmetrized per-site substituted hierarchies.

    With c_x the hierarchy of theta -> B(a_x theta + b_x),

        out_n(x_1..x_n) = sum_i c_{x_i, n-1}(x_1 .. without x_i .. x_n),

    which is the order-n coefficient of sum_x dx theta(x) B_x(theta); the
    sum over which argument plays the birth site replaces the 1/(n-1)!
    bookkeeping.  Output order 0 vanishes.  The c_x are computed for all
    sites at once, stacked along a leading site axis, only up to order
    n_max - 1, the highest the output reads, and only at the orbits'
    representatives (substitute_affine_orbits).  Each output order is
    summed at its representatives, the sorted tuples s, in axis order from
    c_{s_1} + 0.0, which is 0 + c_{s_1} by commutativity.  So on a k that
    is symmetric bit for bit every representative keeps the bits of the
    sum over all entries.  k held at its orbits (hierarchy.pack_hierarchy)
    gives the result so; a full k is packed, and its result unpacked.  The
    orbit tables are built at the first application of a shape
    (hierarchy._orbit_index).

    rows is shift_rows(pot, [epsilon]) when the caller already built it:
    building it on every application costs 5-9% of a call at (16, 4) with
    a Gaussian or top-hat potential, so a Taylor run builds it once.  An
    entry that overflows reads inf or nan, without a warning, as in
    evaluate_gf; the Taylor loop scans for it.
    """
    if k.tensors[-1].ndim > 1:  # full tensors
        return unpack_hierarchy(apply_birth(pack_hierarchy(k), pot, epsilon, rows))
    require_same_grid(k, pot)
    a_rows, b_rows = shift_rows(pot, [epsilon]) if rows is None else rows
    orbits = _orbit_index(k.grid.n_sites, k.n_max)
    subs = substitute_affine_orbits(k, a_rows, b_rows, k.n_max - 1)
    tensors = [np.array(0.0)]
    for n in range(1, k.n_max + 1):
        stack = subs[n - 1].reshape(-1)
        subs[n - 1] = None  # free each order once it is summed
        first, *rest = orbits[n].drop
        acc = np.take(stack, first)
        acc += 0.0
        for position in rest:
            acc += np.take(stack, position)
        tensors.append(acc)
    return CorrelationHierarchy._trusted(k.grid, tensors)


@np.errstate(over="ignore", invalid="ignore")
def apply_generator(k, params: ScaleParams, pot, epsilon, rows=None) -> CorrelationHierarchy:
    """Full generator -death + z * birth on the truncated hierarchy.

    Order n is z * b_n - n * k_n: apply_birth's orbit values, scaled and
    less the death part (each of n particles dies at rate 1) in place.
    Like apply_birth, it works on k held at its orbits and unpacks a full
    k's result, so both parts read k at its representatives.  k is left
    unchanged; rows is apply_birth's.
    """
    if k.tensors[-1].ndim > 1:  # full tensors
        return unpack_hierarchy(apply_generator(pack_hierarchy(k), params, pot, epsilon, rows))
    generator = apply_birth(k, pot, epsilon, rows=rows)
    for n in range(1, k.n_max + 1):
        generator.tensors[n] *= params.z
        generator.tensors[n] -= k.tensors[n] * n
    return generator


def generator_gf_terms(k, theta: GridField, a_rows, b_rows):
    """(death, births): the death pairing sum_n n B_n(theta) and birth_gf_term per stacked epsilon.

    One _order_terms pass over k held at its orbits (a full k is packed
    once) takes theta as row 0 ahead of the E*N shifted rows, and one
    top-order contraction serves every birth term: einsum's value for a row
    does not depend on how many rows it is given.  A block whose a is all
    ones (epsilon = 0, or phi = 0) scales theta by exact ones, so its N
    top-order rows are one row, contracted once.  A sum that overflows reads
    inf or nan, as evaluate_gf does, and warns nothing.
    """
    require_same_grid(k, theta)
    if k.tensors[-1].ndim > 1:  # full tensors
        k = pack_hierarchy(k)
    nm = k.n_max
    dx = k.grid.spacing
    n = k.grid.n_sites
    orbits = _orbit_index(n, nm)
    scaled = a_rows * theta.values
    with np.errstate(over="ignore"):
        rows = np.concatenate([theta.values[np.newaxis], scaled + b_rows])
    death_terms, *terms = _order_terms(k, rows)
    keep = ~np.repeat(np.all(a_rows.reshape(-1, n * n) == 1.0, axis=1), n)
    keep[::n] = True  # each block's first row; np.cumsum(keep) - 1 maps a row to its source
    tops = _contract_leading(k.tensors[nm], scaled[keep], orbits)[np.cumsum(keep) - 1].tolist()
    top_weight, top_factorial = _pow_or_inf(dx, nm), math.factorial(nm)
    values = [_fsum_or_nan(row) - top * top_weight / top_factorial for row, top in zip(terms, tops)]
    thetas = theta.values.tolist()
    births = [
        dx * _fsum_or_nan([t * value for t, value in zip(thetas, values[i : i + n])])
        for i in range(0, len(values), n)
    ]
    return _fsum_or_nan([m * term for m, term in enumerate(death_terms)]), births


def birth_gf_term(k, theta: GridField, pot, epsilon) -> float:  # kept importable for bench/spans.py
    """sum_x dx theta(x) [B(a_x theta + b_x) - top-order term of B(a_x theta)].

    The subtracted term is the order-n_max product contribution that
    closure by zero removes from the tensor route; with it the pairing
    against the birth tensors is an exact identity.  The one-epsilon birth
    value of generator_gf_terms, which evaluates all sites x at once as rows.
    """
    require_same_grid(k, pot)
    return generator_gf_terms(k, theta, *shift_rows(pot, [epsilon]))[1][0]


def evaluate_generator_gf(k, theta, params: ScaleParams, pot, epsilon) -> float:
    """Direct functional-side evaluation of the generator, the duality oracle.

    -death + z * birth of one generator_gf_terms pass, as verify-bounds has
    it; equals evaluate_gf(apply_generator(k, ...), theta) exactly (up to
    roundoff) for symmetric hierarchies.
    """
    require_same_grid(k, pot)
    death, (birth,) = generator_gf_terms(k, theta, *shift_rows(pot, [epsilon]))
    return -death + params.z * birth


def exp_or_inf(x) -> float:
    """math.exp(x), or inf where it overflows: inf is still an upper bound."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def norm_bound_M(params: ScaleParams, pot: PairPotential) -> float:
    """Uniform numerator M of the scale estimate ||L B|| <= M/(gap) ||B||.

    M = alpha0 (1 + z alpha0 exp(||phi||_1/alpha - 1)); the same constant
    works for every epsilon because |a_x| <= 1 and ||b_x||_1 <= ||phi||_1
    for each of them.  It is inf when the exponential overflows.
    """
    return params.alpha0 * (
        1.0 + params.z * params.alpha0 * exp_or_inf(pot.norm_l1 / params.alpha - 1.0)
    )


def vlasov_gap_bound(eps, params, pot, alpha_prime, alpha_dprime) -> float:
    """Upper bound for ||(L_eps - L_limit) B|| / ||B|| across the scale gap.

    eps z ||phi||_inf e^{||phi||_1/alpha} ( ||phi||_1 alpha0 / gap + 4 alpha0^3 / (gap^2 e) ),
    gap = alpha_dprime - alpha_prime, valid for alpha <= alpha_prime < alpha_dprime <= alpha0.
    """
    if not (eps >= 0):
        raise InvalidArgumentError("eps must be non-negative")
    if not (
        params.alpha <= alpha_prime < alpha_dprime <= params.alpha0
    ):
        raise InvalidArgumentError(
            "need alpha <= alpha' < alpha'' <= alpha0, got %r < %r in [%r, %r]"
            % (alpha_prime, alpha_dprime, params.alpha, params.alpha0)
        )
    gap = float(alpha_dprime - alpha_prime)  # float arithmetic overflows to inf quietly
    try:
        spread = pot.norm_l1 * params.alpha0 / gap + 4.0 * params.alpha0**3 / (gap**2 * math.e)
    except (OverflowError, ZeroDivisionError):  # a power overflows, or gap**2 underflows to 0
        return math.inf  # inf is still an upper bound
    return eps * params.z * pot.norm_linf * exp_or_inf(pot.norm_l1 / params.alpha) * spread
