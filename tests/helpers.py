"""Shared oracles and assertions for the test suite.

The oracles here deliberately use naive loops (itertools tuple
enumeration, per-entry Python arithmetic) or independent dense algebra
(scipy's matrix exponential) so they stay independent of the vectorized
production paths they check.  They live here, not in the package, so
that `import glauberlab` needs numpy alone.
"""

import io
import itertools
import math
import os
import zipfile
from itertools import permutations
from pathlib import Path

import numpy as np
import scipy.linalg
from hypothesis import strategies as st

import glauberlab
from glauberlab.errors import GlauberLabError, InvalidArgumentError, MemoryGuardError
from glauberlab.generators import (
    apply_birth,
    apply_generator,
    norm_bound_M,
    shift_displacement_tables,
)
from glauberlab.hierarchy import (
    CorrelationHierarchy,
    ScaleParams,
    evaluate_gf,
    flat_dimension,
    max_abs_by_order,
    scale_norm,
)
from glauberlab.solver import step_radius, step_record
from glauberlab.lattice import (
    MEMORY_GUARD_ENTRIES,
    GridField,
    convolution_kernel,
    convolve_values,
    displacement_matrix,
    require_same_grid,
)

FD_STEP = 1e-5

# Valid range of every float key, as (min, max, exclude_min, exclude_max);
# solver.alpha and solver.alpha0 are bounded by the other's default.
FLOAT_RANGES = {
    "grid.length": (0.0, None, True, False),
    "potential.amplitude": (0.0, None, False, False),
    "potential.width": (0.0, None, True, False),
    "model.z": (0.0, None, True, False),
    "model.epsilon": (0.0, None, False, False),
    "solver.alpha": (0.0, 1.0, True, True),
    "solver.alpha0": (0.5, None, True, False),
    "solver.tol": (0.0, None, True, False),
    "time.t_final": (0.0, None, False, False),
    "time.substep_fraction": (0.0, 1.0, True, True),
    "vlasov.dt": (0.0, None, True, False),
    "initial.level": (0.0, None, False, False),
    "initial.cosine_amplitude": (0.0, None, False, False),
}

# the int keys, each in range and at one value far past it, and the other scheme
OTHER_KEYS = {
    "solver.m_max": st.integers(1, 80),
    "vlasov.sample_stride": st.one_of(st.integers(1, 50), st.just(10**9)),
    "rng.seed": st.one_of(st.integers(0, 2**32), st.just(2**64)),
    "vlasov.scheme": st.sampled_from(["rk4", "euler"]),
}


class PrecisionLossError(GlauberLabError):
    """A finite-difference estimate failed its internal consistency check."""

    code = "precision-loss"


def child_env(**overrides):
    """os.environ plus overrides, for a child Python that must import the
    glauberlab under test: its source root goes first on PYTHONPATH, since
    the test process may have found it through pytest's pythonpath."""
    src = str(Path(glauberlab.__file__).resolve().parents[1])
    env = {**os.environ, **overrides}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def shape_potential(shape, grid):
    """The "zero", "gaussian" (amplitude 0.5, width 1) or "tophat" (0.4, 1.5) potential."""
    if shape == "zero":
        return glauberlab.zero_potential(grid)
    if shape == "gaussian":
        return glauberlab.gaussian_potential(grid, 0.5, 1.0)
    return glauberlab.tophat_potential(grid, 0.4, 1.5)


def plant_signed_zeros(tensors, rng):
    """Set a quarter of the entries of each order >= 1 (at least two) to +0.0 and -0.0, in place."""
    for t in tensors[1:]:
        flat = t.reshape(-1)
        picks = rng.choice(flat.size, size=max(2, flat.size // 4), replace=False)
        flat[picks[0::2]] = 0.0
        flat[picks[1::2]] = -0.0


def representative_of_each_entry(shape):
    """Flat index of each entry's sorted index tuple, the representative of its orbit."""
    if not shape:
        return np.zeros(1, dtype=np.intp)
    tuples = np.indices(shape).reshape(len(shape), -1)
    return np.ravel_multi_index(np.sort(tuples, axis=0), shape)


def plant_signed_zeros_by_orbit(tensors, rng):
    """plant_signed_zeros over whole orbits: a quarter of each order's orbits (at least two), in place.

    A hierarchy that is symmetric bit for bit stays so.
    """
    for t in tensors[1:]:
        flat = t.reshape(-1)
        rep_of = representative_of_each_entry(t.shape)
        reps = np.unique(rep_of)
        picks = rng.choice(reps, size=max(2, reps.size // 4), replace=False)
        flat[np.isin(rep_of, picks[0::2])] = 0.0
        flat[np.isin(rep_of, picks[1::2])] = -0.0


def assert_orbit_bits(got, want):
    """Each entry of each got tensor holds the bits of want at the entry's representative.

    So got keeps want's bits at every sorted index tuple and is symmetric
    bit for bit, whatever want holds elsewhere.
    """
    assert [np.shape(g) for g in got] == [np.shape(w) for w in want]
    for g, w in zip(got, want):
        rep_of = representative_of_each_entry(np.shape(w))
        assert np.asarray(g).tobytes() == np.ravel(w)[rep_of].tobytes()


def count_constructions(monkeypatch):
    """Patch CorrelationHierarchy.__init__ to append 1 to the returned list per call."""
    built = []
    init = CorrelationHierarchy.__init__
    monkeypatch.setattr(
        CorrelationHierarchy, "__init__", lambda obj, *args: built.append(1) or init(obj, *args)
    )
    return built


def rel_err(a, b) -> float:
    scale = max(abs(a), abs(b))
    if scale == 0.0:
        return 0.0
    return abs(a - b) / scale


def brute_force_gf(k, theta_values) -> float:
    """Tuple-enumeration evaluation of the truncated functional."""
    n_sites = k.grid.n_sites
    dx = k.grid.spacing
    total = 0.0
    for n, tensor in enumerate(k.tensors):
        coeff = dx**n / math.factorial(n)
        block = 0.0
        for tup in itertools.product(range(n_sites), repeat=n):
            term = float(tensor[tup])
            for site in tup:
                term *= theta_values[site]
            block += term
        total += coeff * block
    return total


def assert_all_symmetric(k, tol=1e-12):
    for n, tensor in enumerate(k.tensors):
        if n < 2:
            continue
        for perm in permutations(range(n)):
            assert np.max(np.abs(tensor - np.transpose(tensor, perm))) <= tol, (
                "tensor %d not symmetric under %r" % (n, perm)
            )


def symmetrize_oracle(tensor):
    """Average of `tensor` over all n! axis permutations, one transpose each.

    Each entry's n! terms are summed with math.fsum: a plain running sum is
    itself up to about 2e-15 off the exact average at order 5.
    """
    stack = np.stack([np.transpose(tensor, perm) for perm in permutations(range(tensor.ndim))])
    return np.apply_along_axis(math.fsum, 0, stack) / math.factorial(tensor.ndim)


def lagrange_eval(nodes, values, x) -> float:
    total = 0.0
    for i, (xi, yi) in enumerate(zip(nodes, values)):
        weight = 1.0
        for j, xj in enumerate(nodes):
            if j != i:
                weight *= (x - xj) / (xi - xj)
        total += yi * weight
    return total


def loglog_slope(xs, ys) -> float:
    lx = [math.log(v) for v in xs]
    ly = [math.log(v) for v in ys]
    mx = sum(lx) / len(lx)
    my = sum(ly) / len(ly)
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sum(
        (a - mx) ** 2 for a in lx
    )


def _contract_leading_oracle(tensor, weights, count):
    out = tensor
    for _ in range(count):
        out = np.einsum("i,i...->...", weights, out)
    return out


def substitute_affine_oracle(k, a_values, b_values):
    """Tensors of theta -> B(a*theta + b) for one field pair, orders 0..n_max."""
    nm = k.n_max
    dx = k.grid.spacing
    n = k.grid.n_sites
    acc = [np.array(t, copy=True) for t in k.tensors]
    row = list(k.tensors)
    weight = 1.0
    for j in range(1, nm + 1):
        weight *= dx / j
        row = [np.einsum("i,i...->...", b_values, row[p + 1]) for p in range(nm - j + 1)]
        for m in range(nm - j + 1):
            acc[m] = acc[m] + weight * row[m]
    for m in range(1, nm + 1):
        for axis in range(m):
            shape = [1] * m
            shape[axis] = n
            acc[m] = acc[m] * a_values.reshape(shape)
    return acc


def shift_rows_oracle(pot, epsilon, tables=None):
    """(a_rows, b_rows): row x holds the birth shift fields a_x, b_x.

    tables, when given, is the per-displacement pair (a, b) to use instead
    of the production tables at epsilon.
    """
    disp = displacement_matrix(pot.grid)
    a_disp, b_disp = tables if tables is not None else shift_displacement_tables(pot, epsilon)
    return a_disp[disp], b_disp[disp]


def apply_birth_oracle(k, pot, epsilon, tables=None):
    """Birth tensors from one substitution per site plus the moveaxis sum."""
    n_sites = k.grid.n_sites
    if k.n_max == 0:
        return [np.array(0.0)]
    a_rows, b_rows = shift_rows_oracle(pot, epsilon, tables)
    subs = [substitute_affine_oracle(k, a_rows[x], b_rows[x]) for x in range(n_sites)]
    tensors = [np.array(0.0)]
    for n in range(1, k.n_max + 1):
        stack = np.stack([subs[x][n - 1] for x in range(n_sites)])
        acc = np.zeros(stack.shape)
        for i in range(n):
            acc = acc + np.moveaxis(stack, 0, i)
        tensors.append(acc)
    return tensors


def substitute_affine_rows_full(k, a_rows, b_rows, top):
    """Orders 0..top of the batched substitution with every operation run.

    The arithmetic order the tensor route must keep bit for bit at each
    sorted index tuple of a symmetric k: each order starts as a broadcast
    copy of k_m, every weighted row j = 1..n_max is added, and the a-rows
    multiply every axis, even where b is zero or a is one.
    """
    nm = k.n_max
    batch = (b_rows.shape[0],)
    acc = [np.broadcast_to(t, batch + t.shape).copy() for t in k.tensors[: top + 1]]
    nxt = [np.einsum("xi,i...->x...", b_rows, t, optimize=False) for t in k.tensors[1:]]
    weight = 1.0
    for j in range(1, nm + 1):
        weight *= k.grid.spacing / j
        row = nxt
        nxt = [np.einsum("xi,xi...->x...", b_rows, r, optimize=False) for r in row[1:]]
        for m in range(min(top, nm - j) + 1):
            row[m] *= weight
            acc[m] += row[m]
    for m in range(1, top + 1):
        for axis in range(m):
            shape = list(batch) + [1] * m
            shape[axis + 1] = -1
            acc[m] *= a_rows.reshape(shape)
    return acc


def apply_birth_full(k, pot, epsilon):
    """Birth tensors from substitute_affine_rows_full and a zeros-started moveaxis sum."""
    if k.n_max == 0:
        return [np.array(0.0)]
    a_rows, b_rows = shift_rows_oracle(pot, epsilon)
    subs = substitute_affine_rows_full(k, a_rows, b_rows, k.n_max - 1)
    tensors = [np.array(0.0)]
    for n in range(1, k.n_max + 1):
        acc = np.zeros(subs[n - 1].shape)
        for i in range(n):
            acc += np.moveaxis(subs[n - 1], 0, i)
        tensors.append(acc)
    return tensors


def evaluate_gf_oracle(k, theta_values) -> float:
    """B(theta) from one contraction per order, combined with math.fsum."""
    dx = k.grid.spacing
    terms = []
    weight = 1.0
    for n, tensor in enumerate(k.tensors):
        if n > 0:
            weight *= dx / n
        terms.append(weight * float(_contract_leading_oracle(tensor, theta_values, n)))
    return math.fsum(terms)


def variational_derivative_oracle(k, theta):
    """First variational derivative of B at theta, as an array over sites.

    deltaB(theta; x) = sum_{n<n_max} dx^n/n! sum_tuples k_{n+1}(x, ...) prod theta,
    each order's trailing axes contracted by matmul, its weight a plain power
    over math.factorial.
    """
    dx = k.grid.spacing
    out = np.zeros(k.grid.n_sites)
    for n in range(k.n_max):
        field = k.tensors[n + 1]
        for _ in range(n):
            field = field @ theta.values
        out += dx**n / math.factorial(n) * field
    return out


def plain_glauber_generator_oracle(k, params, pot):
    """Tensors of the plain Glauber generator, a_x = exp(-phi), b_x = a_x - 1.

    Built from the paper's unscaled shift, without any epsilon, so that the
    epsilon = 1 member of the family can be checked against it.
    """
    a_disp = np.exp(-pot.values_by_displacement)
    birth = apply_birth_oracle(k, pot, None, tables=(a_disp, a_disp - 1.0))
    tensors = [params.z * b - n * t for n, (t, b) in enumerate(zip(k.tensors, birth))]
    tensors[0] = np.array(0.0)
    return tensors


def apply_death(k):
    """Death part of the generator: order n is scaled by n (each of n particles dies at rate 1).

    The oracle of the death arithmetic apply_generator computes in place.
    """
    tensors = [n * t for n, t in enumerate(k.tensors)]
    tensors[0] = np.array(0.0)
    return CorrelationHierarchy._trusted(k.grid, tensors)


def apply_generator_formula(k, params, pot, epsilon):
    """Generator tensors as z * birth - death, one new array per operation.

    The formula apply_generator computed before it worked in place; both
    must give the same bits, signed zeros included.
    """
    death = apply_death(k).tensors
    birth = apply_birth(k, pot, epsilon).tensors
    return [np.array(0.0)] + [params.z * b - d for d, b in zip(death[1:], birth[1:])]


def taylor_evolve_full(apply, u0, t, m_max, tol, norm_alpha):
    """The Taylor loop on all N^n entries of each order.

    The arithmetic taylor_evolve must keep on the orbit values, at every
    representative: each term is apply(term) times t/m, added to the sum,
    until its scale norm drops below tol.  Returns (sum tensors, terms
    used, tail).
    """
    u = [x.copy() for x in u0.tensors]
    if t == 0.0:
        return u, 0, 0.0
    term = u0
    with np.errstate(over="ignore", invalid="ignore"):
        for m in range(1, m_max + 1):
            term = CorrelationHierarchy._trusted(u0.grid, [x * (t / m) for x in apply(term).tensors])
            u = [acc + x for acc, x in zip(u, term.tensors)]
            tail = scale_norm(max_abs_by_order(term), norm_alpha)
            if tail < tol:
                return u, m, tail
    raise AssertionError("no convergence in %d terms" % m_max)


def evolve_global_full(params, pot, u0, t_final, epsilon, m_max=60, tol=1e-12):
    """evolve_global's substeps over taylor_evolve_full and apply_generator on full tensors.

    Same scale (alpha0 = 1/z, alpha = alpha0/2), substeps of 0.9 step
    radii and step records; no envelope check.  Returns (solution, records).
    """
    z = params.z
    alpha0 = 1.0 / z
    gparams = ScaleParams(alpha0 / 2.0, alpha0, z)
    step = 0.9 * step_radius(norm_bound_M(gparams, pot), gparams.alpha, gparams.alpha0)
    u, now, records = u0, 0.0, []
    while t_final - now > 1e-12 * t_final:
        dt_step = min(step, t_final - now)
        tensors, terms, tail = taylor_evolve_full(
            lambda h: apply_generator(h, gparams, pot, epsilon), u, dt_step, m_max, tol, gparams.alpha
        )
        u = CorrelationHierarchy._trusted(u0.grid, tensors)
        now += dt_step
        records.append(step_record(now, u, z, gparams.alpha, terms, tail))
    return u, records


def contract_leading_full(tensor, rows, count):
    """Contract `count` leading axes of a full `tensor` with each row of `rows` (shape (R, N)).

    The full-tensor chain, one einsum per axis over all N^n entries: the
    bits hierarchy._contract_leading must keep at the representatives of a
    k that is symmetric bit for bit.
    """
    if count == 0:
        return np.broadcast_to(tensor, rows.shape[:1] + tensor.shape)
    out = np.einsum("xi,i...->x...", rows, tensor, optimize=False)
    for _ in range(count - 1):
        out = np.einsum("xi,xi...->x...", rows, out, optimize=False)
    return out


def fsum_or_nan(terms) -> float:
    try:
        return math.fsum(terms)
    except (OverflowError, ValueError):  # inf - inf, or a sum past the largest double
        return math.nan


def order_terms_full(k, rows):
    """Per row theta of `rows`, the order terms dx^n/n! sum_tuples k_n prod theta, from the full chain."""
    weight = 1.0
    per_order = []
    for n, tensor in enumerate(k.tensors):
        if n > 0:
            weight *= k.grid.spacing / n
        per_order.append([weight * v for v in contract_leading_full(tensor, rows, n).tolist()])
    return list(zip(*per_order))


def evaluate_gf_rows_full(k, rows):
    """evaluate_gf_rows from the full-tensor chain."""
    return [fsum_or_nan(terms) for terms in order_terms_full(k, rows)]


def generator_gf_terms_full(k, theta_values, a_rows, b_rows):
    """(death, births) of generator_gf_terms from the full-tensor chain.

    Theta, the shifted rows and the top-order rows are three separate
    contractions here, and every top-order row is contracted, where a is
    all ones too.
    """
    nm = k.n_max
    dx = k.grid.spacing
    n = k.grid.n_sites
    scaled = a_rows * theta_values
    with np.errstate(over="ignore"):
        values = evaluate_gf_rows_full(k, scaled + b_rows)
    tops = contract_leading_full(k.tensors[nm], scaled, nm).tolist()
    terms = [value - top * dx**nm / math.factorial(nm) for value, top in zip(values, tops)]
    births = [
        dx * fsum_or_nan([t * term for t, term in zip(theta_values.tolist(), terms[i : i + n])])
        for i in range(0, len(terms), n)
    ]
    (death_terms,) = order_terms_full(k, theta_values[np.newaxis])
    return fsum_or_nan([m * term for m, term in enumerate(death_terms)]), births


def birth_gf_term_oracle(k, theta_values, pot, epsilon) -> float:
    """One evaluate_gf per birth site x, minus the order-n_max product term."""
    nm = k.n_max
    dx = k.grid.spacing
    a_rows, b_rows = shift_rows_oracle(pot, epsilon)
    contributions = []
    for x in range(k.grid.n_sites):
        shifted = a_rows[x] * theta_values + b_rows[x]
        scaled = a_rows[x] * theta_values
        top = float(_contract_leading_oracle(k.tensors[nm], scaled, nm))
        top = top * dx**nm / math.factorial(nm)
        contributions.append(theta_values[x] * (evaluate_gf_oracle(k, shifted) - top))
    return dx * math.fsum(contributions)


def save_hierarchy_oracle(k, path):
    """Snapshot writer that stores one hand-built .npy member per entry.

    Members n_sites, length, k0..k{n_max} in that order, uncompressed, each with
    the fixed 1980 stamp and a zip64 local header, as np.savez writes them.
    """
    entries = {"n_sites": np.int64(k.grid.n_sites), "length": np.float64(k.grid.length)}
    entries.update(("k%d" % n, t) for n, t in enumerate(k.tensors))
    with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED) as zf:
        for key, value in entries.items():
            value = np.asarray(value)
            header = io.BytesIO()
            np.lib.format.write_array_header_1_0(
                header, {"descr": value.dtype.str, "fortran_order": False, "shape": value.shape}
            )
            info = zipfile.ZipInfo(key + ".npy", date_time=(1980, 1, 1, 0, 0, 0))
            with zf.open(info, "w", force_zip64=True) as fh:
                fh.write(header.getvalue() + value.tobytes(order="C"))


def _csv_cell_oracle(cell):
    """One cell by its own per-type rules, independent of harness._fmt."""
    if isinstance(cell, (bool, np.bool_)):
        return "true" if cell else "false"
    if isinstance(cell, (float, np.floating)):
        return repr(float(cell))
    if isinstance(cell, (int, np.integer)):
        return str(int(cell))
    return cell  # a str, as it is


def write_csv_oracle(rows, path):
    """CSV writer that formats every cell by _csv_cell_oracle's per-type rules."""
    with open(path, "w", newline="\n") as fh:
        for row in rows:
            fh.write(",".join([_csv_cell_oracle(cell) for cell in row]) + "\n")


def flatten(k):
    """Concatenate all tensor entries (orders ascending, C order)."""
    return np.concatenate([t.ravel() for t in k.tensors])


def unflatten(grid, n_max, vector):
    """Inverse of flatten; validates the flat dimension."""
    vec = np.asarray(vector, dtype=np.float64)
    expected = flat_dimension(grid, n_max)
    if vec.shape != (expected,):
        raise InvalidArgumentError(
            "flat vector has shape %r, expected (%d,)" % (vec.shape, expected)
        )
    tensors = []
    offset = 0
    for n in range(n_max + 1):
        size = grid.n_sites**n
        tensors.append(vec[offset : offset + size].reshape((grid.n_sites,) * n).copy())
        offset += size
    return CorrelationHierarchy(grid, tensors)


def assemble_matrix(grid, n_max, params, pot, epsilon):
    """Dense matrix of the generator on flattened hierarchies.

    Column j is the flattened image of the j-th standard basis vector; the
    matrix certifies linearity and feeds the exponentiation oracle.
    """
    dim = flat_dimension(grid, n_max)
    if dim * dim > MEMORY_GUARD_ENTRIES:
        raise MemoryGuardError(
            "generator matrix would hold %d entries (guard %d)"
            % (dim * dim, MEMORY_GUARD_ENTRIES)
        )
    matrix = np.zeros((dim, dim))
    for j in range(dim):
        basis = np.zeros(dim)
        basis[j] = 1.0
        image = apply_generator(unflatten(grid, n_max, basis), params, pot, epsilon)
        matrix[:, j] = flatten(image)
    return matrix


def matrix_exp_oracle(matrix, v, t):
    """e^{t A} v by dense scaling-and-squaring, independent of the Taylor path."""
    a = np.asarray(matrix, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidArgumentError("matrix must be square")
    if a.size > MEMORY_GUARD_ENTRIES:
        raise MemoryGuardError(
            "matrix holds %d entries (guard %d)" % (a.size, MEMORY_GUARD_ENTRIES)
        )
    vec = np.asarray(v, dtype=np.float64)
    if vec.shape != (a.shape[0],):
        raise InvalidArgumentError("vector shape %r does not match matrix" % (vec.shape,))
    return scipy.linalg.expm(t * a) @ vec


def taylor_coefficient_fd(k, n, sites, step=FD_STEP) -> float:
    """Recover k_n(sites) from B by mixed central finite differences.

    Evaluates B along theta = sum_i s_i * step * indicator(sites[i]) over all
    sign patterns s in {-1,+1}^n and divides the alternating sum by
    (2*step)^n dx^n.  An independent oracle for the stored tensors: the
    estimate must reproduce k_n(sites).

    Raises PrecisionLossError when the estimate at `step` and at `2*step`
    disagree by more than 1e-6 (relative to max(1, |estimate|)), which
    flags step/roundoff failure.
    """
    if not (0 <= n <= k.n_max):
        raise InvalidArgumentError("order %r outside 0..n_max" % (n,))
    sites = [int(s) for s in sites]
    if len(sites) != n:
        raise InvalidArgumentError("need %d sites, got %d" % (n, len(sites)))
    for s in sites:
        if not (0 <= s < k.grid.n_sites):
            raise InvalidArgumentError("site index %r out of range" % (s,))
    if n == 0:
        return evaluate_gf(k, GridField(k.grid, np.zeros(k.grid.n_sites)))

    def estimate(h):
        total = 0.0
        for pattern in range(2**n):
            theta = np.zeros(k.grid.n_sites)
            sign_prod = 1.0
            for i, site in enumerate(sites):
                s = 1.0 if (pattern >> i) & 1 else -1.0
                sign_prod *= s
                theta[site] += s * h
            total += sign_prod * evaluate_gf(k, GridField(k.grid, theta))
        return total / (2.0 * h) ** n / k.grid.spacing**n

    est = estimate(step)
    check = estimate(2.0 * step)
    if abs(est - check) > 1e-6 * max(1.0, abs(est)):
        raise PrecisionLossError(
            "finite-difference estimates at step and 2*step differ by %.3g"
            % abs(est - check)
        )
    return est


def integrate_formula(rho0, cfg, pot):
    """The kinetic integrator in expression form, one new array per operation.

    The arithmetic integrate must keep while it steps in arrays it owns:
    the right-hand side -v + z exp(-(phi * v)) and the textbook Euler and
    RK4 updates, dt steps to t_final plus a remainder step, sampled at t = 0,
    every sample_stride-th step and the final time.  Returns (final values,
    trajectory).
    """
    kernel = convolution_kernel(pot)
    dx = pot.grid.spacing

    def rhs(v):
        return -v + cfg.z * np.exp(-convolve_values(kernel, v, dx))

    def step(v, h):
        if cfg.scheme == "euler":
            return v + h * rhs(v)
        k1 = rhs(v)
        k2 = rhs(v + 0.5 * h * k1)
        k3 = rhs(v + 0.5 * h * k2)
        k4 = rhs(v + h * k3)
        return v + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    n_full = int(math.floor(cfg.t_final / cfg.dt + 1e-9))
    remainder = cfg.t_final - n_full * cfg.dt
    steps = [(cfg.dt, i * cfg.dt) for i in range(1, n_full + 1)]
    if remainder >= 1e-9 * cfg.dt:
        steps.append((remainder, cfg.t_final))
    values = rho0.values.copy()
    trajectory = [(0.0, values.copy())]
    with np.errstate(over="ignore"):
        for i, (h, t) in enumerate(steps, start=1):
            values = step(values, h)
            if i % cfg.sample_stride == 0 or i == len(steps):
                trajectory.append((t, values.copy()))
    return values, trajectory


def exponential_gf_eval(rho, theta) -> float:
    """Product-form functional exp(sum_x rho(x) theta(x) dx)."""
    require_same_grid(rho, theta)
    return math.exp(float(np.sum(rho.values * theta.values)) * rho.grid.spacing)


def convolve_oracle(samples, values, dx):
    """Periodic convolution by a double loop with a correctly rounded sum.

    samples[d] is phi at displacement d; entry x is
    fsum_y samples[(x - y) mod N] * values[y], times dx.
    """
    n = len(samples)
    return [
        math.fsum(float(samples[(x - y) % n]) * float(values[y]) for y in range(n)) * dx
        for x in range(n)
    ]
