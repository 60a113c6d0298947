"""Shared oracles and assertions for the test suite.

The oracles here deliberately use naive loops (itertools tuple
enumeration, per-entry Python arithmetic) so they stay independent of the
vectorized production paths they check.
"""

import itertools
import math
from itertools import permutations

import numpy as np

from glauberlab.generators import shift_displacement_tables
from glauberlab.lattice import displacement_matrix


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


def _contract_trailing_oracle(tensor, weights, count):
    out = tensor
    for _ in range(count):
        out = np.einsum("...i,i->...", out, weights)
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
        row = [np.einsum("...i,i->...", row[p + 1], b_values) for p in range(nm - j + 1)]
        for m in range(nm - j + 1):
            acc[m] = acc[m] + weight * row[m]
    for m in range(1, nm + 1):
        for axis in range(m):
            shape = [1] * m
            shape[axis] = n
            acc[m] = acc[m] * a_values.reshape(shape)
    return acc


def shift_rows_oracle(pot, kind):
    """(a_rows, b_rows): row x holds the birth shift fields a_x, b_x."""
    disp = displacement_matrix(pot.grid)
    a_disp, b_disp = shift_displacement_tables(pot, kind)
    return a_disp[disp], b_disp[disp]


def apply_birth_oracle(k, pot, kind):
    """Birth tensors from one substitution per site plus the moveaxis sum."""
    n_sites = k.grid.n_sites
    if k.n_max == 0:
        return [np.array(0.0)]
    a_rows, b_rows = shift_rows_oracle(pot, kind)
    subs = [substitute_affine_oracle(k, a_rows[x], b_rows[x]) for x in range(n_sites)]
    tensors = [np.array(0.0)]
    for n in range(1, k.n_max + 1):
        stack = np.stack([subs[x][n - 1] for x in range(n_sites)])
        acc = np.zeros(stack.shape)
        for i in range(n):
            acc = acc + np.moveaxis(stack, 0, i)
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
        terms.append(weight * float(_contract_trailing_oracle(tensor, theta_values, n)))
    return math.fsum(terms)


def birth_gf_term_oracle(k, theta_values, pot, kind) -> float:
    """One evaluate_gf per birth site x, minus the order-n_max product term."""
    nm = k.n_max
    dx = k.grid.spacing
    a_rows, b_rows = shift_rows_oracle(pot, kind)
    contributions = []
    for x in range(k.grid.n_sites):
        shifted = a_rows[x] * theta_values + b_rows[x]
        scaled = a_rows[x] * theta_values
        top = float(_contract_trailing_oracle(k.tensors[nm], scaled, nm))
        top = top * dx**nm / math.factorial(nm)
        contributions.append(theta_values[x] * (evaluate_gf_oracle(k, shifted) - top))
    return dx * math.fsum(contributions)


def save_hierarchy_oracle(k, path):
    """Snapshot writer with one formatted line per np.ndindex entry."""
    lines = ["%d,%s,%d" % (k.grid.n_sites, repr(k.grid.length), k.n_max)]
    for n, tensor in enumerate(k.tensors):
        if n == 0:
            lines.append("0,%s" % repr(float(tensor)))
            continue
        for idx in np.ndindex(*tensor.shape):
            lines.append(
                "%d,%s,%s" % (n, ",".join(str(i) for i in idx), repr(float(tensor[idx])))
            )
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
