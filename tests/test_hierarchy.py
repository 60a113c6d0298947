import inspect
import io
import math
import pickle
import struct
import sys
import time
import tracemalloc
import warnings
import zipfile
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import glauberlab as gl
from glauberlab import hierarchy
from glauberlab.errors import (
    InvalidArgumentError,
    MemoryGuardError,
    NonfiniteStateError,
)
from glauberlab.hierarchy import (
    _symmetrize_tensor,
    flat_dimension,
    max_abs_by_order,
)

from helpers import (
    PrecisionLossError,
    assert_all_symmetric,
    assert_orbit_bits,
    brute_force_gf,
    count_constructions,
    evaluate_gf_oracle,
    flatten,
    lagrange_eval,
    rel_err,
    save_hierarchy_oracle,
    substitute_affine_oracle,
    symmetrize_oracle,
    taylor_coefficient_fd,
    unflatten,
    variational_derivative_oracle,
)


def small_random_hierarchy(n_sites=4, n_max=2, seed=0, envelope=1.0):
    grid = gl.make_grid(n_sites, float(n_sites))
    rng = np.random.default_rng(seed)
    return gl.random_ruelle_hierarchy(grid, n_max, rng, envelope=envelope), rng


def test_scale_params_validation():
    gl.ScaleParams(0.5, 1.0, 1.0)
    with pytest.raises(InvalidArgumentError):
        gl.ScaleParams(1.0, 0.5, 1.0)
    with pytest.raises(InvalidArgumentError):
        gl.ScaleParams(0.5, 1.0, 0.0)
    for bad in (-0.1, math.nan):  # nan failed no `epsilon < 0` test
        with pytest.raises(InvalidArgumentError, match="epsilon must be non-negative"):
            gl.ScaleParams(0.5, 1.0, 1.0, epsilon=bad)


def test_exponential_hierarchy_zero_density():
    grid = gl.make_grid(8, 8.0)
    k = gl.exponential_hierarchy(gl.constant_field(grid, 0.0), 3)
    assert float(k.tensors[0]) == 1.0
    for n in range(1, 4):
        assert np.all(k.tensors[n] == 0.0)


def test_exponential_hierarchy_product_entries():
    grid = gl.make_grid(8, 8.0)
    k = gl.exponential_hierarchy(gl.constant_field(grid, 0.3), 2)
    assert np.allclose(k.tensors[2], 0.09, rtol=1e-14)
    rng = np.random.default_rng(1)
    rho = gl.GridField(grid, rng.uniform(0.1, 1.0, 8))
    k3 = gl.exponential_hierarchy(rho, 3)
    for a, b, c in [(0, 1, 2), (5, 5, 7), (3, 0, 6)]:
        assert math.isclose(
            k3.tensors[3][a, b, c],
            rho.values[a] * rho.values[b] * rho.values[c],
            rel_tol=1e-14,
        )


def test_memory_guard():
    grid = gl.make_grid(10, 10.0)
    with pytest.raises(MemoryGuardError):
        gl.zero_hierarchy(grid, 8)  # 10^8 entries
    with pytest.raises(MemoryGuardError):
        gl.exponential_hierarchy(gl.constant_field(grid, 1.0), 8)


def test_memory_guard_is_one_check_made_before_allocation(tmp_path):
    # Every builder must refuse a top tensor over the 1e7 guard with the same
    # message before allocating it: make_grid and the snapshot loader refuse
    # 3163 sites (3163^2 = 10004569 entries) at any order, the hierarchy
    # builders order 3 on 216 sites (216^3 = 10077696 entries).
    grid = gl.make_grid(216, 216.0)
    order1, order2 = tmp_path / "big1.npz", tmp_path / "big2.npz"
    # the headers say (3163, 1) and (3163, 2); the tensors behind them are never read
    write_archive(order1, archive_entries(3163, 3163.0, [np.array(1.0)] * 2))
    write_archive(order2, archive_entries(3163, 3163.0, [np.array(1.0)] * 3))
    builders = [
        (lambda: gl.make_grid(3163, 3163.0), 10004569),
        (lambda: gl.zero_hierarchy(grid, 3), 10077696),
        (lambda: gl.exponential_hierarchy(gl.constant_field(grid, 0.5), 3), 10077696),
        (lambda: gl.random_ruelle_hierarchy(grid, 3, np.random.default_rng(0)), 10077696),
        (lambda: gl.load_hierarchy(order1), 10004569),
        (lambda: gl.load_hierarchy(order2), 10004569),
    ]
    for build, entries in builders:
        tracemalloc.start()
        try:
            with pytest.raises(
                MemoryGuardError,
                match=r"^top tensor would hold %d entries \(guard 10000000\)$" % entries,
            ):
                build()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


def test_builders_refuse_a_negative_order():
    # random_ruelle_hierarchy returned an order-0 hierarchy at n_max = -2
    grid = gl.make_grid(4, 4.0)
    builders = [
        lambda: gl.zero_hierarchy(grid, -2),
        lambda: gl.exponential_hierarchy(gl.constant_field(grid, 0.5), -2),
        lambda: gl.random_ruelle_hierarchy(grid, -2, np.random.default_rng(0)),
    ]
    for build in builders:
        with pytest.raises(InvalidArgumentError, match="^n_max must be an integer >= 0$"):
            build()


def test_builders_share_one_order_gate():
    # zero, exponential and random_ruelle each restated the gate, and one drifted
    refusal = '"n_max must be an integer >= 0"'
    assert inspect.getsource(hierarchy).count(refusal) == 1
    assert refusal in inspect.getsource(hierarchy._require_order)


def test_builders_trust_what_they_build(monkeypatch):
    # the constructor's shape and finiteness scan is for tensors from outside
    grid = gl.make_grid(4, 4.0)
    rho = gl.GridField(grid, np.array([0.5, 0.25, 1.5, 2.0]))
    built = count_constructions(monkeypatch)
    builds = [gl.zero_hierarchy(grid, 3), gl.exponential_hierarchy(rho, 3)]
    assert built == []
    for k in builds:
        checked = gl.CorrelationHierarchy(grid, k.tensors)
        assert [(t.dtype, t.shape, t.tobytes()) for t in k.tensors] == [
            (t.dtype, t.shape, t.tobytes()) for t in checked.tensors
        ]


def test_evaluate_gf_constant_term():
    k, rng = small_random_hierarchy(seed=2)
    theta = gl.constant_field(k.grid, 0.0)
    assert gl.evaluate_gf(k, theta) == float(k.tensors[0])


def test_evaluate_gf_truncated_exponential_identity():
    grid = gl.make_grid(8, 8.0)
    k = gl.exponential_hierarchy(gl.constant_field(grid, 0.3), 3)
    theta = gl.constant_field(grid, 0.25)
    u = 0.3 * 0.25 * 8.0
    expected = sum(u**n / math.factorial(n) for n in range(4))
    assert math.isclose(gl.evaluate_gf(k, theta), expected, rel_tol=1e-13)


def test_evaluate_gf_matches_brute_force():
    k, rng = small_random_hierarchy(n_sites=4, n_max=2, seed=3)
    for _ in range(5):
        theta = gl.GridField(k.grid, rng.uniform(-1.0, 1.0, 4))
        assert rel_err(gl.evaluate_gf(k, theta), brute_force_gf(k, theta.values)) <= 1e-12


def test_evaluate_gf_is_degree_nmax_polynomial():
    k, rng = small_random_hierarchy(n_sites=4, n_max=3, seed=4)
    theta = gl.GridField(k.grid, rng.uniform(-0.8, 0.8, 4))
    nodes = [1.0, 2.0, 3.0, 4.0]
    values = [
        gl.evaluate_gf(k, gl.GridField(k.grid, s * theta.values)) for s in nodes
    ]
    for probe in (0.31, -1.2, 2.7):
        direct = gl.evaluate_gf(k, gl.GridField(k.grid, probe * theta.values))
        assert rel_err(direct, lagrange_eval(nodes, values, probe)) <= 1e-9


def test_variational_derivative_at_zero_is_first_tensor():
    k, _ = small_random_hierarchy(n_sites=6, n_max=3, seed=5)
    field = variational_derivative_oracle(k, gl.constant_field(k.grid, 0.0))
    for x in range(6):
        assert field[x] == k.tensors[1][x]


def test_variational_derivative_matches_finite_difference():
    k, rng = small_random_hierarchy(n_sites=4, n_max=2, seed=6)
    theta = gl.GridField(k.grid, rng.uniform(-0.5, 0.5, 4))
    h = 1e-5
    field = variational_derivative_oracle(k, theta)
    for x in range(4):
        bumped = theta.values.copy()
        bumped[x] += h
        dipped = theta.values.copy()
        dipped[x] -= h
        fd = (
            gl.evaluate_gf(k, gl.GridField(k.grid, bumped))
            - gl.evaluate_gf(k, gl.GridField(k.grid, dipped))
        ) / (2 * h * k.grid.spacing)
        assert rel_err(field[x], fd) <= 1e-8


def test_variational_derivative_exponential_tail():
    # For a product hierarchy, deltaB(theta;x) - B(theta) rho(x) is exactly
    # the dropped top-order term rho(x) u^n_max / n_max!.
    grid = gl.make_grid(8, 8.0)
    rng = np.random.default_rng(7)
    rho = gl.GridField(grid, rng.uniform(0.1, 0.5, 8))
    k = gl.exponential_hierarchy(rho, 6)
    theta = gl.GridField(grid, rng.uniform(-0.05, 0.05, 8))
    u = float(np.sum(rho.values * theta.values)) * grid.spacing
    b_val = gl.evaluate_gf(k, theta)
    field = variational_derivative_oracle(k, theta)
    for x in range(8):
        tail = abs(rho.values[x]) * abs(u) ** 6 / math.factorial(6)
        diff = abs(field[x] - b_val * rho.values[x])
        assert diff <= tail * (1 + 1e-9) + 1e-15


def test_substitute_affine_identity():
    k, _ = small_random_hierarchy(n_sites=4, n_max=3, seed=8)
    out = gl.substitute_affine(k, gl.constant_field(k.grid, 1.0), gl.constant_field(k.grid, 0.0))
    for a, b in zip(out.tensors, k.tensors):
        assert np.array_equal(a, b)


def test_substitute_affine_zero_scale():
    k, rng = small_random_hierarchy(n_sites=4, n_max=2, seed=9)
    b = gl.GridField(k.grid, rng.uniform(-0.5, 0.5, 4))
    out = gl.substitute_affine(k, gl.constant_field(k.grid, 0.0), b)
    assert rel_err(float(out.tensors[0]), gl.evaluate_gf(k, b)) <= 1e-12
    for n in range(1, 3):
        assert np.all(out.tensors[n] == 0.0)


def test_substitute_affine_evaluation_consistency():
    k, rng = small_random_hierarchy(n_sites=4, n_max=2, seed=10)
    a = gl.GridField(k.grid, rng.uniform(0.2, 1.0, 4))
    b = gl.GridField(k.grid, rng.uniform(-0.4, 0.4, 4))
    out = gl.substitute_affine(k, a, b)
    assert_all_symmetric(out)
    for _ in range(10):
        theta = gl.GridField(k.grid, rng.uniform(-1.0, 1.0, 4))
        shifted = gl.GridField(k.grid, a.values * theta.values + b.values)
        assert rel_err(gl.evaluate_gf(out, theta), gl.evaluate_gf(k, shifted)) <= 1e-10


def test_taylor_coefficient_fd_order_zero():
    k, _ = small_random_hierarchy(seed=11)
    assert taylor_coefficient_fd(k, 0, []) == float(k.tensors[0])


def test_taylor_coefficient_fd_exponential_first_order():
    grid = gl.make_grid(8, 8.0)
    rng = np.random.default_rng(12)
    rho = gl.GridField(grid, rng.uniform(0.1, 1.0, 8))
    k = gl.exponential_hierarchy(rho, 3)
    for x in (0, 3, 7):
        assert abs(taylor_coefficient_fd(k, 1, [x]) - rho.values[x]) <= 1e-7


def test_taylor_coefficient_fd_second_order():
    k, _ = small_random_hierarchy(n_sites=4, n_max=2, seed=13)
    for pair in [(0, 1), (2, 2), (3, 1)]:
        est = taylor_coefficient_fd(k, 2, pair)
        assert abs(est - k.tensors[2][pair]) <= 1e-6


def test_taylor_coefficient_fd_flags_step_failure():
    # On a cubic functional a first-order estimate at a huge step carries
    # an O(step^2) truncation error that the step-doubling residual sees.
    k, _ = small_random_hierarchy(n_sites=4, n_max=3, seed=14)
    with pytest.raises(PrecisionLossError):
        taylor_coefficient_fd(k, 1, [2], step=0.7)


def test_scale_norm_examples_and_oracle():
    grid = gl.make_grid(8, 8.0)
    unit = gl.zero_hierarchy(grid, 3)
    unit.tensors[0] = np.array(1.0)
    for alpha in (0.1, 1.0, 3.0):
        assert gl.scale_norm(gl.max_abs_by_order(unit), alpha) == 1.0
    c = 0.6
    k = gl.exponential_hierarchy(gl.constant_field(grid, c), 3)
    for alpha in (0.5, 1.0, 2.5):
        assert math.isclose(
            gl.scale_norm(gl.max_abs_by_order(k), alpha), max(1.0, (alpha * c) ** 3), rel_tol=1e-12
        )
    rand, _ = small_random_hierarchy(n_sites=4, n_max=3, seed=15)
    alpha = 1.3
    oracle = max(
        alpha**n * max(abs(float(v)) for v in np.ravel(t))
        for n, t in enumerate(rand.tensors)
    )
    assert math.isclose(gl.scale_norm(gl.max_abs_by_order(rand), alpha), oracle, rel_tol=1e-14)
    # alpha^n overflows: inf bounds the non-zero orders, zero orders add 0, not nan
    assert gl.scale_norm(gl.max_abs_by_order(unit), 1e300) == 1.0
    assert gl.scale_norm(gl.max_abs_by_order(k), 1e300) == math.inf


@pytest.mark.parametrize(
    "profile",
    [[math.nan, 0.0, 1.0], [0.0, math.nan, 1.0], [0.0, 1.0, math.nan], [1.0, 0.0, math.nan]],
)
def test_scale_norm_propagates_a_nan_order(profile):
    # Python's max skips a nan unless it comes first, so a generator term
    # (order 0 always 0.0) hid a nan at any higher order
    for alpha in (0.5, 1.0, 1e300):
        assert math.isnan(gl.scale_norm(profile, alpha))


def test_ruelle_margin_of_a_nan_entry_is_nan():
    grid = gl.make_grid(3, 3.0)
    second = np.full((3, 3), 0.25)
    second[1, 2] = math.nan
    k = gl.CorrelationHierarchy._trusted(grid, [np.array(0.0), np.ones(3), second])
    assert math.isnan(gl.ruelle_margin(k, 0.5))


def test_scale_norm_monotone_in_alpha():
    rand, _ = small_random_hierarchy(n_sites=4, n_max=3, seed=16)
    alphas = [0.2, 0.5, 0.9, 1.4, 2.0]
    norms = [gl.scale_norm(gl.max_abs_by_order(rand), a) for a in alphas]
    assert all(n1 <= n2 + 1e-15 for n1, n2 in zip(norms, norms[1:]))


def test_ruelle_margin_examples_and_oracle():
    grid = gl.make_grid(8, 8.0)
    z = 0.7
    saturated = gl.exponential_hierarchy(gl.constant_field(grid, z), 3)
    assert abs(gl.ruelle_margin(saturated, z) - 1.0) <= 1e-12
    half = gl.exponential_hierarchy(gl.constant_field(grid, z / 2), 3)
    assert gl.ruelle_margin(half, z) == 1.0  # attained at order 0
    rand, _ = small_random_hierarchy(n_sites=4, n_max=3, seed=17)
    oracle = max(
        z**-n * max(abs(float(v)) for v in np.ravel(t))
        for n, t in enumerate(rand.tensors)
    )
    assert math.isclose(gl.ruelle_margin(rand, z), oracle, rel_tol=1e-14)


def test_random_ruelle_hierarchy_is_its_symmetrized_draws_bit_for_bit():
    # the tensors are scaled in place and wrapped unvalidated: same stream, law and bits
    grid = gl.make_grid(5, 5.0)
    for n_max, envelope in ((0, 0.5), (4, 0.5), (3, 2.5)):
        rng = np.random.default_rng(31)
        k = gl.random_ruelle_hierarchy(grid, n_max, rng, envelope=envelope)
        replay = np.random.default_rng(31)
        want = [np.array(replay.uniform(0.5, 1.5))]
        for order in range(1, n_max + 1):
            raw = replay.uniform(-1.0, 1.0, size=(grid.n_sites,) * order)
            want.append(_symmetrize_tensor(raw, n_max) * envelope**order)
        assert [(t.dtype, t.shape, t.tobytes()) for t in k.tensors] == [
            (w.dtype, w.shape, w.tobytes()) for w in want
        ]
        assert rng.uniform() == replay.uniform()  # both streams stop at the same draw
    # a nan envelope would give nan entries, which nothing validates any more
    with pytest.raises(NonfiniteStateError):
        gl.random_ruelle_hierarchy(grid, 2, np.random.default_rng(0), envelope=math.nan)


def test_flatten_unflatten_and_max_abs_difference():
    k1, rng = small_random_hierarchy(n_sites=4, n_max=2, seed=20)
    k2 = gl.random_ruelle_hierarchy(k1.grid, 2, rng)
    flat = flatten(k1)
    assert flat.shape == (flat_dimension(k1.grid, 2),)
    back = unflatten(k1.grid, 2, flat)
    for n in range(3):
        assert np.array_equal(back.tensors[n], k1.tensors[n])
    with pytest.raises(InvalidArgumentError):
        unflatten(k1.grid, 2, flat[:-1])

    diff = gl.max_abs_difference(k1, k2)
    oracle = max(
        np.max(np.abs(a - b)) for a, b in zip(k1.tensors, k2.tensors)
    )
    assert diff == oracle


def test_orbit_symmetrizer_matches_permutation_oracle():
    grid = gl.make_grid(4, 4.0)
    rng = np.random.default_rng(24)
    raw = [rng.uniform(-1.0, 1.0, size=(4,) * n) for n in range(7)]
    sym = [_symmetrize_tensor(t, 6) for t in raw]
    for t, s in zip(raw[2:], sym[2:]):
        assert np.max(np.abs(s - symmetrize_oracle(t))) <= 1e-15
        assert np.max(np.abs(_symmetrize_tensor(s, 6) - s)) <= 1e-15
    assert_all_symmetric(gl.CorrelationHierarchy(grid, sym), tol=0.0)


def test_order_two_symmetrizer_is_the_orbit_mean_bit_for_bit():
    # (t + t.T) / 2 adds an orbit's two entries as bincount would, and halves exactly
    t = np.random.default_rng(25).uniform(-1.0, 1.0, size=(9, 9))
    sites = np.arange(9)
    ids = np.minimum.outer(sites, sites) * 9 + np.maximum.outer(sites, sites)
    means = np.bincount(ids.ravel(), weights=t.ravel(), minlength=81)
    means /= np.maximum(np.bincount(ids.ravel(), minlength=81), 1)
    assert _symmetrize_tensor(t, 2).tobytes() == means[ids].tobytes()


def test_sampled_hierarchies_are_symmetric_bit_for_bit():
    grid = gl.make_grid(12, 4.0)
    for n_max in range(6):
        k = gl.random_ruelle_hierarchy(grid, n_max, np.random.default_rng(40 + n_max), envelope=0.8)
        assert_all_symmetric(k, tol=0.0)
    # 12! permutations are too many to list: adjacent swaps generate them all
    k = gl.random_ruelle_hierarchy(gl.make_grid(2, 4.0), 12, np.random.default_rng(46))
    for tensor in k.tensors[2:]:
        for axis in range(tensor.ndim - 1):
            assert np.array_equal(tensor, np.swapaxes(tensor, axis, axis + 1))


def test_orbit_index_is_built_once_per_shape():
    # an orbit index costs several samples to build; sampling a shape again reads the cache
    hierarchy._orbit_index.cache_clear()
    rng = np.random.default_rng(47)
    shapes = [(5, 4), (3, 6)]
    for _ in range(3):
        for n_sites, n_max in shapes:
            gl.random_ruelle_hierarchy(gl.make_grid(n_sites, 4.0), n_max, rng)
    info = hierarchy._orbit_index.cache_info()
    assert info.misses == len(shapes)
    top = hierarchy._orbit_index(5, 4)[-1]
    ids, sizes = top.ids, top.sizes
    assert ids.shape == (5**4,) and len(sizes) == math.comb(5 + 4 - 1, 4)
    assert sizes.sum() == 5**4 and not ids.flags.writeable and not sizes.flags.writeable


@pytest.mark.parametrize("n_sites,n_max", [(24, 4), (128, 3)])
def test_first_sample_of_a_shape_peaks_below_six_top_tensors(n_sites, n_max):
    # building the orbit index and sampling peak at 3.2 and 4.1 top tensors;
    # the coset recursion it replaced peaked at 3.1 and 3.0
    grid = gl.make_grid(n_sites, 4.0)
    hierarchy._orbit_index.cache_clear()
    tracemalloc.start()
    try:
        gl.random_ruelle_hierarchy(grid, n_max, np.random.default_rng(48))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        hierarchy._orbit_index.cache_clear()
    assert peak <= 6 * 8 * n_sites**n_max


def test_snapshot_roundtrip_is_exact(tmp_path):
    k, _ = small_random_hierarchy(n_sites=4, n_max=2, seed=21)
    path = tmp_path / "snapshot.txt"
    gl.save_hierarchy(k, path)
    loaded = gl.load_hierarchy(path)
    assert loaded.grid == k.grid
    assert np.array_equal(flatten(loaded), flatten(k))


def test_max_abs_by_order():
    k, _ = small_random_hierarchy(n_sites=4, n_max=2, seed=22)
    values = max_abs_by_order(k)
    assert values == [float(np.max(np.abs(t))) for t in k.tensors]


SPECIAL_ENTRIES = (
    0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310,
    sys.float_info.max, -sys.float_info.max, math.inf, -math.inf, math.nan,
)


@st.composite
def raw_tensors(draw):
    """Tensors of orders 0..n_max on 2 or 3 sites, any float64 entries."""
    n_sites = draw(st.integers(2, 3))
    entries = st.one_of(st.sampled_from(SPECIAL_ENTRIES), st.floats(width=64))
    return [
        draw(arrays(np.float64, (n_sites,) * n, elements=entries))
        for n in range(draw(st.integers(0, 3)) + 1)
    ]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(tensors=raw_tensors())
@example(tensors=[np.array(-0.0), np.full(2, -0.0), np.full((2, 2), -0.0)])
@example(tensors=[np.array(-math.nan), np.array([-0.0, 0.0]), np.array([[-math.inf, 1.0], [0.0, -0.0]])])
def test_max_abs_by_order_is_the_abs_scan_bit_for_bit(tensors):
    grid = gl.make_grid(tensors[-1].shape[0] if len(tensors) > 1 else 2, 1.0)
    profile = max_abs_by_order(gl.CorrelationHierarchy._trusted(grid, tensors))
    for got, t in zip(profile, tensors):
        want = float(np.max(np.abs(t)))
        if math.isnan(want):  # which nan's payload survives is numpy's choice
            assert math.isnan(got) and math.copysign(1.0, got) == 1.0
        else:
            assert struct.pack("<d", got) == struct.pack("<d", want)


def test_grid_and_index_error_paths():
    k, _ = small_random_hierarchy(n_sites=4, n_max=2, seed=23)
    other = gl.constant_field(gl.make_grid(8, 8.0), 0.1)
    with pytest.raises(gl.GridMismatchError):
        gl.evaluate_gf(k, other)
    with pytest.raises(gl.GridMismatchError):
        gl.substitute_affine(k, other, other)
    with pytest.raises(InvalidArgumentError):
        taylor_coefficient_fd(k, 3, [0, 1, 2])  # order above n_max
    mismatched = gl.zero_hierarchy(k.grid, 1)
    with pytest.raises(InvalidArgumentError):
        gl.max_abs_difference(k, mismatched)


@pytest.mark.parametrize("n_sites,n_max", [(5, 0), (7, 1), (6, 2), (6, 4)])
def test_substitute_and_evaluate_match_single_field_oracles_bitwise(n_sites, n_max):
    k, rng = small_random_hierarchy(n_sites=n_sites, n_max=n_max, seed=40 + n_max)
    for _ in range(3):
        a, b, theta = (rng.uniform(-1.2, 1.2, n_sites) for _ in range(3))
        out = gl.substitute_affine(k, gl.GridField(k.grid, a), gl.GridField(k.grid, b))
        # the oracle's a-products run in axis order at every entry; substitute_affine
        # keeps its bits at the sorted tuples and writes them to each orbit
        assert_orbit_bits(out.tensors, substitute_affine_oracle(k, a, b))
        assert gl.evaluate_gf(k, gl.GridField(k.grid, theta)) == evaluate_gf_oracle(k, theta)


def archive_entries(n_sites, length, tensors):
    entries = {"n_sites": np.int64(n_sites), "length": np.float64(length)}
    entries.update(("k%d" % n, t) for n, t in enumerate(tensors))
    return entries


def write_archive(path, entries, raw=()):
    """np.savez the entries into `path`, then append raw (name, bytes) members."""
    with open(path, "wb") as fh:
        np.savez(fh, **entries)
    with zipfile.ZipFile(path, "a") as zf:
        for name, data in raw:
            zf.writestr(name, data)


def npy_bytes(header, data=b""):
    buf = io.BytesIO()
    np.lib.format.write_array_header_1_0(buf, header)
    return buf.getvalue() + data


@pytest.mark.parametrize("n_max", range(5))
def test_snapshot_roundtrip_is_bit_exact_at_edge_values(tmp_path, n_max):
    k, _ = small_random_hierarchy(n_sites=3, n_max=n_max, seed=50 + n_max)
    edge = [-0.0, 5e-324, 1e308, -1e308, -5e-324]
    k.tensors[0] = np.array(-0.0)
    for n in range(1, n_max + 1):
        flat = k.tensors[n].reshape(-1)
        flat[: len(edge)] = edge[: flat.size]
    path = tmp_path / "hierarchy_final.txt"
    gl.save_hierarchy(k, path)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["hierarchy_final.txt"]
    loaded = gl.load_hierarchy(path)
    assert loaded.grid == k.grid
    assert [t.dtype for t in loaded.tensors] == [np.dtype(np.float64)] * (n_max + 1)
    assert flatten(loaded).tobytes() == flatten(k).tobytes()


@pytest.mark.parametrize("n_sites,n_max", [(2, 0), (3, 1), (4, 2), (5, 4)])
def test_snapshot_bytes_match_per_entry_writer(tmp_path, n_sites, n_max):
    k, _ = small_random_hierarchy(n_sites=n_sites, n_max=n_max, seed=50 + n_max)
    edge = [-0.0, 5e-324, 1e308, -1e-300, 1e16, 1e-5, 0.1]
    for n in range(1, n_max + 1):
        flat = k.tensors[n].reshape(-1)
        flat[: len(edge)] = edge[: flat.size]
    if n_max == 0:
        k.tensors[0] = np.array(-0.0)
    gl.save_hierarchy(k, tmp_path / "new.npz")
    save_hierarchy_oracle(k, tmp_path / "old.npz")
    assert (tmp_path / "new.npz").read_bytes() == (tmp_path / "old.npz").read_bytes()


def test_snapshot_bytes_do_not_depend_on_the_clock(tmp_path, monkeypatch):
    # np.savez stamps every zip entry with a fixed date; if that ever changed,
    # the second write, made under a clock 20 years back, would differ
    k, _ = small_random_hierarchy(n_sites=4, n_max=3, seed=51)
    gl.save_hierarchy(k, tmp_path / "first")
    monkeypatch.setattr(
        zipfile, "time", SimpleNamespace(time=lambda: 1e9, localtime=time.localtime)
    )
    gl.save_hierarchy(k, tmp_path / "second")
    assert (tmp_path / "first").read_bytes() == (tmp_path / "second").read_bytes()


GOOD_TENSORS = [np.array(1.0), np.full(3, 0.5), np.full((3, 3), 0.25)]
F8 = {"descr": "<f8", "fortran_order": False}


def _replace(index, tensor):
    tensors = list(GOOD_TENSORS)
    tensors[index] = tensor
    return archive_entries(3, 3.0, tensors)


def _with(**changes):
    return archive_entries(3, 3.0, GOOD_TENSORS) | changes


def _without(key):
    entries = _with()
    del entries[key]
    return entries


NOT_NPZ = "not an npz archive$"
BAD_KEYS = r"entries \[.*\] are not \['n_sites', 'length', 'k0'"
MALFORMED = {
    # kind: (file bytes or archive entries, extra raw zip members, message)
    "missing-file": (None, (), "No such file"),
    "empty-file": (b"", (), NOT_NPZ),
    "text-format": (b"3,3.0,2\n0,1.0\n1,0,0.5\n", (), NOT_NPZ),
    "bare-npy": (npy_bytes(F8 | {"shape": (2,)}, bytes(16)), (), NOT_NPZ),
    "missing-key": (_without("k1"), (), BAD_KEYS),
    "missing-header": (_without("length"), (), BAD_KEYS),
    "extra-key": (_with(note=np.zeros(1)), (), BAD_KEYS),
    "extra-raw-member": (_with(), [("k3", b"0.5")], BAD_KEYS),
    "object-entry": (_replace(1, np.array([0.5, None, 0.5], dtype=object)), (), "k1 is not float64"),
    "pickled-entry": (_without("k1"), [("k1.npy", pickle.dumps([0.5] * 3))], "magic string"),
    "int-tensor": (_replace(1, np.arange(3)), (), "k1 is not float64"),
    "float32-tensor": (_replace(1, np.full(3, 0.5, dtype=np.float32)), (), "k1 is not float64"),
    "wrong-shape": (_replace(2, np.zeros((3, 4))), (), r"k2 is not float64 of shape \(3, 3\)"),
    # a header that claims 800 TB is refused before anything is allocated
    "lying-shape": (
        _without("k2"),
        [("k2.npy", npy_bytes(F8 | {"shape": (10**7, 10**7)}, bytes(72)))],
        r"k2 is not float64 of shape \(3, 3\)",
    ),
    "short-data": (
        _without("k2"), [("k2.npy", npy_bytes(F8 | {"shape": (3, 3)}, bytes(16)))], "EOF"
    ),
    "non-finite": (_replace(2, np.where(np.eye(3) > 0, np.nan, 0.25)), (), "non-finite"),
    "bad-n-sites": (archive_entries(1, 3.0, [np.array(1.0)]), (), "n_sites must be"),
    "float-n-sites": (_with(n_sites=np.float64(3.0)), (), "n_sites is not int64"),
    "infinite-length": (archive_entries(3, np.inf, GOOD_TENSORS), (), "length must be finite"),
    "no-tensor": (archive_entries(3, 3.0, []), (), "at least the order-0 tensor"),
}


@pytest.mark.parametrize("kind", list(MALFORMED) + ["truncated"])
def test_load_rejects_malformed_snapshot(tmp_path, kind):
    path = tmp_path / "hierarchy_final.txt"
    if kind == "truncated":
        gl.save_hierarchy(gl.zero_hierarchy(gl.make_grid(3, 3.0), 2), path)
        path.write_bytes(path.read_bytes()[:300])
        message = "File is not a zip file"
    else:
        content, raw, message = MALFORMED[kind]
        if isinstance(content, bytes):
            path.write_bytes(content)
        elif content is not None:
            write_archive(path, content, raw)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidArgumentError, match=message) as info:
            gl.load_hierarchy(path)
    assert type(info.value) is InvalidArgumentError
    assert str(info.value).startswith("bad snapshot %s: " % path)


def test_load_accepts_the_well_formed_test_archive(tmp_path):
    # the malformed cases above each change one entry of this archive
    path = tmp_path / "good"
    write_archive(path, _with())
    loaded = gl.load_hierarchy(path)
    assert loaded.grid == gl.make_grid(3, 3.0)
    assert all(np.array_equal(a, b) for a, b in zip(loaded.tensors, GOOD_TENSORS))


def test_exponential_hierarchy_overflow_is_nonfinite_state():
    grid = gl.make_grid(4, 4.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonfiniteStateError):
            gl.exponential_hierarchy(gl.constant_field(grid, 1e100), 4)
