import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import glauberlab as gl
from glauberlab.errors import GridMismatchError, InvalidArgumentError
from glauberlab.lattice import (
    GAUSSIAN_FLOOR,
    convolution_kernel,
    convolve_values,
    displacement_matrix,
)

from helpers import convolve_oracle


def test_make_grid_spacing():
    assert gl.make_grid(8, 8.0).spacing == 1.0
    assert gl.make_grid(16, 4.0).spacing == 0.25


def test_make_grid_rejects_bad_arguments():
    with pytest.raises(InvalidArgumentError):
        gl.make_grid(1, 1.0)
    with pytest.raises(InvalidArgumentError):
        gl.make_grid(8, 0.0)
    with pytest.raises(InvalidArgumentError):
        gl.make_grid(8, -2.0)


def test_grid_field_validation():
    grid = gl.make_grid(8, 8.0)
    with pytest.raises(InvalidArgumentError):
        gl.GridField(grid, np.zeros(7))
    with pytest.raises(InvalidArgumentError):
        gl.GridField(grid, np.array([0.0] * 7 + [np.nan]))


def test_zero_potential_norms():
    grid = gl.make_grid(8, 8.0)
    pot = gl.zero_potential(grid)
    assert pot.norm_l1 == 0.0
    assert pot.norm_linf == 0.0


def test_constant_potential_norms():
    grid = gl.make_grid(8, 8.0)
    pot = gl.potential_from_samples(grid, np.full(8, 0.3))
    assert math.isclose(pot.norm_l1, 8 * 0.3, rel_tol=1e-14)
    assert pot.norm_linf == 0.3


def test_gaussian_potential_matches_direct_sums():
    grid = gl.make_grid(8, 8.0)
    pot = gl.gaussian_potential(grid, 0.7, 1.3)
    # direct sampling oracle
    expected = []
    for d in range(8):
        r = min(d, 8 - d) * grid.spacing
        expected.append(0.7 * math.exp(-((r / 1.3) ** 2)))
    assert np.allclose(pot.values_by_displacement, expected, rtol=0, atol=0)
    assert math.isclose(pot.norm_l1, sum(abs(v) for v in expected) * grid.spacing,
                        rel_tol=1e-14)
    assert math.isclose(pot.norm_linf, max(abs(v) for v in expected), rel_tol=1e-14)


def test_gaussian_tail_below_floor_is_zero_and_moves_no_convolution():
    # The floor also narrows the band, so the floored convolution sums fewer
    # terms in another order than the unfloored one: both are held to the
    # oracle bound instead of to each other's bits.
    grid = gl.make_grid(512, 64.0)
    r = np.minimum(np.arange(512), 512 - np.arange(512)) * grid.spacing
    f = gl.GridField(grid, np.random.default_rng(5).uniform(0.05, 1.0, 512))
    for amplitude, width in ((0.8, 0.7), (0.5, 1.0), (0.2, 1.1)):
        pot = gl.gaussian_potential(grid, amplitude, width)
        raw = amplitude * np.exp(-((r / width) ** 2))
        floored = (raw > 0.0) & (raw < GAUSSIAN_FLOOR)
        assert np.any(floored & (raw < np.finfo(np.float64).tiny))  # subnormal tail
        assert np.all(pot.values_by_displacement[floored] == 0.0)
        assert np.array_equal(pot.values_by_displacement[~floored], raw[~floored])
        unfloored = gl.potential_from_samples(grid, raw)
        assert convolution_kernel(pot)[1].size < convolution_kernel(unfloored)[1].size
        for p in (pot, unfloored):
            _assert_within_oracle_bound(grid, raw, f.values, gl.convolve(p, f).values)


def test_potential_rejects_negative_and_asymmetric():
    grid = gl.make_grid(8, 8.0)
    bad = np.zeros(8)
    bad[3] = -0.1
    with pytest.raises(InvalidArgumentError):
        gl.potential_from_samples(grid, bad)
    asym = np.zeros(8)
    asym[1] = 0.5  # phi(1) != phi(7)
    with pytest.raises(InvalidArgumentError):
        gl.potential_from_samples(grid, asym)


def test_convolve_zero_kernel():
    grid = gl.make_grid(8, 8.0)
    f = gl.GridField(grid, np.arange(8.0))
    out = gl.convolve(gl.zero_potential(grid), f)
    assert np.all(out.values == 0.0)


def test_convolve_constant_kernel():
    grid = gl.make_grid(8, 8.0)
    f = gl.GridField(grid, np.arange(8.0))
    pot = gl.potential_from_samples(grid, np.full(8, 0.4))
    out = gl.convolve(pot, f)
    expected = 0.4 * grid.spacing * np.sum(f.values)
    assert np.allclose(out.values, expected, rtol=1e-14)


def test_convolve_matches_double_loop():
    grid = gl.make_grid(8, 8.0)
    rng = np.random.default_rng(5)
    raw = rng.uniform(0.0, 1.0, 8)
    samples = (raw + raw[(-np.arange(8)) % 8]) / 2.0  # symmetrize
    pot = gl.potential_from_samples(grid, samples)
    f = gl.GridField(grid, rng.uniform(-1.0, 1.0, 8))
    out = gl.convolve(pot, f)
    for x in range(8):
        acc = 0.0
        for y in range(8):
            acc += samples[(x - y) % 8] * f.values[y]
        assert math.isclose(out.values[x], acc * grid.spacing, rel_tol=1e-12)


def test_convolve_is_linear():
    grid = gl.make_grid(8, 8.0)
    rng = np.random.default_rng(6)
    pot = gl.gaussian_potential(grid, 0.5, 1.0)
    f = gl.GridField(grid, rng.uniform(-1, 1, 8))
    g = gl.GridField(grid, rng.uniform(-1, 1, 8))
    combo = gl.GridField(grid, 1.7 * f.values - 0.3 * g.values)
    lhs = gl.convolve(pot, combo).values
    rhs = 1.7 * gl.convolve(pot, f).values - 0.3 * gl.convolve(pot, g).values
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(rhs)))


def test_convolve_translation_equivariance():
    grid = gl.make_grid(8, 8.0)
    rng = np.random.default_rng(7)
    pot = gl.gaussian_potential(grid, 0.5, 1.0)
    f = gl.GridField(grid, rng.uniform(-1, 1, 8))
    base = gl.convolve(pot, f).values
    for shift in (1, 3):
        shifted = gl.convolve(pot, gl.GridField(grid, np.roll(f.values, shift))).values
        assert np.max(np.abs(shifted - np.roll(base, shift))) <= 1e-12


def test_convolve_young_bound():
    grid = gl.make_grid(8, 8.0)
    rng = np.random.default_rng(8)
    pot = gl.gaussian_potential(grid, 0.5, 1.0)
    for _ in range(20):
        f = gl.GridField(grid, rng.uniform(-2, 2, 8))
        out = gl.convolve(pot, f)
        assert gl.field_linf_norm(out) <= pot.norm_l1 * gl.field_linf_norm(f) + 1e-12


def test_convolve_grid_mismatch():
    pot = gl.gaussian_potential(gl.make_grid(8, 8.0), 0.5, 1.0)
    f = gl.constant_field(gl.make_grid(16, 8.0), 1.0)
    with pytest.raises(GridMismatchError):
        gl.convolve(pot, f)


def _assert_within_oracle_bound(grid, samples, values, out):
    """|out - oracle| <= 1e-14 * sum_y |phi(x-y) v(y)| dx at every site x."""
    expected = convolve_oracle(samples, values, grid.spacing)
    n = grid.n_sites
    for x in range(n):
        scale = math.fsum(
            abs(samples[(x - y) % n] * values[y]) for y in range(n)
        ) * grid.spacing
        assert abs(out[x] - expected[x]) <= 1e-14 * scale, x


@st.composite
def convolution_case(draw):
    n = draw(st.integers(2, 64))
    length = draw(st.floats(0.1, 100.0))
    raw = draw(st.lists(st.floats(0.0, 10.0), min_size=n, max_size=n))
    values = draw(st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n))
    raw = np.array(raw)
    samples = (raw + raw[(-np.arange(n)) % n]) / 2.0  # exactly even
    return gl.make_grid(n, length), samples, np.array(values)


@settings(max_examples=200, deadline=None)
@given(case=convolution_case())
def test_convolve_matches_fsum_oracle(case):
    grid, samples, values = case
    out = gl.convolve(gl.potential_from_samples(grid, samples), gl.GridField(grid, values))
    _assert_within_oracle_bound(grid, samples, values, out.values)


def _compact_case(n, cutoff, edge, raw, values):
    """Even samples cut to zero beyond min-image distance cutoff.

    cutoff = -1 is the zero potential; the samples at distance cutoff are
    set to edge > 0, so the support reaches exactly that distance.
    """
    distance = np.minimum(np.arange(n), n - np.arange(n))
    raw = np.array(raw, dtype=np.float64)
    samples = (raw + raw[(-np.arange(n)) % n]) / 2.0
    samples[distance > cutoff] = 0.0
    samples[distance == cutoff] = edge
    return gl.make_grid(n, n / 4.0), samples, np.array(values, dtype=np.float64), cutoff


@st.composite
def compact_convolution_case(draw):
    n = draw(st.integers(2, 64))
    cutoff = draw(st.integers(-1, n // 2))
    edge = draw(st.floats(1e-3, 10.0))
    raw = draw(st.lists(st.floats(0.0, 10.0), min_size=n, max_size=n))
    values = draw(st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n))
    return _compact_case(n, cutoff, edge, raw, values)


def _edge_example(n, cutoff):
    return example(case=_compact_case(n, cutoff, 0.9, np.linspace(0.5, 2.0, n),
                                      np.linspace(-1.0, 1.5, n)))


@_edge_example(8, -1)  # zero potential, B = 0
@_edge_example(8, 0)  # one sample, B = 1
@_edge_example(8, 4)  # full support through phi(N/2), B = N
@_edge_example(7, 3)  # full support at odd N, B = N
@settings(max_examples=200, deadline=None)
@given(case=compact_convolution_case())
def test_convolve_compact_support_matches_fsum_oracle(case):
    grid, samples, values, cutoff = case
    pot = gl.potential_from_samples(grid, samples)
    out = gl.convolve(pot, gl.GridField(grid, values))
    _assert_within_oracle_bound(grid, samples, values, out.values)
    band = 0 if cutoff < 0 else min(2 * cutoff + 1, grid.n_sites)
    assert convolution_kernel(pot)[1].size == band


def _kinetic_kernel_and_values(n=512):
    grid = gl.make_grid(n, 8.0)
    kernel = convolution_kernel(gl.gaussian_potential(grid, 0.5, 1.0))
    values = np.random.default_rng(11).uniform(-1.0, 1.0, n)
    return kernel, values, grid.spacing


def _copy_at_offset(arr, offset):
    """Copy arr into a fresh buffer starting offset bytes past its base."""
    buf = np.zeros(arr.nbytes + 64, dtype=np.uint8)
    out = buf[offset:offset + arr.nbytes].view(arr.dtype).reshape(arr.shape)
    out[...] = arr
    return out


def test_convolve_values_bits_ignore_alignment_and_repeats():
    kernel, values, dx = _kinetic_kernel_and_values()
    first = convolve_values(kernel, values, dx).tobytes()
    for _ in range(3):
        assert convolve_values(kernel, values, dx).tobytes() == first
    for offset in range(8, 64, 8):
        moved_kernel = tuple(_copy_at_offset(part, offset) for part in kernel)
        moved = convolve_values(moved_kernel, _copy_at_offset(values, offset), dx)
        assert moved.tobytes() == first, offset


def test_convolve_values_allocates_no_kernel_sized_temporary():
    kernel, values, dx = _kinetic_kernel_and_values()
    convolve_values(kernel, values, dx)
    tracemalloc.start()
    try:
        convolve_values(kernel, values, dx)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024  # the N x N product alone would be 2 MiB


KERNEL_SIZES = list(range(2, 40)) + [127, 128, 129, 255, 256, 512, 513]


def _kernel_potentials(n):
    grid = gl.make_grid(n, n / 4.0)
    full = np.full(n, 0.3)
    return grid, [
        gl.gaussian_potential(grid, 0.5, 1.3),
        gl.tophat_potential(grid, 0.7, 2.0),
        gl.zero_potential(grid),
        gl.potential_from_samples(grid, full),  # phi(N/2) != 0 at even N
    ]


def test_convolution_kernel_band_holds_every_nonzero_sample():
    for n in KERNEL_SIZES:
        grid, pots = _kernel_potentials(n)
        sites = np.arange(n)
        for pot in pots:
            index, weights = convolution_kernel(pot)
            b = weights.size
            assert b <= n and index.size == n + b - 1
            assert np.array_equal(np.diff(index), np.ones(index.size - 1, dtype=index.dtype))
            # weight j multiplies v at index[x + j], so row 0 reads columns index[:b]
            columns = index[:b] % n
            assert np.unique(columns).size == b, n
            gathered = pot.values_by_displacement[displacement_matrix(grid)][0]
            assert np.array_equal(weights, gathered[columns]), n
            outside = np.setdiff1d(sites, columns)
            assert np.all(gathered[outside] == 0.0), n


def test_convolution_kernel_allocates_order_n_at_the_guard():
    # 3162 is the largest N the guard allows; a dense kernel would be 80 MB
    pot = gl.gaussian_potential(gl.make_grid(3162, 400.0), 0.5, 1.0)
    tracemalloc.start()
    try:
        convolution_kernel(pot)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_field_norms_examples():
    grid = gl.make_grid(8, 4.0)  # dx = 0.5
    zero = gl.constant_field(grid, 0.0)
    assert gl.field_l1_norm(zero) == 0.0
    assert gl.field_linf_norm(zero) == 0.0
    ones = gl.constant_field(grid, 1.0)
    assert gl.field_l1_norm(ones) == 4.0
    assert gl.field_linf_norm(ones) == 1.0


def test_field_norms_match_loops():
    grid = gl.make_grid(8, 8.0)
    rng = np.random.default_rng(9)
    f = gl.GridField(grid, rng.uniform(-3, 3, 8))
    assert math.isclose(
        gl.field_l1_norm(f), sum(abs(v) for v in f.values) * grid.spacing,
        rel_tol=1e-14,
    )
    assert gl.field_linf_norm(f) == max(abs(v) for v in f.values)
