import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import glauberlab as gl
from glauberlab.errors import GridMismatchError, InvalidArgumentError
from glauberlab.lattice import GAUSSIAN_FLOOR, convolution_kernel, convolve_values

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
        assert gl.convolve(pot, f).values.tobytes() == gl.convolve(unfloored, f).values.tobytes()


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
    expected = convolve_oracle(samples, values, grid.spacing)
    n = grid.n_sites
    for x in range(n):
        scale = math.fsum(
            abs(samples[(x - y) % n] * values[y]) for y in range(n)
        ) * grid.spacing
        assert abs(out.values[x] - expected[x]) <= 1e-14 * scale


def _kinetic_kernel_and_values(n=512):
    grid = gl.make_grid(n, 8.0)
    kernel = convolution_kernel(gl.gaussian_potential(grid, 0.5, 1.0))
    values = np.random.default_rng(11).uniform(-1.0, 1.0, n)
    return kernel, values, grid.spacing


def _copy_at_offset(arr, offset):
    """Copy arr into a fresh buffer starting offset bytes past its base."""
    buf = np.zeros(arr.nbytes + 64, dtype=np.uint8)
    out = buf[offset:offset + arr.nbytes].view(np.float64).reshape(arr.shape)
    out[...] = arr
    return out


def test_convolve_values_bits_ignore_alignment_and_repeats():
    kernel, values, dx = _kinetic_kernel_and_values()
    first = convolve_values(kernel, values, dx).tobytes()
    for _ in range(3):
        assert convolve_values(kernel, values, dx).tobytes() == first
    for offset in range(8, 64, 8):
        moved = convolve_values(
            _copy_at_offset(kernel, offset), _copy_at_offset(values, offset), dx
        )
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


def test_field_norms_examples():
    grid = gl.make_grid(8, 4.0)  # dx = 0.5
    zero = gl.zero_field(grid)
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
