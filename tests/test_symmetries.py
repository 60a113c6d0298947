"""Exact symmetries of the birth-and-death generator, checked without a second implementation.

- The epsilon-rescaling identity.  With b_eps = expm1(-eps*phi)/eps, the
  eps-generator at activity z and potential phi acts on k as the plain
  generator (eps = 1) at activity z/eps and potential eps*phi acts on
  k'_n = k_n / eps^n, scaled back by eps^n at order n.
- Translation and reflection.  Rolling every axis of every order by s
  sites, or mapping each site x to -x mod N, commutes with apply_generator
  and with evolve_global: the lattice is periodic and the potential even.
  Mapping theta with k leaves evaluate_gf unchanged, and mapping rho0 maps
  every sample of the kinetic flow (integrate).

Where eps is a power of two every rescaling is exact, so the two sides
agree bit for bit.  Elsewhere, and for the lattice maps, whose sums run
over the sites in another order, each order (or trajectory sample) agrees
to ROUNDOFF times 2^-52 times the largest entry of the two arrays
compared, and a functional value to ROUNDOFF times 2^-52 times
max(|B|, 1); the largest ratios seen while writing these checks were 2.7
for a tensor, 1.5 for a value and 0.98 for a sample.  Every start is
symmetric bit for bit, so a rolled or reflected start is too.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import glauberlab as gl

from helpers import plant_signed_zeros_by_orbit, shape_potential

ROUNDOFF = 16
CHECKS = settings(max_examples=50, deadline=None, derandomize=True)
# 25 draws keep each of the functional and kinetic maps near 0.15 s
QUICK_CHECKS = settings(CHECKS, max_examples=25)


@st.composite
def cases(draw, activities=(0.25, 0.5, 1.5)):
    """(grid, potential, start, activity): a sampled start with margin 1/2 at the activity."""
    n_sites = draw(st.integers(2, 8))
    n_max = draw(st.integers(0, 4))
    grid = gl.make_grid(n_sites, draw(st.sampled_from([0.5, 1.0, 1.5])) * n_sites)
    pot = shape_potential(draw(st.sampled_from(["zero", "gaussian", "tophat"])), grid)
    z = draw(st.sampled_from(activities))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sampled = gl.random_ruelle_hierarchy(grid, n_max, rng, envelope=0.5 * z)
    tensors = [np.array(0.5)] + [t.copy() for t in sampled.tensors[1:]]
    plant_signed_zeros_by_orbit(tensors, rng)
    return grid, pot, gl.CorrelationHierarchy(grid, tensors), z


def roll(tensor, shift):
    return np.roll(tensor, shift, axis=tuple(range(tensor.ndim))) if tensor.ndim else tensor


def reflect(tensor):
    if not tensor.ndim:
        return tensor
    mirror = (-np.arange(tensor.shape[0])) % tensor.shape[0]
    return tensor[np.ix_(*[mirror] * tensor.ndim)]


def mapped(k, site_map):
    return gl.CorrelationHierarchy(k.grid, [site_map(t) for t in k.tensors])


def assert_close(x, y, scale, what):
    gap = float(np.max(np.abs(np.asarray(x) - np.asarray(y))))
    assert gap <= ROUNDOFF * 2.0**-52 * scale, "%s off by %.3g of %.3g" % (what, gap, scale)


def assert_close_by_order(got, want):
    for n, (x, y) in enumerate(zip(got, want)):
        scale = max(float(np.max(np.abs(x))), float(np.max(np.abs(y))))
        assert_close(x, y, scale, "order %d" % n)


def rescaled_generator(k, z, pot, epsilon):
    """eps^n times the plain generator at activity z/eps and potential eps*phi on k_n / eps^n."""
    inner = gl.potential_from_samples(k.grid, epsilon * pot.values_by_displacement)
    scaled = gl.CorrelationHierarchy(k.grid, [t / epsilon**n for n, t in enumerate(k.tensors)])
    plain = gl.apply_generator(scaled, gl.ScaleParams(0.5, 1.0, z / epsilon), inner, gl.GLAUBER)
    return [t * epsilon**n for n, t in enumerate(plain.tensors)]


@CHECKS
@given(case=cases(), power=st.integers(-3, 1))
def test_rescaling_identity_is_bit_for_bit_at_powers_of_two(case, power):
    _, pot, k, z = case
    epsilon = 2.0**power
    got = gl.apply_generator(k, gl.ScaleParams(0.5, 1.0, z), pot, epsilon).tensors
    want = rescaled_generator(k, z, pot, epsilon)
    assert [(np.shape(t), np.asarray(t).tobytes()) for t in got] == [
        (np.shape(t), np.asarray(t).tobytes()) for t in want
    ]


@CHECKS
@given(case=cases(), epsilon=st.floats(0.01, 3.0))
def test_rescaling_identity_holds_to_roundoff(case, epsilon):
    _, pot, k, z = case
    got = gl.apply_generator(k, gl.ScaleParams(0.5, 1.0, z), pot, epsilon).tensors
    assert_close_by_order(got, rescaled_generator(k, z, pot, epsilon))


@CHECKS
@given(case=cases(), shift=st.integers(1, 8), epsilon=st.sampled_from([1.0, 0.25, 0.0]))
def test_lattice_maps_commute_with_the_generator(case, shift, epsilon):
    _, pot, k, z = case
    params = gl.ScaleParams(0.5, 1.0, z)
    step = gl.apply_generator(k, params, pot, epsilon).tensors
    for site_map in (lambda t: roll(t, shift), reflect):
        got = gl.apply_generator(mapped(k, site_map), params, pot, epsilon).tensors
        assert_close_by_order(got, [site_map(t) for t in step])


@CHECKS
@given(case=cases(activities=(0.5,)), shift=st.integers(1, 8),
       epsilon=st.sampled_from([1.0, 0.25, 0.0]), t_final=st.floats(0.05, 0.5))
def test_lattice_maps_commute_with_global_evolution(case, shift, epsilon, t_final):
    _, pot, u0, z = case
    params = gl.ScaleParams(0.5 / z, 1.0 / z, z)
    evolved = gl.evolve_global(params, pot, u0, t_final, epsilon=epsilon).solution.tensors
    for site_map in (lambda t: roll(t, shift), reflect):
        report = gl.evolve_global(params, pot, mapped(u0, site_map), t_final, epsilon=epsilon)
        assert_close_by_order(report.solution.tensors, [site_map(t) for t in evolved])


@QUICK_CHECKS
@given(case=cases(), shift=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_lattice_maps_commute_with_the_functional(case, shift, seed):
    grid, _, k, _ = case
    theta = np.random.default_rng(seed).uniform(-1.0, 1.0, grid.n_sites)
    value = gl.evaluate_gf(k, gl.GridField(grid, theta))
    for site_map in (lambda t: roll(t, shift), reflect):
        got = gl.evaluate_gf(mapped(k, site_map), gl.GridField(grid, site_map(theta)))
        assert_close(got, value, max(abs(value), 1.0), "B(theta)")


@QUICK_CHECKS
@given(n_sites=st.integers(2, 16), spacing=st.sampled_from([0.5, 1.0, 1.5]),
       shape=st.sampled_from(["zero", "gaussian", "tophat"]), z=st.sampled_from([0.25, 0.5, 1.5]),
       scheme=st.sampled_from(["rk4", "euler"]), shift=st.integers(1, 8),
       seed=st.integers(0, 2**32 - 1))
def test_lattice_maps_commute_with_the_kinetic_flow(n_sites, spacing, shape, z, scheme, shift, seed):
    grid = gl.make_grid(n_sites, spacing * n_sites)
    pot = shape_potential(shape, grid)
    cfg = gl.VlasovConfig(z=z, dt=0.1, scheme=scheme, t_final=1.0)
    rho0 = np.random.default_rng(seed).uniform(0.0, 2.0, n_sites)
    _, trajectory = gl.integrate(gl.GridField(grid, rho0), cfg, pot)
    for site_map in (lambda t: roll(t, shift), reflect):
        _, got = gl.integrate(gl.GridField(grid, site_map(rho0)), cfg, pot)
        assert [t for t, _ in got] == [t for t, _ in trajectory]
        for (t, x), (_, y) in zip(got, trajectory):
            scale = max(float(np.max(np.abs(x))), float(np.max(np.abs(y))))
            assert_close(x, site_map(y), scale, "rho at t=%g" % t)
