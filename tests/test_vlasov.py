import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import lambertw

import glauberlab as gl
from glauberlab.errors import InvalidArgumentError, MemoryGuardError, NonfiniteStateError

from helpers import exponential_gf_eval, integrate_formula, shape_potential


def test_vlasov_rhs_fixed_point_and_empty():
    grid = gl.make_grid(8, 8.0)
    pot = gl.zero_potential(grid)
    z = 0.9
    rhs = gl.vlasov_rhs(gl.constant_field(grid, z), z, pot)
    assert np.all(rhs.values == 0.0)
    from_empty = gl.vlasov_rhs(gl.constant_field(grid, 0.0), z, pot)
    assert np.allclose(from_empty.values, z, rtol=0, atol=0)


def test_vlasov_rhs_matches_pointwise_formula():
    grid = gl.make_grid(8, 8.0)
    pot = gl.gaussian_potential(grid, 0.5, 1.0)
    rng = np.random.default_rng(0)
    rho = gl.GridField(grid, rng.uniform(0.0, 1.0, 8))
    z = 0.7
    out = gl.vlasov_rhs(rho, z, pot)
    conv = gl.convolve(pot, rho)
    for x in range(8):
        expected = -rho.values[x] + z * math.exp(-conv.values[x])
        assert math.isclose(out.values[x], expected, rel_tol=1e-14)


def test_integrate_closed_form():
    grid = gl.make_grid(8, 8.0)
    pot = gl.zero_potential(grid)
    cfg = gl.VlasovConfig(z=1.0, dt=1e-3, scheme="rk4", t_final=1.0)
    final, trajectory = gl.integrate(gl.constant_field(grid, 0.0), cfg, pot)
    target = 1.0 - math.exp(-1.0)
    assert abs(target - 0.6321205588) <= 1e-9
    assert np.max(np.abs(final.values - target)) <= 1e-8
    assert trajectory[0][0] == 0.0
    assert trajectory[-1][0] == 1.0


def test_integrate_zero_time_returns_initial():
    grid = gl.make_grid(8, 8.0)
    pot = gl.gaussian_potential(grid, 0.5, 1.0)
    rho0 = gl.constant_field(grid, 0.4)
    cfg = gl.VlasovConfig(z=1.0, dt=0.1, t_final=0.0)
    final, trajectory = gl.integrate(rho0, cfg, pot)
    assert np.array_equal(final.values, rho0.values)
    assert len(trajectory) == 1


def test_integrate_rk4_step_halving_ratio():
    grid = gl.make_grid(8, 8.0)
    pot = gl.gaussian_potential(grid, 0.5, 1.0)
    rng = np.random.default_rng(1)
    rho0 = gl.GridField(grid, rng.uniform(0.2, 0.8, 8))

    def run(dt):
        cfg = gl.VlasovConfig(z=0.8, dt=dt, scheme="rk4", t_final=1.0)
        return gl.integrate(rho0, cfg, pot)[0].values

    reference = run(0.05 / 16)
    err_coarse = np.max(np.abs(run(0.05) - reference))
    err_fine = np.max(np.abs(run(0.025) - reference))
    assert 12.0 <= err_coarse / err_fine <= 20.0


def test_integrate_euler_is_first_order():
    grid = gl.make_grid(8, 8.0)
    pot = gl.gaussian_potential(grid, 0.5, 1.0)
    rho0 = gl.constant_field(grid, 0.3)

    def run(dt, scheme):
        cfg = gl.VlasovConfig(z=0.8, dt=dt, scheme=scheme, t_final=1.0)
        return gl.integrate(rho0, cfg, pot)[0].values

    reference = run(0.02 / 64, "rk4")
    err_coarse = np.max(np.abs(run(0.02, "euler") - reference))
    err_fine = np.max(np.abs(run(0.01, "euler") - reference))
    assert 1.7 <= err_coarse / err_fine <= 2.3


def test_integrate_rejects_negative_initial():
    grid = gl.make_grid(8, 8.0)
    pot = gl.zero_potential(grid)
    bad = gl.GridField(grid, np.array([0.1] * 7 + [-0.2]))
    with pytest.raises(InvalidArgumentError):
        gl.integrate(bad, gl.VlasovConfig(z=1.0, dt=0.1, t_final=1.0), pot)


def test_integrate_flags_nonfinite_state():
    grid = gl.make_grid(8, 8.0)
    pot = gl.zero_potential(grid)
    cfg = gl.VlasovConfig(z=1e308, dt=1.0, t_final=2.0)
    with np.errstate(over="ignore"), pytest.raises(NonfiniteStateError):
        gl.integrate(gl.constant_field(grid, 0.0), cfg, pot)


def test_vlasov_config_validation():
    with pytest.raises(InvalidArgumentError):
        gl.VlasovConfig(z=1.0, dt=0.5, t_final=0.1)
    with pytest.raises(InvalidArgumentError):
        gl.VlasovConfig(z=1.0, dt=0.1, scheme="rk9", t_final=1.0)
    # a nan stride was accepted, and integrate then kept only t = 0 and t_final;
    # a stride of 1.5 kept every third step
    for bad in (0, math.nan, 1.5, 2.5):
        with pytest.raises(InvalidArgumentError, match="sample_stride must be an integer >= 1"):
            gl.VlasovConfig(z=1.0, dt=0.25, t_final=1.0, sample_stride=bad)


def test_linf_bound_check():
    grid = gl.make_grid(8, 8.0)
    z = 1.0
    for pot in (gl.zero_potential(grid), gl.gaussian_potential(grid, 0.5, 1.0)):
        rho0 = gl.constant_field(grid, z / 2)
        cfg = gl.VlasovConfig(z=z, dt=1e-2, t_final=2.0)
        _, trajectory = gl.integrate(rho0, cfg, pot)
        assert gl.linf_bound_check(trajectory, rho0, z)

    rho0 = gl.constant_field(grid, 0.5)
    spiked = [(0.0, rho0.values.copy()), (1.0, rho0.values + 10.0)]
    assert not gl.linf_bound_check(spiked, rho0, z)
    dipped = [(0.0, rho0.values.copy()), (1.0, rho0.values - 1.0)]
    assert not gl.linf_bound_check(dipped, rho0, z)


def test_stationary_residual_examples():
    grid = gl.make_grid(8, 8.0)
    pot = gl.zero_potential(grid)
    assert gl.stationary_residual(gl.constant_field(grid, 0.6), 0.6, pot) == 0.0
    assert gl.stationary_residual(gl.constant_field(grid, 0.0), 1.0, pot) == 1.0


def test_long_time_contraction_fixed_point():
    # z ||phi||_1 = 0.5 * 0.886 < 1: contraction regime, so the long-time
    # state must be nearly stationary.
    grid = gl.make_grid(8, 8.0)
    pot = gl.gaussian_potential(grid, 0.5, 1.0)
    z = 0.5
    cfg = gl.VlasovConfig(z=z, dt=1e-2, t_final=30.0, sample_stride=100)
    final, trajectory = gl.integrate(gl.constant_field(grid, z / 2), cfg, pot)
    assert gl.stationary_residual(final, z, pot) <= 1e-6
    assert gl.linf_bound_check(trajectory, gl.constant_field(grid, z / 2), z)


def test_exponential_gf_eval():
    grid = gl.make_grid(8, 8.0)
    rho = gl.constant_field(grid, 0.3)
    assert exponential_gf_eval(rho, gl.constant_field(grid, 0.0)) == 1.0
    theta = gl.constant_field(grid, 0.2)
    assert math.isclose(
        exponential_gf_eval(rho, theta), math.exp(0.3 * 0.2 * 8.0), rel_tol=1e-14
    )
    # truncated hierarchy evaluation differs by at most ~ the first dropped term
    n_max = 4
    k = gl.exponential_hierarchy(rho, n_max)
    u = 0.3 * 0.2 * 8.0
    tail = u ** (n_max + 1) / math.factorial(n_max + 1)
    diff = abs(exponential_gf_eval(rho, theta) - gl.evaluate_gf(k, theta))
    assert diff <= tail * 2.0


def test_chaos_propagation_time_derivative_consistency():
    # d/dt exp(sum rho_t theta dx) along the kinetic flow must match the
    # generator evaluation on the product hierarchy, up to truncation tail
    # and the finite-difference step.
    grid = gl.make_grid(8, 8.0)
    pot = gl.gaussian_potential(grid, 0.5, 1.0)
    z = 0.5
    rho0 = gl.constant_field(grid, 0.2)
    assert gl.field_linf_norm(gl.convolve(pot, rho0)) <= 0.2
    params = gl.ScaleParams(0.5, 1.0, z)
    rng = np.random.default_rng(2)
    theta = gl.GridField(grid, rng.uniform(-0.05, 0.05, 8))

    t_mid, h = 0.1, 5e-3

    def rho_at(t):
        if t == 0.0:
            return rho0
        cfg = gl.VlasovConfig(z=z, dt=1e-3, t_final=t)
        return gl.integrate(rho0, cfg, pot)[0]

    fd = (
        exponential_gf_eval(rho_at(t_mid + h), theta)
        - exponential_gf_eval(rho_at(t_mid - h), theta)
    ) / (2 * h)
    k_mid = gl.exponential_hierarchy(rho_at(t_mid), 6)
    gen = gl.evaluate_generator_gf(k_mid, theta, params, pot, gl.VLASOV_LIMIT)
    assert abs(fd - gen) <= 1e-3


def test_vlasov_config_rejects_non_finite_step_and_horizon():
    for dt, t_final in ((math.inf, 1.0), (math.nan, 1.0), (0.1, math.inf), (0.1, math.nan)):
        with pytest.raises(InvalidArgumentError):
            gl.VlasovConfig(z=1.0, dt=dt, t_final=t_final)


def test_integrate_step_count_guard_fails_before_stepping():
    # dt = 1e-300 used to hang in an unbounded step loop
    grid = gl.make_grid(8, 8.0)
    rho0 = gl.constant_field(grid, 0.5)
    pot = gl.zero_potential(grid)
    for dt, t_final in ((1e-300, 0.05), (1e-300, 1e300)):
        cfg = gl.VlasovConfig(z=1.0, dt=dt, t_final=t_final)
        with pytest.raises(MemoryGuardError):
            gl.integrate(rho0, cfg, pot)
    # the largest benchmarked run, 200 steps on 512 sites, stays inside the guard
    big = gl.make_grid(512, 64.0)
    _, trajectory = gl.integrate(
        gl.constant_field(big, 0.5),
        gl.VlasovConfig(z=0.5, dt=0.01, t_final=2.0, sample_stride=100),
        gl.zero_potential(big),
    )
    assert trajectory[-1][0] == 2.0


@pytest.mark.parametrize("scheme", ["euler", "rk4"])
@pytest.mark.parametrize(
    "t_final,times",
    [
        (0.875, [0.0, 0.5, 0.875]),  # remainder step 4 is a multiple of the stride
        (0.625, [0.0, 0.5, 0.625]),  # remainder step 3 is not
        (1.0, [0.0, 0.5, 1.0]),  # last full step 4 is a multiple of the stride
        (0.75, [0.0, 0.5, 0.75]),  # last full step 3 is not
        (0.0, [0.0]),  # no step: the initial sample is the final one
    ],
)
def test_integrate_samples_every_stride_and_the_final_time_once(scheme, t_final, times):
    grid = gl.make_grid(4, 4.0)
    cfg = gl.VlasovConfig(z=0.5, dt=0.25, scheme=scheme, t_final=t_final, sample_stride=2)
    final, trajectory = gl.integrate(gl.constant_field(grid, 0.2), cfg, gl.zero_potential(grid))
    assert [t for t, _ in trajectory] == times
    assert np.array_equal(trajectory[-1][1], final.values)


def test_integrate_keeps_the_remainder_of_a_tiny_step():
    # remainders under 1e-9 * max(dt, 1) were dropped, so a horizon of 1.5
    # steps of 1e-10 ended at t = 1e-10; the tolerance is now 1e-9 * dt
    grid = gl.make_grid(4, 4.0)
    cfg = gl.VlasovConfig(z=0.5, dt=1e-10, t_final=1.5e-10)
    final, trajectory = gl.integrate(gl.constant_field(grid, 0.2), cfg, gl.zero_potential(grid))
    assert [t for t, _ in trajectory] == [0.0, 1e-10, 1.5e-10]
    assert not np.array_equal(trajectory[1][1], final.values)


def _assert_integrate_matches_formula(rho0, cfg, pot):
    final, trajectory = gl.integrate(rho0, cfg, pot)
    expected_final, expected = integrate_formula(rho0, cfg, pot)
    assert final.values.tobytes() == expected_final.tobytes()
    assert [t for t, _ in trajectory] == [t for t, _ in expected]
    for (_, got), (_, want) in zip(trajectory, expected):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("scheme", ["rk4", "euler"])
@pytest.mark.parametrize("shape", ["gaussian", "tophat", "zero"])
@pytest.mark.parametrize("t_final", [1.0, 1.03])  # 20 steps of 0.05, then 20 and a remainder
def test_integrate_matches_the_expression_form_bit_for_bit(scheme, shape, t_final):
    grid = gl.make_grid(64, 16.0)
    rho0 = gl.GridField(grid, 0.4 + 0.3 * np.cos(np.arange(64) * 0.3))
    cfg = gl.VlasovConfig(z=0.7, dt=0.05, scheme=scheme, t_final=t_final, sample_stride=3)
    _assert_integrate_matches_formula(rho0, cfg, shape_potential(shape, grid))


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(2, 64),
    dt=st.floats(0.01, 0.5),
    steps=st.one_of(st.just(0.0), st.floats(1.0, 12.0)),
    stride=st.integers(1, 5),
    amplitude=st.floats(0.0, 3.0),
    kind=st.sampled_from(["gaussian", "tophat"]),
    scheme=st.sampled_from(["rk4", "euler"]),
)
def test_integrate_matches_the_expression_form_on_random_runs(
    n, dt, steps, stride, amplitude, kind, scheme
):
    grid = gl.make_grid(n, n / 4.0)
    make = gl.gaussian_potential if kind == "gaussian" else gl.tophat_potential
    rho0 = gl.GridField(grid, np.linspace(0.0, 1.0, n))
    cfg = gl.VlasovConfig(
        z=0.8, dt=dt, scheme=scheme, t_final=steps * dt, sample_stride=stride
    )
    _assert_integrate_matches_formula(rho0, cfg, make(grid, amplitude, 1.0))


@pytest.mark.parametrize("scheme", ["rk4", "euler"])
def test_integrate_leaves_the_initial_field_and_the_samples_apart(scheme):
    grid = gl.make_grid(32, 8.0)
    rho0 = gl.GridField(grid, 0.2 + 0.1 * np.sin(np.arange(32)))
    before = rho0.values.tobytes()
    cfg = gl.VlasovConfig(z=0.6, dt=0.1, scheme=scheme, t_final=1.0, sample_stride=2)
    final, trajectory = gl.integrate(rho0, cfg, gl.gaussian_potential(grid, 0.5, 1.0))
    assert rho0.values.tobytes() == before
    arrays = [values for _, values in trajectory]
    for i, sample in enumerate(arrays):
        assert not np.shares_memory(sample, final.values)
        assert not np.shares_memory(sample, rho0.values)
        for other in arrays[i + 1:]:
            assert not np.shares_memory(sample, other)
    assert not np.shares_memory(final.values, rho0.values)


def test_integrate_names_the_first_non_finite_step():
    # from rho = 0 under phi = 0 one rk4 step of 1e50 lands near -4e198,
    # and the next overflows
    grid = gl.make_grid(8, 8.0)
    rho0 = gl.constant_field(grid, 0.0)
    pot = gl.zero_potential(grid)
    final, _ = gl.integrate(rho0, gl.VlasovConfig(z=1.0, dt=1e50, t_final=1e50), pot)
    assert np.isfinite(final.values).all()
    with pytest.raises(NonfiniteStateError, match=r"at t=2e\+50$"):
        gl.integrate(rho0, gl.VlasovConfig(z=1.0, dt=1e50, t_final=3e50), pot)


@pytest.mark.parametrize("shape,amplitude,pinned_rates", [
    ("gaussian", 0.5, {1: 1.309183854, 5: 1.122567}), ("gaussian", 4.0, {1: 2.094060183}),
    ("tophat", 0.5, {1: 1.371175}), ("tophat", 4.0, {1: None, 3: 1.930853}),
])
def test_integrate_meets_the_exact_fixed_point_and_mode_rate(shape, amplitude, pinned_rates):
    # A constant start stays constant and obeys rho' = -rho + z exp(-phi_hat(0) rho),
    # with phi_hat(k) = sum_d phi(d) cos(2 pi k d / N) dx.  Its fixed point is
    # rho* = W(z phi_hat(0)) / phi_hat(0), W the Lambert function, and a Fourier
    # mode k about rho* decays at lambda_k = 1 + rho* phi_hat(k).
    n, z = 64, 0.5
    grid = gl.make_grid(n, 16.0)
    make = gl.gaussian_potential if shape == "gaussian" else gl.tophat_potential
    pot = make(grid, amplitude, 1.0)
    d = np.arange(n)

    def phi_hat(k):
        return math.fsum(pot.values_by_displacement * np.cos(2 * np.pi * k * d / n)) * grid.spacing

    rho_star = lambertw(z * phi_hat(0)).real / phi_hat(0)
    cfg = gl.VlasovConfig(z=z, dt=0.01, t_final=40.0, sample_stride=4000)
    final, _ = gl.integrate(gl.constant_field(grid, 0.2), cfg, pot)
    assert np.max(np.abs(final.values - rho_star)) <= 1e-14

    for k, pinned in pinned_rates.items():
        rate = 1.0 + rho_star * phi_hat(k)
        if pinned is not None:
            # half a unit in the last digit printed
            assert abs(rate - pinned) <= 0.5 * 10.0 ** -len(repr(pinned).split(".")[1])
        mode = np.cos(2 * np.pi * k * d / n)
        start = gl.GridField(grid, rho_star + 1e-7 * mode)
        cfg = gl.VlasovConfig(z=z, dt=1e-3, t_final=2.0, sample_stride=2000)
        final, _ = gl.integrate(start, cfg, pot)
        left = 2.0 / n * math.fsum((final.values - rho_star) * mode)
        assert abs(-math.log(left / 1e-7) / 2.0 - rate) <= 1e-7

    # RK4's order on the scalar equation, against mpmath's Taylor-series
    # solution at t = 1 (N = 8, L = 8): 4.02-4.13 from dt 0.1 to 0.0125
    grid = gl.make_grid(8, 8.0)
    pot = make(grid, amplitude, 1.0)
    phi0 = math.fsum(pot.values_by_displacement) * grid.spacing
    exact = float(mpmath.odefun(lambda t, r: -r + z * mpmath.exp(-phi0 * r), 0, mpmath.mpf(0.2))(1))
    errors = []
    for dt in (0.1, 0.05, 0.025, 0.0125):
        cfg = gl.VlasovConfig(z=z, dt=dt, t_final=1.0, sample_stride=10**6)
        final, _ = gl.integrate(gl.constant_field(grid, 0.2), cfg, pot)
        assert np.ptp(final.values) == 0.0
        errors.append(abs(final.values[0] - exact))
    orders = [math.log2(coarse / fine) for coarse, fine in zip(errors, errors[1:])]
    assert all(3.95 <= order <= 4.2 for order in orders)
