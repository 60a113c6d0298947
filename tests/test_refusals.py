"""Library refusals that no CLI run reaches, each with its error class and exact message.

The config validates these arguments first, or no command calls the function,
so only a library caller meets the refusals below and a CLI fuzz cannot pin them.
"""

import math
import re

import numpy as np
import pytest

import glauberlab as gl
from glauberlab.config import ExperimentConfig
from glauberlab.errors import GridMismatchError, InvalidArgumentError
from glauberlab.generators import norm_bound_M
from glauberlab.harness import cmd_verify_bounds

GRID = gl.make_grid(8, 8.0)
PARAMS = gl.ScaleParams(0.5, 1.0, 0.5)
POT = gl.gaussian_potential(GRID, 0.5, 1.0)


def _hierarchy(grid=GRID):
    return gl.zero_hierarchy(grid, 1)


def _no_apply(term):
    raise AssertionError("apply was called")


def _taylor_alpha(t, alpha):
    return gl.taylor_evolve(_no_apply, _hierarchy(), t, 10, 1e-12, norm_alpha=alpha)


def _global_at_zero(**series):
    return gl.evolve_global(PARAMS, POT, _hierarchy(), 0.0, **series)


BUILDERS = {
    "zero": lambda n_max: gl.zero_hierarchy(GRID, n_max),
    "exponential": lambda n_max: gl.exponential_hierarchy(gl.constant_field(GRID, 0.5), n_max),
    "ruelle": lambda n_max: gl.random_ruelle_hierarchy(GRID, n_max, np.random.default_rng(0)),
}


def _overflowing_convolution():
    grid = gl.make_grid(8, 8e10)
    return gl.convolve(gl.tophat_potential(grid, 1.0, 1e11), gl.constant_field(grid, 1e300))


REFUSALS = {
    "potential-shape": (lambda: gl.potential_from_samples(GRID, np.zeros(7)),
                        InvalidArgumentError, "potential needs 8 samples, got shape (7,)"),
    "potential-nonfinite": (lambda: gl.potential_from_samples(GRID, [math.nan] + [0.0] * 7),
                            InvalidArgumentError, "potential samples must be finite"),
    # without it the samples fall below GAUSSIAN_FLOOR: a silent zero potential
    "gaussian-amplitude": (lambda: gl.gaussian_potential(GRID, -1.0, 1.0),
                           InvalidArgumentError, "amplitude must be non-negative"),
    "gaussian-width": (lambda: gl.gaussian_potential(GRID, 1.0, 0.0),
                       InvalidArgumentError, "width must be positive"),
    "tophat-amplitude": (lambda: gl.tophat_potential(GRID, -1.0, 1.0),
                         InvalidArgumentError, "amplitude must be non-negative"),
    "tophat-width": (lambda: gl.tophat_potential(GRID, 1.0, 0.0),
                     InvalidArgumentError, "width must be positive"),
    "hierarchy-shape": (lambda: gl.CorrelationHierarchy(GRID, [np.array(1.0), np.zeros(7)]),
                        InvalidArgumentError, "tensor 1 has shape (7,), expected (8,)"),
    "scale-norm-alpha": (lambda: gl.scale_norm([1.0], 0.0),
                         InvalidArgumentError, "alpha must be positive"),
    "ruelle-margin-z": (lambda: gl.ruelle_margin(_hierarchy(), 0.0),
                        InvalidArgumentError, "z must be finite and positive"),
    # an infinite activity or alpha0 built, and the solve layer refused it by accident or not at all
    "ruelle-margin-z-inf": (lambda: gl.ruelle_margin(_hierarchy(), math.inf),
                            InvalidArgumentError, "z must be finite and positive"),
    "scale-alpha0-inf": (lambda: gl.ScaleParams(0.5, math.inf, 0.5),
                         InvalidArgumentError, "alpha0 must be finite, got inf"),
    "scale-z-inf": (lambda: gl.ScaleParams(0.5, 1.0, math.inf),
                    InvalidArgumentError, "activity z must be finite and positive"),
    # also from the CLI: 1/z overflowed, and the run ended naming an alpha and alpha0 never set
    "global-z-subnormal": (lambda: gl.evolve_global(gl.ScaleParams(0.5, 1.0, 5e-324), POT, _hierarchy(), 0.0),
                           InvalidArgumentError, "activity z=5e-324 is too small: 1/z overflows"),
    "difference-grids": (lambda: gl.max_abs_difference(_hierarchy(), _hierarchy(gl.make_grid(8, 4.0))),
                         GridMismatchError, "hierarchies live on different grids"),
    "step-radius-alpha": (lambda: gl.step_radius(1.0, 1.0, 0.5),
                          InvalidArgumentError, "need 0 < alpha <= alpha0"),
    "taylor-time": (lambda: gl.taylor_evolve(lambda h: h, _hierarchy(), -1.0, 10, 1e-12),
                    InvalidArgumentError, "t must be finite and non-negative"),
    # nan and inf ended in a non-finite Taylor term 1
    "taylor-time-nan": (lambda: gl.taylor_evolve(lambda h: h, _hierarchy(), math.nan, 10, 1e-12),
                        InvalidArgumentError, "t must be finite and non-negative"),
    "taylor-time-inf": (lambda: gl.taylor_evolve(lambda h: h, _hierarchy(), math.inf, 10, 1e-12),
                        InvalidArgumentError, "t must be finite and non-negative"),
    "local-time-nan": (lambda: gl.solve_local(gl.ScaleParams(0.5, 1.0, 0.5), gl.zero_potential(GRID),
                                              gl.GLAUBER, _hierarchy(), math.nan, 10, 1e-12),
                       InvalidArgumentError, "t must be finite and non-negative"),
    "taylor-terms": (lambda: gl.taylor_evolve(lambda h: h, _hierarchy(), 0.1, 0, 1e-12),
                     InvalidArgumentError, "m_max must be an integer >= 1"),
    # a fractional or infinite m_max raised a raw TypeError from range
    "taylor-terms-fraction": (lambda: gl.taylor_evolve(lambda h: h, _hierarchy(), 0.1, 2.5, 1e-12),
                              InvalidArgumentError, "m_max must be an integer >= 1"),
    "taylor-terms-inf": (lambda: gl.taylor_evolve(lambda h: h, _hierarchy(), 0.1, math.inf, 1e-12),
                         InvalidArgumentError, "m_max must be an integer >= 1"),
    # a tol no term can fall below ran all m_max terms into a ConvergenceError
    "taylor-tol-nan": (lambda: gl.taylor_evolve(lambda h: h, _hierarchy(), 0.1, 10, math.nan),
                       InvalidArgumentError, "tol must be positive"),
    "taylor-tol-zero": (lambda: gl.taylor_evolve(lambda h: h, _hierarchy(), 0.1, 10, 0.0),
                        InvalidArgumentError, "tol must be positive"),
    "taylor-tol-negative": (lambda: gl.taylor_evolve(lambda h: h, _hierarchy(), 0.1, 10, -1e-12),
                            InvalidArgumentError, "tol must be positive"),
    # evolve_global returned u0 at t_final = 0 without checking the series' rules
    "global-zero-time-terms": (lambda: _global_at_zero(m_max=0),
                               InvalidArgumentError, "m_max must be an integer >= 1"),
    "global-zero-time-terms-fraction": (lambda: _global_at_zero(m_max=1.5),
                                        InvalidArgumentError, "m_max must be an integer >= 1"),
    "global-zero-time-tol-nan": (lambda: _global_at_zero(tol=math.nan),
                                 InvalidArgumentError, "tol must be positive"),
    # t = 0 returned a report at the bad alpha; t > 0 refused only after one apply
    "taylor-alpha-nan-zero-time": (lambda: _taylor_alpha(0.0, math.nan),
                                   InvalidArgumentError, "alpha must be positive"),
    "taylor-alpha-zero-zero-time": (lambda: _taylor_alpha(0.0, 0.0),
                                    InvalidArgumentError, "alpha must be positive"),
    "taylor-alpha-negative-zero-time": (lambda: _taylor_alpha(0.0, -1.0),
                                        InvalidArgumentError, "alpha must be positive"),
    "taylor-alpha-nan": (lambda: _taylor_alpha(0.1, math.nan),
                         InvalidArgumentError, "alpha must be positive"),
    "taylor-alpha-zero": (lambda: _taylor_alpha(0.1, 0.0),
                          InvalidArgumentError, "alpha must be positive"),
    "taylor-alpha-negative": (lambda: _taylor_alpha(0.1, -1.0),
                              InvalidArgumentError, "alpha must be positive"),
    # order 0 returned a zero hierarchy before the epsilon check every other order makes
    **{
        "%s-order-zero-epsilon-%s" % (name, label): (
            lambda apply=apply, epsilon=epsilon: apply(gl.zero_hierarchy(GRID, 0), epsilon),
            InvalidArgumentError, "epsilon must be finite and non-negative, got %r" % epsilon)
        for name, apply in (("birth", lambda k, eps: gl.apply_birth(k, POT, eps)),
                            ("generator", lambda k, eps: gl.apply_generator(k, PARAMS, POT, eps)))
        for label, epsilon in (("negative", -1.0), ("nan", math.nan))
    },
    # a fractional or nan n_max raised a raw TypeError from range
    **{
        "%s-order-%s" % (name, label): (lambda build=build, n_max=n_max: build(n_max),
                                       InvalidArgumentError, "n_max must be an integer >= 0")
        for name, build in BUILDERS.items()
        for label, n_max in (("fraction", 1.5), ("nan", math.nan))
    },
    # the same from range; refused before the output directory is used
    "verify-bounds-cases-fraction": (lambda: cmd_verify_bounds(ExperimentConfig(), None, n_cases=2.5),
                                     InvalidArgumentError, "n_cases must be an integer >= 1"),
    "verify-bounds-cases-nan": (lambda: cmd_verify_bounds(ExperimentConfig(), None, n_cases=math.nan),
                                InvalidArgumentError, "n_cases must be an integer >= 1"),
    "vlasov-z": (lambda: gl.VlasovConfig(z=0.0, dt=0.1),
                 InvalidArgumentError, "z must be finite and positive"),
    # built, and integrate ended nonfinite-state at t = dt
    "vlasov-z-inf": (lambda: gl.VlasovConfig(z=math.inf, dt=0.1),
                     InvalidArgumentError, "z must be finite and positive"),
    # raised a raw numpy overflow warning from the direct sum before GridField saw it
    "convolve-overflow": (_overflowing_convolution,
                          InvalidArgumentError, "field values must be finite"),
    # no odd order can meet |k_n| <= envelope^n
    "ruelle-envelope": (lambda: gl.random_ruelle_hierarchy(GRID, 1, np.random.default_rng(0), -0.5),
                        InvalidArgumentError, "envelope must be non-negative"),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_library_refuses_with_its_exact_message(case):
    call, error, message = REFUSALS[case]
    with pytest.raises(error, match="^%s$" % re.escape(message)):
        call()


SERIES_RULES = {
    "terms-zero": ({"m_max": 0}, "m_max must be an integer >= 1"),
    "terms-fraction": ({"m_max": 1.5}, "m_max must be an integer >= 1"),
    "tol-nan": ({"tol": math.nan}, "tol must be positive"),
    "tol-zero": ({"tol": 0.0}, "tol must be positive"),
}


@pytest.mark.parametrize("rule", sorted(SERIES_RULES))
@pytest.mark.parametrize("fraction", [0.0, 0.5])
def test_every_solve_entry_refuses_a_series_rule_alike(rule, fraction):
    # evolve_global answered t_final = 0 before any of these rules
    bad, message = SERIES_RULES[rule]
    args = {"m_max": 10, "tol": 1e-12, **bad}
    u0 = gl.exponential_hierarchy(gl.constant_field(GRID, 0.5), 1)
    t = fraction * gl.step_radius(norm_bound_M(PARAMS, POT), PARAMS.alpha, PARAMS.alpha0)
    calls = [
        lambda: gl.taylor_evolve(_no_apply, u0, t, args["m_max"], args["tol"], norm_alpha=PARAMS.alpha),
        lambda: gl.solve_local(PARAMS, POT, gl.GLAUBER, u0, t, args["m_max"], args["tol"]),
        lambda: gl.evolve_global(PARAMS, POT, u0, t, m_max=args["m_max"], tol=args["tol"]),
    ]
    for call in calls:
        with pytest.raises(InvalidArgumentError, match="^%s$" % re.escape(message)):
            call()
