"""Library refusals that no CLI run reaches, each with its error class and exact message.

The config validates these arguments first, or no command calls the function,
so only a library caller meets the refusals below and a CLI fuzz cannot pin them.
"""

import math
import re

import numpy as np
import pytest

import glauberlab as gl
from glauberlab.errors import GridMismatchError, InvalidArgumentError

GRID = gl.make_grid(8, 8.0)


def _hierarchy(grid=GRID):
    return gl.zero_hierarchy(grid, 1)


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
                        InvalidArgumentError, "z must be positive"),
    "difference-grids": (lambda: gl.max_abs_difference(_hierarchy(), _hierarchy(gl.make_grid(8, 4.0))),
                         GridMismatchError, "hierarchies live on different grids"),
    "step-radius-alpha": (lambda: gl.step_radius(1.0, 1.0, 0.5),
                          InvalidArgumentError, "need 0 < alpha <= alpha0"),
    "taylor-time": (lambda: gl.taylor_evolve(lambda h, out: h, _hierarchy(), -1.0, 10, 1e-12),
                    InvalidArgumentError, "t must be finite and non-negative"),
    # nan and inf ended in a non-finite Taylor term 1
    "taylor-time-nan": (lambda: gl.taylor_evolve(lambda h, out: h, _hierarchy(), math.nan, 10, 1e-12),
                        InvalidArgumentError, "t must be finite and non-negative"),
    "taylor-time-inf": (lambda: gl.taylor_evolve(lambda h, out: h, _hierarchy(), math.inf, 10, 1e-12),
                        InvalidArgumentError, "t must be finite and non-negative"),
    "local-time-nan": (lambda: gl.solve_local(gl.ScaleParams(0.5, 1.0, 0.5), gl.zero_potential(GRID),
                                              gl.GLAUBER, _hierarchy(), math.nan, 10, 1e-12),
                       InvalidArgumentError, "t must be finite and non-negative"),
    "taylor-terms": (lambda: gl.taylor_evolve(lambda h, out: h, _hierarchy(), 0.1, 0, 1e-12),
                     InvalidArgumentError, "m_max must be an integer >= 1"),
    # a fractional or infinite m_max raised a raw TypeError from range
    "taylor-terms-fraction": (lambda: gl.taylor_evolve(lambda h, out: h, _hierarchy(), 0.1, 2.5, 1e-12),
                              InvalidArgumentError, "m_max must be an integer >= 1"),
    "taylor-terms-inf": (lambda: gl.taylor_evolve(lambda h, out: h, _hierarchy(), 0.1, math.inf, 1e-12),
                         InvalidArgumentError, "m_max must be an integer >= 1"),
    # a tol no term can fall below ran all m_max terms into a ConvergenceError
    "taylor-tol-nan": (lambda: gl.taylor_evolve(lambda h, out: h, _hierarchy(), 0.1, 10, math.nan),
                       InvalidArgumentError, "tol must be positive"),
    "taylor-tol-zero": (lambda: gl.taylor_evolve(lambda h, out: h, _hierarchy(), 0.1, 10, 0.0),
                        InvalidArgumentError, "tol must be positive"),
    "taylor-tol-negative": (lambda: gl.taylor_evolve(lambda h, out: h, _hierarchy(), 0.1, 10, -1e-12),
                            InvalidArgumentError, "tol must be positive"),
    "vlasov-z": (lambda: gl.VlasovConfig(z=0.0, dt=0.1),
                 InvalidArgumentError, "z must be positive"),
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
