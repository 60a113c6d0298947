"""Taylor evolution of hierarchies on a scale of norms.

The evolution u(t) = sum_m t^m/m! A^m u0 is summed term by term.  When the
operator loses one scale step per application with uniform constant M
(||A u||_{s'} <= M/(s''-s') ||u||_{s''}), the series is guaranteed to
converge for t below the step radius

    radius = (alpha0 - alpha) / (e * M),

and solve_local enforces that guard.  Truncated hierarchies make A a
bounded matrix, so the series actually converges for every t; the guard is
kept anyway so the scheme is exercised as designed, and the beyond-radius
regime stays reachable only through the test suite's matrix exponential
oracle.

Global continuation restarts the local solve while the state keeps
satisfying the activity envelope |k_n| <= z^n: the scale indices are then
pinned to alpha0 = 1/z (the envelope makes the state a unit ball element
of that space) with alpha = alpha0/2 by default.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    ConvergenceError,
    InvalidArgumentError,
    MemoryGuardError,
    RadiusExceededError,
    RuelleViolationError,
)
from .generators import GLAUBER, apply_generator, norm_bound_M
from .hierarchy import (
    MEMORY_GUARD_ENTRIES,
    CorrelationHierarchy,
    ScaleParams,
    max_abs_by_order,
    require_finite,
    ruelle_margin,
    scale_norm,
)

RUELLE_TOL = 1e-6
RUELLE_DRIFT_TOL = 1e-3


@dataclass
class StepRecord:
    """Diagnostics captured after each accepted solver substep."""

    time: float
    terms_used: int
    tail_estimate: float
    ruelle_margin: float
    scale_norm: float
    max_abs_by_order: list


def step_record(time, u, z, alpha, terms_used=0, tail_estimate=0.0) -> StepRecord:
    """Diagnostics of u at `time` from one profile: scale norms at 1/z (the margin) and alpha."""
    profile = max_abs_by_order(u)
    return StepRecord(
        time=time,
        terms_used=terms_used,
        tail_estimate=tail_estimate,
        ruelle_margin=scale_norm(profile, 1.0 / z),
        scale_norm=scale_norm(profile, alpha),
        max_abs_by_order=profile,
    )


@dataclass
class SolveReport:
    """Outcome of a local or global solve."""

    solution: CorrelationHierarchy
    terms_used: int
    tail_estimate: float
    radius: float
    alpha: float  # scale index of the report's norms
    restarts: int = 0
    steps: list = field(default_factory=list)  # one record per accepted substep, none at t = 0


def step_radius(M, alpha, alpha0) -> float:
    """Guaranteed lifetime (alpha0 - alpha)/(e M) of one local solve."""
    if not (M > 0):
        raise InvalidArgumentError("M must be positive")
    if not (0 < alpha <= alpha0):
        raise InvalidArgumentError("need 0 < alpha <= alpha0")
    return (alpha0 - alpha) / (math.e * M)


def taylor_evolve(apply, u0, t, m_max, tol, norm_alpha=1.0) -> SolveReport:
    """Sum u(t) = sum_{m<=m*} t^m/m! A^m u0 until the term norm drops below tol.

    The stopping norm is scale_norm at norm_alpha; tail_estimate is the
    norm of the last added term.  Raises ConvergenceError when m_max terms
    did not reach tol.

    Each term apply(term) is scaled by t/m in place, so apply must not keep
    the arrays it returns.  A read-only array, or one that shares memory with
    apply's argument (lambda h: h, say), is scaled into a new array instead,
    so u0 is never changed.
    """
    if t < 0:
        raise InvalidArgumentError("t must be non-negative")
    if m_max < 1:
        raise InvalidArgumentError("m_max must be at least 1")
    # u0 was validated when it was built; intermediates skip the constructor's
    # finiteness scan too: a term is scanned only when its norm is not
    # finite, the accepted sum once.
    u = CorrelationHierarchy._trusted(u0.grid, [x.copy() for x in u0.tensors])
    if t == 0.0:
        return SolveReport(u, 0, 0.0, math.inf, norm_alpha)
    term = u0
    with np.errstate(over="ignore", invalid="ignore"):
        for m in range(1, m_max + 1):
            scaled = []
            for x in apply(term).tensors:
                owned = x.flags.writeable and not any(
                    np.may_share_memory(x, y) for y in term.tensors
                )
                scaled.append(np.multiply(x, t / m, out=x if owned else None))
            term = CorrelationHierarchy._trusted(u0.grid, scaled)
            for acc, x in zip(u.tensors, term.tensors):
                acc += x
            tail = scale_norm(max_abs_by_order(term), norm_alpha)
            if not math.isfinite(tail):
                require_finite(term.tensors, "Taylor term %d" % m)
            if tail < tol:
                require_finite(u.tensors, "evolved state")
                return SolveReport(u, m, tail, math.inf, norm_alpha)
    raise ConvergenceError(
        "tail %.3g still above tol %.3g after %d terms" % (tail, tol, m_max)
    )


def solve_local(params: ScaleParams, pot, epsilon, u0, t, m_max, tol) -> SolveReport:
    """One guarded local solve at the given epsilon; for t > 0 its steps record the solution."""
    radius = step_radius(norm_bound_M(params, pot), params.alpha, params.alpha0)
    if t >= radius:
        raise RadiusExceededError(
            "t=%.9g outside the guaranteed interval [0, %.9g)" % (t, radius)
        )
    report = taylor_evolve(
        lambda h: apply_generator(h, params, pot, epsilon),
        u0,
        t,
        m_max,
        tol,
        norm_alpha=params.alpha,
    )
    report.radius = radius
    if t > 0:
        report.steps = [step_record(t, report.solution, params.z, params.alpha,
                                    report.terms_used, report.tail_estimate)]
    return report


def evolve_global(
    params: ScaleParams,
    pot,
    u0,
    t_final,
    substep_fraction=0.9,
    m_max=60,
    tol=1e-12,
    epsilon=GLAUBER,
) -> SolveReport:
    """Continue local solves up to t_final under the activity envelope.

    The scale is pinned to alpha0 = 1/z and alpha = alpha0/2, each substep
    advances substep_fraction of the step radius, and the envelope margin
    of every accepted substep, the last one included, is checked as soon as
    its step record is made.
    Tolerances: the initial state must satisfy margin <= 1 + RUELLE_TOL;
    during the run drift up to 1 + RUELLE_DRIFT_TOL is accepted as
    truncation noise, beyond that the run aborts with RuelleViolationError.
    A zero step radius or too many substeps for the memory guard fail up front.
    """
    if not (t_final >= 0 and math.isfinite(t_final)):
        raise InvalidArgumentError("t_final must be finite and non-negative")
    if not (0 < substep_fraction < 1):  # a substep of one whole radius fails solve_local's guard
        raise InvalidArgumentError("substep_fraction must lie in (0, 1)")
    z = params.z
    alpha0 = 1.0 / z
    gparams = ScaleParams(alpha0 / 2.0, alpha0, z, params.epsilon)
    radius = step_radius(norm_bound_M(gparams, pot), gparams.alpha, gparams.alpha0)
    step = substep_fraction * radius

    margin = ruelle_margin(u0, z)
    if margin > 1.0 + RUELLE_TOL:
        raise RuelleViolationError(margin, 0.0)
    if t_final > 0 and step == 0:
        raise RadiusExceededError("t=%.9g outside the guaranteed interval [0, 0)" % t_final)
    substeps = t_final / step if t_final > 0 else 0.0  # each records n_max + 1 rows
    if substeps * (u0.n_max + 1) > MEMORY_GUARD_ENTRIES:
        raise MemoryGuardError(
            "%.3g substeps of %d state rows exceed the guard of %d entries"
            % (substeps, u0.n_max + 1, MEMORY_GUARD_ENTRIES)
        )

    u = u0
    now = 0.0
    records = []
    while t_final - now > 1e-12 * max(1.0, t_final):
        dt_step = min(step, t_final - now)
        local = solve_local(gparams, pot, epsilon, u, dt_step, m_max, tol)
        u = local.solution
        now += dt_step
        records.append(replace(local.steps[0], time=now))
        if records[-1].ruelle_margin > 1.0 + RUELLE_DRIFT_TOL:
            raise RuelleViolationError(records[-1].ruelle_margin, now)
    return SolveReport(
        solution=u,
        terms_used=max((r.terms_used for r in records), default=0),
        tail_estimate=records[-1].tail_estimate if records else 0.0,
        radius=radius,
        alpha=gparams.alpha,
        restarts=max(0, len(records) - 1),
        steps=records,
    )
