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

The loop calls apply(term, out) once per term.  out is None or a hierarchy
of u0's shape that the loop owns and no longer reads, so the generator
writes its result into out's arrays instead of new ones.  Freed terms go to
a spare list, the source of each out and of the running sum.  One
evolve_global run keeps one spare list and one set of shift rows: each
replaced solution joins the list (the caller's u0 never does), and the
rows are built at the run's first application.  A steady-state term then
allocates no top-order-sized array for its result, the sum or the death
part.  Besides the caller's u0 a run holds the previous solution, the
sum, the term, out and one application's stacked rows, about 5.5-5.6 top
tensors at (16, 4).
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
from .generators import GLAUBER, apply_generator, norm_bound_M, shift_rows
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


def taylor_evolve(apply, u0, t, m_max, tol, norm_alpha=1.0, spare=None) -> SolveReport:
    """Sum u(t) = sum_{m<=m*} t^m/m! A^m u0 until the term norm drops below tol.

    The stopping norm is scale_norm at norm_alpha; tail_estimate is the
    norm of the last added term.  Raises ConvergenceError when m_max terms
    did not reach tol.

    Each term is apply(term, out), scaled by t/m in place, so apply must not
    keep the arrays it returns.  out is None or a hierarchy of u0's shape
    whose arrays the loop owns and no longer reads: apply may write its
    result there and return those arrays, or ignore out.  A read-only
    array, or one that shares memory with term or u0 (lambda h, out: h,
    say), is scaled into a new array instead, so u0 is never changed; the
    term such a result aliased is not recycled, so no array apply returned
    without giving it up is ever handed back as out.

    spare is a list of hierarchies of u0's shape that the loop may take
    arrays from: the running sum and each out come from it while it holds
    one.  Every term goes there once the next term exists, and the last one
    too, so a caller that passes one list to successive calls reuses the
    same arrays (evolve_global does); u0 never goes there.
    """
    if t < 0:
        raise InvalidArgumentError("t must be non-negative")
    if m_max < 1:
        raise InvalidArgumentError("m_max must be at least 1")
    spare = [] if spare is None else spare
    # u0 was validated when it was built; intermediates skip the constructor's
    # finiteness scan too: a term is scanned only when its norm is not
    # finite, the accepted sum once.
    if spare:
        u = spare.pop()
        for acc, x in zip(u.tensors, u0.tensors):
            np.copyto(acc, x)
    else:
        u = CorrelationHierarchy._trusted(u0.grid, [x.copy() for x in u0.tensors])
    if t == 0.0:
        return SolveReport(u, 0, 0.0, math.inf, norm_alpha)
    term = u0
    with np.errstate(over="ignore", invalid="ignore"):
        for m in range(1, m_max + 1):
            result = apply(term, spare.pop() if spare else None).tensors
            owned = [
                x.flags.writeable
                and not any(np.may_share_memory(x, y) for y in term.tensors + u0.tensors)
                for x in result
            ]
            if term is not u0 and all(owned):
                spare.append(term)
            scaled = [np.multiply(x, t / m, out=x if own else np.empty_like(x))
                      for x, own in zip(result, owned)]
            term = CorrelationHierarchy._trusted(u0.grid, scaled)
            for acc, x in zip(u.tensors, term.tensors):
                acc += x
            tail = scale_norm(max_abs_by_order(term), norm_alpha)
            if not math.isfinite(tail):
                require_finite(term.tensors, "Taylor term %d" % m)
            if tail < tol:
                require_finite(u.tensors, "evolved state")
                spare.append(term)
                return SolveReport(u, m, tail, math.inf, norm_alpha)
    raise ConvergenceError(
        "tail %.3g still above tol %.3g after %d terms" % (tail, tol, m_max)
    )


class _Run:
    """What one evolve_global run, or one solve_local call, builds once and reuses.

    Called, it is apply(term, out) of the generator for taylor_evolve.  The
    shift rows are built at the first application, so epsilon is checked
    where it always was, and serve every later one; spare is the run's
    spare list.
    """

    def __init__(self, params, pot, epsilon):
        self.params, self.pot, self.epsilon = params, pot, epsilon
        self.rows = None
        self.spare = []

    def __call__(self, term, out):
        if self.rows is None:
            self.rows = shift_rows(self.pot, [self.epsilon])
        return apply_generator(term, self.params, self.pot, self.epsilon, out=out, rows=self.rows)


def _solve_local(run, u0, t, m_max, tol) -> SolveReport:
    """solve_local within a run."""
    params = run.params
    radius = step_radius(norm_bound_M(params, run.pot), params.alpha, params.alpha0)
    if t >= radius:
        raise RadiusExceededError(
            "t=%.9g outside the guaranteed interval [0, %.9g)" % (t, radius)
        )
    report = taylor_evolve(run, u0, t, m_max, tol, norm_alpha=params.alpha, spare=run.spare)
    report.radius = radius
    if t > 0:
        report.steps = [step_record(t, report.solution, params.z, params.alpha,
                                    report.terms_used, report.tail_estimate)]
    return report


def solve_local(params: ScaleParams, pot, epsilon, u0, t, m_max, tol) -> SolveReport:
    """One guarded local solve at the given epsilon; for t > 0 its steps record the solution."""
    return _solve_local(_Run(params, pot, epsilon), u0, t, m_max, tol)


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
    The run's substeps share one spare list and one set of shift rows.
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

    run = _Run(gparams, pot, epsilon)
    u = u0
    now = 0.0
    records = []
    while t_final - now > 1e-12 * max(1.0, t_final):
        dt_step = min(step, t_final - now)
        local = _solve_local(run, u, dt_step, m_max, tol)
        if u is not u0:  # the replaced solution; the caller keeps u0
            run.spare.append(u)
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
