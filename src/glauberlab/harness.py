"""Experiment commands: evolution runs, scaling sweeps, bound suites.

Each command takes a parsed ExperimentConfig and an output directory,
writes CSV files (comma delimiter, header row, LF endings, floats via
repr so reruns are byte-identical), and returns its headline numbers.
The small tables go through write_csv; the kinetic trajectory is written
one formatted block per sample by write_trajectory_csv, with the bytes
write_csv would give the same rows.  Randomness is drawn from numpy's
default_rng seeded by the config, so a (config, seed) pair pins every
output bit.

Every command that evolves a hierarchy calls _evolve, which builds the run
from its config and alone chooses a local solve or global continuation: evolve
passes its --mode, scaling-study "local", chaos-check "global".  verify-bounds
stacks its epsilons' birth shift rows once per run, one birth pass per case.
"""

import math
import os
from dataclasses import dataclass

import numpy as np

from .config import (
    ExperimentConfig,
    build_grid,
    build_initial_density,
    build_potential,
    build_scale_params,
    build_vlasov_config,
)
from .errors import InvalidArgumentError, NonfiniteStateError
from .generators import (
    GLAUBER,
    VLASOV_LIMIT,
    birth_gf_term,  # unused here; kept importable for bench/spans.py
    birth_gf_terms,
    death_gf_term,
    exp_or_inf,
    norm_bound_M,
    shift_bound_constants,
    shift_rows,
    vlasov_gap_bound,
)
from .hierarchy import (
    evaluate_gf_rows,
    exponential_hierarchy,
    max_abs_by_order,
    random_ruelle_hierarchy,
    save_hierarchy,
    scale_norm,
)
from .lattice import (
    GridField,
    convolution_kernel,
    convolve_values,
    field_l1_norm,
    l1_norm,
    require_within_memory_guard,
)
from .solver import SolveReport, evolve_global, solve_local, step_radius, step_record
from .vlasov import integrate, linf_bound_check, stationary_residual

CHAOS_DEV_TOL = 1e-3
CHAOS_COUPLING_CAP = 0.2
SCALING_THETA_COUNT = 20


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(rows, path):
    """Write rows (first row is the header) with LF endings and repr floats."""
    with open(path, "w", newline="\n") as fh:
        for row in rows:
            fh.write(",".join([_fmt(cell) for cell in row]) + "\n")


def write_trajectory_csv(trajectory, path):
    """Write (t, values) samples as rows t,site_index,rho_value, one block per sample.

    The bytes are those of write_csv on the per-row table.  The ",<site>,"
    parts are laid out once per file as a %-template over the sites; each
    sample fills it with repr(t) and the reprs of its values in one call.
    """
    n = len(trajectory[0][1])
    template = "".join(["%%s,%d,%%r\n" % site for site in range(n)])
    cells = [None] * (2 * n)
    with open(path, "w", newline="\n") as fh:
        fh.write("t,site_index,rho_value\n")
        for t, values in trajectory:
            cells[0::2] = (repr(float(t)),) * n
            cells[1::2] = values.tolist()
            fh.write(template % tuple(cells))


def _evolve(cfg: ExperimentConfig, epsilon, mode):
    """Build the config's model and evolve its product state u0 to cfg.t_final at epsilon.

    Returns (u0, report).  mode "local" is one guarded solve at the configured
    scale indices, "global" envelope-based continuation, and "auto" is local
    iff t_final lies inside the configured step radius (alpha0 - alpha)/(e M).
    """
    if mode not in ("auto", "local", "global"):
        raise InvalidArgumentError("mode must be auto, local or global")
    grid = build_grid(cfg)
    pot = build_potential(cfg, grid)
    params = build_scale_params(cfg)
    u0 = exponential_hierarchy(build_initial_density(cfg, grid), cfg.n_max)
    if mode == "auto":
        radius = step_radius(norm_bound_M(params, pot), params.alpha, params.alpha0)
        mode = "local" if cfg.t_final < radius else "global"
    if mode == "local":
        return u0, solve_local(params, pot, epsilon, u0, cfg.t_final, cfg.m_max, cfg.tol)
    return u0, evolve_global(
        params, pot, u0, cfg.t_final, substep_fraction=cfg.substep_fraction,
        m_max=cfg.m_max, tol=cfg.tol, epsilon=epsilon,
    )


def cmd_evolve(cfg: ExperimentConfig, out_dir, mode="auto") -> SolveReport:
    """Evolve the product state with density from the config (mode as in _evolve).

    Writes per-step state and solver diagnostics plus the final hierarchy
    snapshot.
    """
    u0, report = _evolve(cfg, cfg.epsilon, mode)

    state_rows = [["t", "n", "max_abs", "scale_norm", "ruelle_margin"]]
    for record in [step_record(0.0, u0, cfg.z, report.alpha)] + report.steps:
        state_rows += [
            [record.time, n, mx, record.scale_norm, record.ruelle_margin]
            for n, mx in enumerate(record.max_abs_by_order)
        ]
    write_csv(state_rows, os.path.join(out_dir, "evolve_state.csv"))

    step_rows = [["t", "terms_used", "tail_estimate", "ruelle_margin", "scale_norm"]]
    step_rows += [
        [r.time, r.terms_used, r.tail_estimate, r.ruelle_margin, r.scale_norm]
        for r in report.steps
    ]
    write_csv(step_rows, os.path.join(out_dir, "evolve_steps.csv"))
    save_hierarchy(report.solution, os.path.join(out_dir, "hierarchy_final.txt"))
    return report


def cmd_vlasov(cfg: ExperimentConfig, out_dir):
    """Integrate the kinetic equation; returns (residual, bound_ok, closed_form_err)."""
    grid = build_grid(cfg)
    pot = build_potential(cfg, grid)
    rho0 = build_initial_density(cfg, grid)
    final, trajectory = integrate(rho0, build_vlasov_config(cfg), pot)
    residual = stationary_residual(final, cfg.z, pot)
    bound_ok = linf_bound_check(trajectory, rho0, cfg.z)

    closed_form_err = None
    if cfg.potential_kind == "zero":
        analytic = cfg.z + (rho0.values - cfg.z) * math.exp(-cfg.t_final)
        closed_form_err = float(np.max(np.abs(final.values - analytic)))

    write_trajectory_csv(trajectory, os.path.join(out_dir, "vlasov_trajectory.csv"))

    summary = [["stationary_residual", "linf_bound_ok", "closed_form_max_error"]]
    summary.append(
        [residual, bound_ok, "" if closed_form_err is None else closed_form_err]
    )
    write_csv(summary, os.path.join(out_dir, "vlasov_summary.csv"))
    return residual, bound_ok, closed_form_err


@dataclass
class ScalingStudyResult:
    epsilons: list
    gaps: list
    fitted_order: float


def _fit_loglog_slope(xs, ys) -> float:
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx = sum(lx) / len(lx)
    my = sum(ly) / len(ly)
    num = sum((a - mx) * (b - my) for a, b in zip(lx, ly))
    den = sum((a - mx) ** 2 for a in lx)
    return num / den


def cmd_scaling_study(cfg: ExperimentConfig, out_dir, epsilons) -> ScalingStudyResult:
    """Evolve under the generator at each eps and under the limit generator.

    All runs share the same initial hierarchy, which makes the observed
    gap purely dynamical.  The gap at each eps is a weighted sup over
    seeded random test functions, gap = max_j |B_eps - B_limit|(theta_j)
    * exp(-||theta_j||_1/alpha), and the fitted order is the log-log slope
    of gap against eps.
    """
    given = [float(e) for e in epsilons]
    if not all(0 < e < math.inf for e in given):  # nan fails too, before any run
        raise InvalidArgumentError("epsilons must be finite and positive, got %r" % given)
    eps_list = sorted(set(given), reverse=True)
    if len(eps_list) < 2:
        raise InvalidArgumentError("need at least two distinct epsilons")
    limit_run = _evolve(cfg, VLASOV_LIMIT, "local")[1].solution
    grid = limit_run.grid

    rng = np.random.default_rng(cfg.seed)
    thetas = rng.uniform(-0.5, 0.5, size=(SCALING_THETA_COUNT, grid.n_sites))
    limit_values = evaluate_gf_rows(limit_run, thetas)
    weights = [math.exp(-l1_norm(theta, grid.spacing) / cfg.alpha) for theta in thetas]

    gaps = []
    for eps in eps_list:
        run = _evolve(cfg, eps, "local")[1].solution
        gap = max(
            abs(value - ref) * w
            for value, ref, w in zip(evaluate_gf_rows(run, thetas), limit_values, weights)
        )
        if gap == 0:
            raise InvalidArgumentError(
                "gap at epsilon %r is zero, the log-log fit needs positive gaps"
                % eps
            )
        gaps.append(gap)

    fitted = _fit_loglog_slope(eps_list, gaps)
    rows = [["epsilon", "gap"]]
    rows += [[eps, gap] for eps, gap in zip(eps_list, gaps)]
    write_csv(rows, os.path.join(out_dir, "scaling_gaps.csv"))
    write_csv(
        [["fitted_order", "n_theta", "t_final"],
         [fitted, SCALING_THETA_COUNT, cfg.t_final]],
        os.path.join(out_dir, "scaling_summary.csv"),
    )
    return ScalingStudyResult(eps_list, gaps, fitted)


def cmd_chaos_check(cfg: ExperimentConfig, out_dir):
    """Check that the limit flow keeps a product state in product form.

    Evolves the product hierarchy of rho_0 under the mean-field generator
    and independently integrates the kinetic equation; reports
    dev1 = max|k_1 - rho_t| and dev2 = max|k_2 - rho_t x rho_t| with a
    pass verdict at 1e-3.  Returns (dev1, dev2, passed).
    """
    if cfg.n_max < 4:
        raise InvalidArgumentError("chaos check needs truncation.n_max >= 4")
    grid = build_grid(cfg)
    require_within_memory_guard(grid.n_sites, cfg.n_max)  # before the kinetic integrate
    pot = build_potential(cfg, grid)
    rho0 = build_initial_density(cfg, grid)
    with np.errstate(over="ignore"):  # an overflowing coupling reads inf, over the cap
        phi_rho = convolve_values(convolution_kernel(pot), rho0.values, grid.spacing)
    coupling = float(np.max(np.abs(phi_rho)))
    if coupling > CHAOS_COUPLING_CAP + 1e-12:
        raise InvalidArgumentError(
            "||phi * rho_0||_inf = %.3g exceeds the %.2g cap the check assumes"
            % (coupling, CHAOS_COUPLING_CAP)
        )
    rho_t, _ = integrate(rho0, build_vlasov_config(cfg), pot)  # first: bad vlasov.* refuses at once
    evolved = _evolve(cfg, VLASOV_LIMIT, "global")[1].solution

    dev1 = float(np.max(np.abs(evolved.tensors[1] - rho_t.values)))
    product2 = np.multiply.outer(rho_t.values, rho_t.values)
    dev2 = float(np.max(np.abs(evolved.tensors[2] - product2)))
    passed = dev1 <= CHAOS_DEV_TOL and dev2 <= CHAOS_DEV_TOL

    profile = [["site", "k1_value", "rho_value"]]
    for site in range(grid.n_sites):
        profile.append(
            [site, float(evolved.tensors[1][site]), float(rho_t.values[site])]
        )
    write_csv(profile, os.path.join(out_dir, "chaos_profile.csv"))
    write_csv(
        [["dev1", "dev2", "verdict"], [dev1, dev2, "pass" if passed else "fail"]],
        os.path.join(out_dir, "chaos_summary.csv"),
    )
    return dev1, dev2, passed


def _sample_scale_pair(rng, alpha, alpha0):
    u1, u2 = rng.uniform(0.0, 1.0, size=2).tolist()  # Python floats overflow without warnings
    a_prime = alpha + 0.45 * (alpha0 - alpha) * u1
    a_dprime = a_prime + (alpha0 - a_prime) * (0.3 + 0.7 * u2)
    return a_prime, a_dprime


def cmd_verify_bounds(cfg: ExperimentConfig, out_dir, n_cases=100):
    """Run the sampled inequality suites; returns violations per suite.

    Each case draws a hierarchy inside the activity envelope, a random
    test function and a random scale pair alpha <= a' < a'' <= alpha0,
    then checks the death estimate, the birth estimate (per epsilon), the
    combined generator estimate and the rescaled-vs-limit gap bound.
    Violations are counted and reported, never raised.  The distinct
    epsilons' shift rows are stacked once per run; each case evaluates the
    death term once and the birth term in one pass over them, and reads one
    max_abs_by_order scan.
    Raises NonfiniteStateError when a case's weight exp(||theta||_1 / a')
    overflows, or when a death, birth or generator value is not finite
    (an overflowing sum reads inf or nan): no comparison with nan could fail.
    """
    if not 1 <= n_cases < math.inf or int(n_cases) != n_cases:
        raise InvalidArgumentError("n_cases must be an integer >= 1")
    n_cases = int(n_cases)
    grid = build_grid(cfg)
    pot = build_potential(cfg, grid)
    params = build_scale_params(cfg)
    rng = np.random.default_rng(cfg.seed)

    eps_gap = cfg.epsilon if cfg.epsilon > 0 else 0.5
    distinct = dict.fromkeys([GLAUBER, eps_gap, VLASOV_LIMIT])
    shift_constants = {eps: shift_bound_constants(pot, eps) for eps in distinct}
    a_rows, b_rows = shift_rows(pot, distinct)
    big_m = norm_bound_M(params, pot)
    checks_per_case = {
        "death-estimate": 1,
        "birth-estimate": len(distinct),
        "generator-estimate": len(distinct),
        "rescaled-vs-limit-gap": 1,
    }
    violations = dict.fromkeys(checks_per_case, 0)

    for _ in range(n_cases):
        a_prime, a_dprime = _sample_scale_pair(rng, cfg.alpha, cfg.alpha0)
        # checks alpha <= a' < a'' <= alpha0 before anything divides by the gap
        gap_factor = vlasov_gap_bound(eps_gap, params, pot, a_prime, a_dprime)
        gap = a_dprime - a_prime
        k = random_ruelle_hierarchy(grid, cfg.n_max, rng, envelope=cfg.z)
        theta = GridField(grid, rng.uniform(-0.6, 0.6, size=grid.n_sites))
        big_k = scale_norm(max_abs_by_order(k), a_dprime)
        exponent = field_l1_norm(theta) / a_prime
        weight = exp_or_inf(exponent)
        if weight == math.inf:  # the functional values it scales overflow too
            raise NonfiniteStateError(
                "test-function weight exp(||theta||_1 / a') = exp(%.3g) overflows" % exponent
            )

        # the generator value as evaluate_generator_gf assembles it, bit for bit
        death = death_gf_term(k, theta)
        births = dict(zip(distinct, birth_gf_terms(k, theta, a_rows, b_rows)))
        gens = {eps: -death + params.z * birth for eps, birth in births.items()}
        if not all(map(math.isfinite, [death, *births.values(), *gens.values()])):
            raise NonfiniteStateError("a death, birth or generator value is not finite")
        violations["death-estimate"] += abs(death) > (a_prime / gap) * big_k * weight

        gen_bound = big_m / gap * big_k * weight
        for epsilon in distinct:
            c0, c1 = shift_constants[epsilon]
            birth_bound = (
                a_dprime * (a_prime / (a_dprime - c0 * a_prime))  # a'' a' underflows at tiny scales
                * exp_or_inf(c1 / a_dprime - 1.0)
                * big_k
                * weight
            )
            violations["birth-estimate"] += abs(births[epsilon]) > birth_bound
            violations["generator-estimate"] += abs(gens[epsilon]) > gen_bound

        diff = abs(gens[eps_gap] - gens[VLASOV_LIMIT])
        violations["rescaled-vs-limit-gap"] += diff > gap_factor * big_k * weight

    rows = [["suite", "checks", "violations"]]
    for name, violated in violations.items():
        rows.append([name, n_cases * checks_per_case[name], violated])
    write_csv(rows, os.path.join(out_dir, "verify_bounds.csv"))
    return violations
