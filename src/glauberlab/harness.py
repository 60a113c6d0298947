"""Experiment commands: evolution runs, scaling sweeps, bound suites.

Each command takes a parsed ExperimentConfig and an output directory,
writes CSV files (comma delimiter, header row, LF endings, floats via
repr so reruns are byte-identical), and returns its headline numbers.
The small tables go through write_csv; the kinetic trajectory is written
one formatted block per sample by write_trajectory_csv, with the bytes
write_csv would give the same rows.  Randomness is drawn from numpy's
default_rng seeded by the config, so a (config, seed) pair pins every
output bit.
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
)
from .errors import InvalidArgumentError, NonfiniteStateError
from .generators import (
    GLAUBER,
    VLASOV_LIMIT,
    birth_gf_term,
    death_gf_term,
    exp_or_inf,
    norm_bound_M,
    shift_bound_constants,
    vlasov_gap_bound,
)
from .hierarchy import (
    cauchy_estimate_check,
    evaluate_gf,
    exponential_hierarchy,
    max_abs_by_order,
    random_ruelle_hierarchy,
    save_hierarchy,
    scale_norm,
)
from .lattice import GridField, convolve, field_l1_norm, field_linf_norm
from .solver import SolveReport, evolve_global, solve_local, step_radius, step_record
from .vlasov import (
    VlasovConfig,
    integrate,
    linf_bound_check,
    stationary_residual,
)

CHAOS_DEV_TOL = 1e-3
CHAOS_COUPLING_CAP = 0.2
SCALING_THETA_COUNT = 20


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


# exact types only: bool, numpy scalars and subclasses fall back to _fmt
_FORMATTERS = {float: float.__repr__, int: int.__repr__, str: str}


def write_csv(rows, path):
    """Write rows (first row is the header) with LF endings and repr floats.

    A cell whose exact type is in _FORMATTERS skips _fmt, with the same text.
    """
    fmt = _FORMATTERS.get
    with open(path, "w", newline="\n") as fh:
        for row in rows:
            fh.write(",".join([fmt(type(cell), _fmt)(cell) for cell in row]) + "\n")


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


def cmd_evolve(cfg: ExperimentConfig, out_dir, mode="auto") -> SolveReport:
    """Evolve the product state with density from the config.

    mode "local" forces a single guarded solve at the configured scale
    indices, "global" forces envelope-based continuation, "auto" picks
    local when t_final fits inside one step radius.  Writes per-step state
    and solver diagnostics plus the final hierarchy snapshot.
    """
    if mode not in ("auto", "local", "global"):
        raise InvalidArgumentError("mode must be auto, local or global")
    grid = build_grid(cfg)
    pot = build_potential(cfg, grid)
    params = build_scale_params(cfg)
    rho0 = build_initial_density(cfg, grid)
    u0 = exponential_hierarchy(rho0, cfg.n_max)

    radius = step_radius(norm_bound_M(params, pot), params.alpha, params.alpha0)
    go_local = mode == "local" or (mode == "auto" and cfg.t_final < radius)
    if go_local:
        report = solve_local(
            params, pot, cfg.epsilon, u0, cfg.t_final, cfg.m_max, cfg.tol
        )
    else:
        report = evolve_global(
            params,
            pot,
            u0,
            cfg.t_final,
            substep_fraction=cfg.substep_fraction,
            m_max=cfg.m_max,
            tol=cfg.tol,
            epsilon=cfg.epsilon,
        )

    state_rows = [["t", "n", "max_abs", "scale_norm", "ruelle_margin"]]
    for record in [step_record(0.0, u0, cfg.z, report.alpha)] + report.steps:
        state_rows += [
            [record.time, n, mx, record.scale_norm, record.ruelle_margin]
            for n, mx in enumerate(record.max_abs_by_order)
        ]
    write_csv(state_rows, os.path.join(out_dir, "evolve_state.csv"))

    step_rows = [["t", "terms_used", "tail_estimate", "ruelle_margin", "scale_norm"]]
    for record in report.steps:
        step_rows.append(
            [
                record.time,
                record.terms_used,
                record.tail_estimate,
                record.ruelle_margin,
                record.scale_norm,
            ]
        )
    write_csv(step_rows, os.path.join(out_dir, "evolve_steps.csv"))
    save_hierarchy(report.solution, os.path.join(out_dir, "hierarchy_final.txt"))
    return report


def cmd_vlasov(cfg: ExperimentConfig, out_dir):
    """Integrate the kinetic equation; returns (residual, bound_ok, closed_form_err)."""
    grid = build_grid(cfg)
    pot = build_potential(cfg, grid)
    rho0 = build_initial_density(cfg, grid)
    vcfg = VlasovConfig(
        z=cfg.z,
        dt=cfg.dt,
        scheme=cfg.scheme,
        t_final=cfg.t_final,
        sample_stride=cfg.sample_stride,
    )
    final, trajectory = integrate(rho0, vcfg, pot)
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
    eps_list = sorted(set(float(e) for e in epsilons), reverse=True)
    if len(eps_list) < 2:
        raise InvalidArgumentError("need at least two distinct epsilons")
    if any(e <= 0 for e in eps_list):
        raise InvalidArgumentError("epsilons must be positive")
    grid = build_grid(cfg)
    pot = build_potential(cfg, grid)
    params = build_scale_params(cfg)
    rho0 = build_initial_density(cfg, grid)
    u0 = exponential_hierarchy(rho0, cfg.n_max)

    limit_run = solve_local(
        params, pot, VLASOV_LIMIT, u0, cfg.t_final, cfg.m_max, cfg.tol
    ).solution

    rng = np.random.default_rng(cfg.seed)
    thetas = [
        GridField(grid, rng.uniform(-0.5, 0.5, size=grid.n_sites))
        for _ in range(SCALING_THETA_COUNT)
    ]
    limit_values = [evaluate_gf(limit_run, theta) for theta in thetas]
    weights = [math.exp(-field_l1_norm(theta) / cfg.alpha) for theta in thetas]

    gaps = []
    for eps in eps_list:
        run = solve_local(
            params, pot, eps, u0, cfg.t_final, cfg.m_max, cfg.tol
        ).solution
        gap = max(
            abs(evaluate_gf(run, theta) - ref) * w
            for theta, ref, w in zip(thetas, limit_values, weights)
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
    pot = build_potential(cfg, grid)
    params = build_scale_params(cfg)
    rho0 = build_initial_density(cfg, grid)
    coupling = field_linf_norm(convolve(pot, rho0))
    if coupling > CHAOS_COUPLING_CAP + 1e-12:
        raise InvalidArgumentError(
            "||phi * rho_0||_inf = %.3g exceeds the %.2g cap the check assumes"
            % (coupling, CHAOS_COUPLING_CAP)
        )
    u0 = exponential_hierarchy(rho0, cfg.n_max)
    report = evolve_global(
        params,
        pot,
        u0,
        cfg.t_final,
        substep_fraction=cfg.substep_fraction,
        m_max=cfg.m_max,
        tol=cfg.tol,
        epsilon=VLASOV_LIMIT,
    )
    evolved = report.solution
    vcfg = VlasovConfig(z=cfg.z, dt=cfg.dt, scheme=cfg.scheme, t_final=cfg.t_final)
    rho_t, _ = integrate(rho0, vcfg, pot)

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
    combined generator estimate, the rescaled-vs-limit gap bound, and the
    derivative growth estimates.  Violations are counted and reported,
    never raised.  Each case evaluates the death term once and the birth
    term once per distinct epsilon, and counts checks per distinct epsilon;
    the scale norm and all derivative checks read one max_abs_by_order scan.
    Raises NonfiniteStateError when a case's weight exp(||theta||_1 / a')
    overflows.
    """
    if n_cases < 1:
        raise InvalidArgumentError("n_cases must be at least 1")
    grid = build_grid(cfg)
    pot = build_potential(cfg, grid)
    params = build_scale_params(cfg)
    rng = np.random.default_rng(cfg.seed)

    eps_gap = cfg.epsilon if cfg.epsilon > 0 else 0.5
    distinct = dict.fromkeys([GLAUBER, eps_gap, VLASOV_LIMIT])
    shift_constants = {eps: shift_bound_constants(pot, eps) for eps in distinct}
    big_m = norm_bound_M(params, pot)
    suites = {
        "death-estimate": [0, 0],
        "birth-estimate": [0, 0],
        "generator-estimate": [0, 0],
        "rescaled-vs-limit-gap": [0, 0],
        "derivative-growth": [0, 0],
    }

    def tally(name, checked, violated):
        suites[name][0] += checked
        suites[name][1] += violated

    for _ in range(n_cases):
        a_prime, a_dprime = _sample_scale_pair(rng, cfg.alpha, cfg.alpha0)
        # checks alpha <= a' < a'' <= alpha0 before anything divides by the gap
        gap_factor = vlasov_gap_bound(eps_gap, params, pot, a_prime, a_dprime)
        gap = a_dprime - a_prime
        k = random_ruelle_hierarchy(grid, cfg.n_max, rng, envelope=cfg.z)
        theta = GridField(grid, rng.uniform(-0.6, 0.6, size=grid.n_sites))
        profile = max_abs_by_order(k)
        big_k = scale_norm(profile, a_dprime)
        exponent = field_l1_norm(theta) / a_prime
        weight = exp_or_inf(exponent)
        if weight == math.inf:  # the functional values it scales overflow too
            raise NonfiniteStateError(
                "test-function weight exp(||theta||_1 / a') = exp(%.3g) overflows" % exponent
            )

        # the generator value as evaluate_generator_gf assembles it, bit for bit
        death = death_gf_term(k, theta)
        births = {eps: birth_gf_term(k, theta, pot, eps) for eps in distinct}
        gens = {eps: -death + params.z * birth for eps, birth in births.items()}
        tally(
            "death-estimate",
            1,
            int(abs(death) > (a_prime / gap) * big_k * weight),
        )

        gen_bound = big_m / gap * big_k * weight
        for epsilon in distinct:
            c0, c1 = shift_constants[epsilon]
            birth_bound = (
                (a_dprime * a_prime / (a_dprime - c0 * a_prime))
                * exp_or_inf(c1 / a_dprime - 1.0)
                * big_k
                * weight
            )
            tally("birth-estimate", 1, int(abs(births[epsilon]) > birth_bound))
            tally("generator-estimate", 1, int(abs(gens[epsilon]) > gen_bound))

        diff = abs(gens[eps_gap] - gens[VLASOV_LIMIT])
        tally("rescaled-vs-limit-gap", 1, int(diff > gap_factor * big_k * weight))

        for order in range(1, cfg.n_max + 1):
            for r in (0.5, 1.0, 2.0):
                tally("derivative-growth", 1, int(not cauchy_estimate_check(profile, order, r)))

    rows = [["suite", "checks", "violations"]]
    for name, (checked, violated) in suites.items():
        rows.append([name, checked, violated])
    write_csv(rows, os.path.join(out_dir, "verify_bounds.csv"))
    return {name: violated for name, (_, violated) in suites.items()}
