"""The benchmark's workloads: seeded config generation, the call, the work
count and the per-call correctness gate.

Each workload owns three generated configs; one *pass* calls its harness
entry point once on each.  Config costs are fixed by construction (fixed
sizes, a fixed number of solver substeps or RK4 steps, a fixed number of
sampled cases), so the seed varies what is computed, not how much.
"""

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from glauberlab import harness
from glauberlab.config import (
    ExperimentConfig,
    build_grid,
    build_potential,
    build_scale_params,
    kind_from_epsilon,
)
from glauberlab.generators import apply_generator, evaluate_generator_gf, norm_bound_M
from glauberlab.hierarchy import (
    ScaleParams,
    evaluate_gf,
    load_hierarchy,
    max_abs_difference,
    ruelle_margin,
)
from glauberlab.lattice import GridField
from glauberlab.solver import RUELLE_DRIFT_TOL, step_radius

Z = 0.5
# plain, rescaled and mean-field limit generators
EPSILONS = (1.0, 0.25, 0.0)
POTENTIAL_KINDS = ("gaussian", "tophat", "zero")
BOUNDS_CASES = 30
KINETIC_DT = 0.01
# tolerances of acceptance criteria 1 (duality) and 6 (kinetic closed form)
DUALITY_TOL = 1e-9
CLOSED_FORM_TOL = 1e-8

# The config file format, in the order the README documents it.
CONFIG_KEYS = (
    ("grid.n_sites", "n_sites"),
    ("grid.length", "length"),
    ("potential.kind", "potential_kind"),
    ("potential.amplitude", "potential_amplitude"),
    ("potential.width", "potential_width"),
    ("model.z", "z"),
    ("model.epsilon", "epsilon"),
    ("truncation.n_max", "n_max"),
    ("solver.alpha", "alpha"),
    ("solver.alpha0", "alpha0"),
    ("solver.m_max", "m_max"),
    ("solver.tol", "tol"),
    ("time.t_final", "t_final"),
    ("time.substep_fraction", "substep_fraction"),
    ("vlasov.dt", "dt"),
    ("vlasov.scheme", "scheme"),
    ("vlasov.sample_stride", "sample_stride"),
    ("initial.level", "initial_level"),
    ("initial.cosine_amplitude", "initial_cosine_amplitude"),
    ("rng.seed", "seed"),
)


def config_text(cfg: ExperimentConfig) -> str:
    """Render cfg in the `key = value` format parse_config reads back exactly."""
    lines = []
    for key, attr in CONFIG_KEYS:
        value = getattr(cfg, attr)
        lines.append("%s = %s" % (key, repr(value) if isinstance(value, float) else value))
    return "\n".join(lines) + "\n"


def _potential(rng):
    return {
        "potential_kind": str(rng.choice(POTENTIAL_KINDS)),
        "potential_amplitude": float(rng.uniform(0.2, 0.8)),
        "potential_width": float(rng.uniform(0.5, 1.5)),
    }


def _density(rng, top):
    """Constant level plus cosine wobble, inside [0, top] at every site."""
    level = float(rng.uniform(0.5, 1.0)) * top
    wobble = float(rng.uniform(0.0, 1.0)) * min(level, top - level)
    return {"initial_level": level, "initial_cosine_amplitude": wobble}


def global_substep(cfg: ExperimentConfig) -> float:
    """Substep length evolve_global takes for cfg (alpha0 = 1/z, alpha = alpha0/2)."""
    grid = build_grid(cfg)
    pot = build_potential(cfg, grid)
    alpha0 = 1.0 / cfg.z
    params = ScaleParams(alpha0 / 2.0, alpha0, cfg.z, cfg.epsilon)
    radius = step_radius(norm_bound_M(params, pot), params.alpha, params.alpha0)
    return cfg.substep_fraction * radius


def evolve_configs(seed, n_sites=16, n_max=4, substeps=2):
    """One config per epsilon; t_final spans exactly `substeps` global substeps."""
    rng = np.random.default_rng([seed, 1])
    configs = []
    for eps in EPSILONS:
        cfg = replace(
            ExperimentConfig(),
            n_sites=n_sites,
            n_max=n_max,
            z=Z,
            epsilon=eps,
            seed=int(rng.integers(2**31)),
            **_potential(rng),
            **_density(rng, Z),
        )
        # the last substep is half a step, so rounding cannot add another
        configs.append(replace(cfg, t_final=(substeps - 0.5) * global_substep(cfg)))
    return configs


def bounds_configs(seed, n_sites=12, n_max=4):
    """One config per epsilon, each with its own rng.seed for the sampled cases."""
    rng = np.random.default_rng([seed, 2])
    return [
        replace(
            ExperimentConfig(),
            n_sites=n_sites,
            n_max=n_max,
            z=Z,
            epsilon=eps,
            seed=int(rng.integers(2**31)),
            initial_level=Z,
            **_potential(rng),
        )
        for eps in EPSILONS
    ]


def kinetic_configs(seed, n_sites=512, steps=200):
    """One config per potential kind; each call takes exactly `steps` RK4 steps.

    cmd_vlasov builds no hierarchy; truncation.n_max = 2 keeps the config
    inside the memory guard for the commands that would.
    """
    rng = np.random.default_rng([seed, 3])
    configs = []
    for kind in POTENTIAL_KINDS:
        pot = _potential(rng)
        pot["potential_kind"] = kind
        configs.append(
            replace(
                ExperimentConfig(),
                n_sites=n_sites,
                n_max=2,
                length=64.0,
                z=Z,
                dt=KINETIC_DT,
                t_final=steps * KINETIC_DT,
                sample_stride=10,
                seed=int(rng.integers(2**31)),
                **pot,
                **_density(rng, Z),
            )
        )
    return configs


def rel_err(a, b) -> float:
    scale = max(abs(a), abs(b))
    return 0.0 if scale == 0.0 else abs(a - b) / scale


def _check_evolve(cfg, report, out_dir, rng):
    problems = []
    margin = ruelle_margin(report.solution, cfg.z)
    if not margin <= 1.0 + RUELLE_DRIFT_TOL:
        problems.append("final envelope margin %r above 1 + %g" % (margin, RUELLE_DRIFT_TOL))
    grid = build_grid(cfg)
    pot = build_potential(cfg, grid)
    params = build_scale_params(cfg)
    kind = kind_from_epsilon(cfg.epsilon)
    theta = GridField(grid, rng.uniform(-0.6, 0.6, size=grid.n_sites))
    lhs = evaluate_gf(apply_generator(report.solution, params, pot, kind), theta)
    rhs = evaluate_generator_gf(report.solution, theta, params, pot, kind)
    if not rel_err(lhs, rhs) <= DUALITY_TOL:
        problems.append("duality identity off by %.3g" % rel_err(lhs, rhs))
    loaded = load_hierarchy(out_dir / "hierarchy_final.txt")
    if loaded.grid != grid or max_abs_difference(loaded, report.solution) != 0.0:
        problems.append("snapshot does not round-trip through load_hierarchy")
    return problems


def _check_bounds(cfg, violations, out_dir, rng):
    return ["%s: %d violations" % (k, v) for k, v in violations.items() if v != 0]


def _check_kinetic(cfg, result, out_dir, rng):
    residual, bound_ok, closed_form_err = result
    problems = []
    if not bound_ok:
        problems.append("sup-norm a-priori bound violated")
    if not math.isfinite(residual):
        problems.append("stationary residual is not finite")
    if cfg.potential_kind == "zero" and not closed_form_err <= CLOSED_FORM_TOL:
        problems.append("closed-form error %r above %g" % (closed_form_err, CLOSED_FORM_TOL))
    return problems


@dataclass(frozen=True)
class Workload:
    """A benchmark workload.

    make_configs(seed) gives the configs of one pass; call(cfg, out_dir)
    runs the harness entry point the CLI runs; work(cfg, result) counts
    the domain work of one call; check(cfg, result, out_dir, rng) returns
    the correctness problems of one call, empty when it is correct.
    """

    name: str
    why: str
    bypasses: str
    make_configs: Callable
    call: Callable
    work: Callable
    check: Callable
    work_unit: str
    # set-up also builds the initial hierarchy, as cmd_evolve does
    builds_hierarchy: bool


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="evolve",
            why="cmd_evolve --mode global at (16,4) over the plain, rescaled and limit "
            "generators: tensor route and snapshot writer",
            bypasses="functional evaluation and the kinetic integrator",
            make_configs=evolve_configs,
            call=lambda cfg, out: harness.cmd_evolve(cfg, out, mode="global"),
            work=lambda cfg, report: sum(s.terms_used for s in report.steps),
            check=_check_evolve,
            work_unit="generator applications",
            builds_hierarchy=True,
        ),
        Workload(
            name="bounds",
            why="cmd_verify_bounds at (12,4), fresh seed per call: functional read side "
            "of hierarchy via birth_gf_term and evaluate_gf",
            bypasses="the Taylor solver, the tensor birth route and almost all output",
            make_configs=bounds_configs,
            call=lambda cfg, out: harness.cmd_verify_bounds(cfg, out, n_cases=BOUNDS_CASES),
            work=lambda cfg, violations: BOUNDS_CASES,
            check=_check_bounds,
            work_unit="sampled cases",
            builds_hierarchy=False,
        ),
        Workload(
            name="kinetic",
            why="cmd_vlasov at N=512 over gaussian, tophat and zero potentials: O(N^2) "
            "RK4 right-hand side and the trajectory CSV",
            bypasses="every hierarchy and generator path",
            make_configs=kinetic_configs,
            call=lambda cfg, out: harness.cmd_vlasov(cfg, out),
            work=lambda cfg, result: round(cfg.t_final / cfg.dt),
            check=_check_kinetic,
            work_unit="RK4 steps",
            builds_hierarchy=False,
        ),
    )
}
