"""glauberlab: birth-and-death hierarchy dynamics on a periodic lattice.

Truncated correlation hierarchies stand in for generating functionals of
point-process states; the package evolves them with a Taylor solver on a
scale of norms, integrates the companion mean-field kinetic equation,
and ships a harness that checks the norm estimates and scaling limits
the construction rests on.
"""

from .errors import (
    ConfigError,
    ConvergenceError,
    GlauberLabError,
    GridMismatchError,
    InvalidArgumentError,
    MemoryGuardError,
    NonfiniteStateError,
    RadiusExceededError,
    RuelleViolationError,
)
from .lattice import (
    Grid,
    GridField,
    PairPotential,
    constant_field,
    convolve,
    field_l1_norm,
    field_linf_norm,
    gaussian_potential,
    make_grid,
    potential_from_samples,
    tophat_potential,
    zero_potential,
)
from .hierarchy import (
    CorrelationHierarchy,
    ScaleParams,
    evaluate_gf,
    exponential_hierarchy,
    gf_upper_bound,
    load_hierarchy,
    max_abs_by_order,
    max_abs_difference,
    random_ruelle_hierarchy,
    ruelle_margin,
    save_hierarchy,
    scale_norm,
    substitute_affine,
    zero_hierarchy,
)
from .generators import (
    GLAUBER,
    VLASOV_LIMIT,
    apply_birth,
    apply_generator,
    evaluate_generator_gf,
    norm_bound_M,
    vlasov_gap_bound,
)
from .solver import (
    SolveReport,
    evolve_global,
    solve_local,
    step_radius,
    taylor_evolve,
)
from .vlasov import (
    VlasovConfig,
    integrate,
    linf_bound_check,
    stationary_residual,
    vlasov_rhs,
)
from .config import ExperimentConfig, parse_config

__version__ = "0.1.0"
