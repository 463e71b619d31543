"""fracflow: a desk-scale numerical laboratory for the nonlocal parabolic
flow u_t + (fractional p(x)-Laplacian) u = |u|^(q(x)-2) u with exterior
zero condition in one space dimension.

The package computes variable-exponent modulars and Luxemburg-type norms,
evaluates the discrete nonlocal operator and the associated energy, locates
the scaling manifold and the potential-well depth, integrates the flow with
energy-based step control, and audits the decay and finite-time blow-up
behavior predicted by the well geometry.
"""

from .errors import (
    AssumptionViolated,
    AuditFailed,
    ConfigError,
    ContextMismatch,
    DegenerateDenominator,
    ExponentOutOfRange,
    FracflowError,
    GridMismatch,
    InnerSolveStalled,
    InvalidResolution,
    NoDescentProgress,
    NonFinite,
    NotW0,
    ProjectionFailed,
    ZeroFunction,
)
from .exponents import (
    ExponentField,
    ExponentSummary,
    critical_exponent,
    make_exponent_field,
    validate_assumptions,
)
from .grid import (
    Domain,
    Grid,
    GridFunction,
    build_grid,
    inner_product,
    integrate,
    l2_norm,
    load_csv,
    save_csv,
)
from .modular import (
    ModularReport,
    gagliardo_modular,
    gagliardo_seminorm,
    lebesgue_modular,
    luxemburg_norm,
)
from .nonlocal_operator import (
    OperatorContext,
    apply_operator,
    build_context,
    convexity_inequality_check,
    monotonicity_gap,
    weak_form,
)
from .energy import (
    ABOVE_WELL,
    IN_EXTERIOR,
    IN_WELL,
    ON_NEHARI,
    EnergyReport,
    WellGeometry,
    classify,
    energy,
    energy_gradient,
    estimate_embedding_constant,
    first_sine_mode,
    nehari_lambda,
    standard_bump,
    well_depth,
)
from .evolution import (
    BLOWUP_CAP_HIT,
    MAX_STEPS,
    REACHED_FINAL_TIME,
    STEP_UNDERFLOW,
    AuditResult,
    Sample,
    SimState,
    StepControl,
    TrajectoryRecord,
    blowup_inequality_audit,
    exterior_invariance_check,
    make_state,
    run,
    step_explicit,
    step_imex,
)
from .config import (
    ExperimentConfig,
    default_config,
    load_config,
    parse_config,
    serialize_config,
)
from .report import trajectory_to_csv
from .scenarios import run_scenario

__version__ = "0.1.0"
