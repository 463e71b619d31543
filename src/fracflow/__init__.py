"""fracflow: a desk-scale numerical laboratory for the nonlocal parabolic
flow u_t + (fractional p(x)-Laplacian) u = |u|^(q(x)-2) u with exterior
zero condition in one space dimension.

The package computes variable-exponent modulars and Luxemburg-type norms,
evaluates the discrete nonlocal operator and the associated energy, locates
the scaling manifold and the potential-well depth, integrates the flow with
energy-based step control, and audits the decay and finite-time blow-up
behavior predicted by the well geometry.
"""

import os as _os

# The only threaded BLAS call is the IMEX step's small Newton solve, where a
# second OpenBLAS thread costs CPU at load and after every solve and saves
# no wall time.  OpenBLAS reads its thread count once, when numpy loads it,
# so this precedes every submodule import.  A thread count the user set is
# kept, and the environment is left as it was.
if not {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"} & _os.environ.keys():
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy as _np
    finally:
        del _os.environ["OPENBLAS_NUM_THREADS"]

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
    ProjectionFailed,
    RootFindFailed,
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
    inner_product,
    integrate,
    l2_norm,
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
    depth_lower_bound,
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
    NON_FINITE,
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
from .report import load_csv, save_csv, trajectory_to_csv
from .scenarios import run_scenario

__version__ = "0.1.0"
