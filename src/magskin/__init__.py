"""Skin-effect asymptotics for high-permeability conductors.

Derived material parameters, boundary-layer profiles, the curvature-corrected
skin-depth law and surface impedance conditions, all validated against exact
per-mode solutions of the layered-cylinder transmission problem.
"""

from .bessel import BesselEval, bessel_h1, bessel_j, bessel_y, wronskian_jh1, wronskian_jy
from .geometry import (
    ShiftedInverseMetric,
    Surface,
    SurfaceKind,
    TangentVector,
    curvature_apply,
    hermitian_inner,
    inverse_metric_diagonal,
    mean_curvature,
    mean_minus_curvature_apply,
    metric_modulus_sq,
    shifted_inverse_metric,
)
from .ibc import (
    ImpedanceOperator,
    LeontovichRow,
    RobinCoefficient,
    consistency_with_lambda,
    impedance_operator,
    leontovich_limit_check,
    robin_coefficient,
)
from .modal import (
    ConvergenceError,
    ConvergenceFit,
    CylinderBenchmark,
    ModalSolution,
    PlaneBenchmark,
    PlaneSolution,
    ShellError,
    SolverError,
    conductor_l2_norm,
    convergence_study,
    default_benchmark,
    default_config,
    fit_convergence,
    shell_l2_error,
    shell_l2_norm,
    solve_exact,
    solve_expansion_term,
    solve_ibc,
    solve_ibc_with_gamma,
    solve_plane_exact,
    truncated_expansion,
)
from .params import (
    DerivedParams,
    PhysicalConfig,
    derive_params,
    leontovich_factor,
    phi,
)
from .profiles import (
    HarmonicScalarField,
    HarmonicTangentField,
    LayerField,
    ProfileTerm,
    TraceData,
    apply_b,
    apply_l1,
    cutoff_chi,
    default_cutoff_horizon,
    eval_fke1,
    eval_w0,
    eval_w1,
    layer_modulus_sq,
    make_w0,
    make_w1,
    modulus_expansion_gm,
)
from .skin import (
    DecayTrace,
    SkinDepthError,
    SkinDepthReport,
    comparison_report,
    layer_trace,
    skin_depth_asymptotic,
    skin_depth_numeric,
    w0_plane_trace,
)

__version__ = "0.1.0"
