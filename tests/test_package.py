import types

import magskin

PUBLIC_NAMES = {
    # bessel
    "BesselEval", "bessel_h1", "bessel_j", "bessel_y", "wronskian_jh1", "wronskian_jy",
    # geometry
    "Surface", "SurfaceKind", "TangentVector", "curvature_apply", "hermitian_inner",
    "inverse_metric_diagonal", "mean_curvature", "mean_minus_curvature_apply",
    # ibc
    "ImpedanceOperator", "LeontovichRow", "consistency_with_lambda", "impedance_operator",
    "leontovich_limit_check", "robin_coefficient",
    # modal
    "ConvergenceError", "ConvergenceFit", "CylinderBenchmark", "ModalSolution", "ShellError", "SolverError",
    "conductor_l2_norm", "convergence_study", "default_benchmark", "default_config", "fit_convergence",
    "shell_l2_error", "solve_exact", "solve_ibc", "truncated_expansion",
    # params
    "DerivedParams", "PhysicalConfig", "derive_params", "leontovich_factor", "phi",
    # profiles
    "HarmonicScalarField", "HarmonicTangentField", "LayerField", "ProfileTerm", "TraceData", "apply_b",
    "apply_l1", "cutoff_chi", "layer_modulus_sq", "make_w0", "make_w1", "modulus_expansion_gm",
    # skin
    "DecayTrace", "SkinDepthError", "SkinDepthReport", "comparison_report", "layer_trace",
    "skin_depth_asymptotic", "skin_depth_numeric", "w0_plane_trace",
}


def test_public_names_are_pinned():
    # an export added or removed is an edit to PUBLIC_NAMES; submodules are not counted
    names = {
        name for name, value in vars(magskin).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert names == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == 60
