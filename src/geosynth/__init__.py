"""Synthetic control and difference-in-differences for metric-space panels.

The package estimates treatment effects when the outcome of each unit
and period is not a number but a point in a metric space: a graph
Laplacian, a composition on the sphere, a symmetric positive-definite
matrix, a quantile function of a distribution, or a function sampled on
a grid. Weighted Frechet means replace weighted averages and geodesic
parallel transport replaces the additive bias correction of classical
difference-in-differences.

Modules
-------
``spaces``
    Descriptors, validation, distances, geodesics, means, transport.
``simplex_opt``
    Simplex-constrained weight solvers with optimality certificates.
``estimators``
    Panel containers and the GSC, augmented GSC, and GSDID estimators
    plus placebo permutation inference.
``simgen``
    Reproducible simulation designs with known counterfactuals.
``cli_io``
    JSON panel/result files and the ``geosynth`` command line.
"""

from .spaces import (
    EPS_PD,
    REPAIR_BUDGET,
    TOL_MEAN,
    TOL_VALIDATE,
    ObjectPoint,
    RepairLog,
    SpaceDescriptor,
    SpaceError,
    TangentVector,
    default_quantile_grid,
    distance,
    fisher_rao_distance,
    flat_embed,
    flat_restore,
    geodesic_eval,
    l2function_space,
    laplacian_space,
    metric_embed,
    metric_restore,
    product_distance,
    quadrature_weights,
    require_valid,
    scalar_space,
    spd_power_space,
    spd_space,
    sphere_exp,
    sphere_log,
    sphere_space,
    transport,
    validate_point,
    wasserstein_space,
    weighted_frechet_mean,
)
from .simplex_opt import (
    SimplexQp,
    SimplexWeights,
    SolverConfig,
    SolverError,
    build_time_weight_qp,
    build_unit_weight_qp,
    kkt_residual,
    project_simplex,
    solve_simplex_derivative_free,
    solve_simplex_qp,
)
from .estimators import (
    CovariatePanel,
    FrechetRegressionModel,
    GeodesicEffect,
    GscResult,
    GsdidResult,
    Panel,
    PlaceboReport,
    estimate_augmented_gsc,
    estimate_gdid,
    estimate_gsc,
    estimate_gsc_with_covariates,
    estimate_gsdid,
    estimate_gsdid_per_time,
    fit_global_frechet_regression,
    geodesic_effect,
    placebo_test,
    predict_frechet_regression,
)
from .simgen import SCENARIOS, SimConfig, SimOutput, generate, oracle_counterfactual
from .cli_io import (
    FileFormatError,
    canonical_json,
    emit_plot_series,
    load_covariates,
    load_panel,
    run_cli,
    save_covariates,
    save_panel,
    save_result,
)

__version__ = "0.1.0"

__all__ = [
    "EPS_PD",
    "REPAIR_BUDGET",
    "SCENARIOS",
    "TOL_MEAN",
    "TOL_VALIDATE",
    "CovariatePanel",
    "FileFormatError",
    "FrechetRegressionModel",
    "GeodesicEffect",
    "GscResult",
    "GsdidResult",
    "ObjectPoint",
    "Panel",
    "PlaceboReport",
    "RepairLog",
    "SimConfig",
    "SimOutput",
    "SimplexQp",
    "SimplexWeights",
    "SolverConfig",
    "SolverError",
    "SpaceDescriptor",
    "SpaceError",
    "TangentVector",
    "build_time_weight_qp",
    "build_unit_weight_qp",
    "canonical_json",
    "default_quantile_grid",
    "distance",
    "emit_plot_series",
    "estimate_augmented_gsc",
    "estimate_gdid",
    "estimate_gsc",
    "estimate_gsc_with_covariates",
    "estimate_gsdid",
    "estimate_gsdid_per_time",
    "fisher_rao_distance",
    "fit_global_frechet_regression",
    "flat_embed",
    "flat_restore",
    "generate",
    "geodesic_effect",
    "geodesic_eval",
    "kkt_residual",
    "l2function_space",
    "laplacian_space",
    "load_covariates",
    "load_panel",
    "metric_embed",
    "metric_restore",
    "oracle_counterfactual",
    "placebo_test",
    "predict_frechet_regression",
    "product_distance",
    "project_simplex",
    "quadrature_weights",
    "require_valid",
    "run_cli",
    "save_covariates",
    "save_panel",
    "save_result",
    "scalar_space",
    "solve_simplex_derivative_free",
    "solve_simplex_qp",
    "spd_power_space",
    "spd_space",
    "sphere_exp",
    "sphere_log",
    "sphere_space",
    "transport",
    "validate_point",
    "wasserstein_space",
    "weighted_frechet_mean",
]
