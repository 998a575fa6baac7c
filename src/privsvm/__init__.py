"""Differentially private SVM training via output perturbation.

The library trains hinge-loss SVMs exactly (dual coordinate ascent, no bias
term), releases noisy primal weights for finite feature maps or random
cosine/sine feature spaces of translation-invariant kernels, provides the
closed-form privacy/utility calibrations tying the noise scale to the
guarantee levels, and ships a seeded audit harness that empirically checks
sensitivity, kernel approximation, utility, classifier-separation, and
density-ratio behaviour.
"""

from .audit import (
    AuditReport,
    LowerBoundFamily,
    MechanismParams,
    child_rng,
    default_grid_resolution,
    kernel_approx_audit,
    linear_separation_pair,
    mix64,
    packing_separation_audit,
    privacy_ratio_audit,
    rbf_packing_family,
    sensitivity_audit,
    utility_audit,
)
from .data import (
    CsvError,
    Database,
    DomainBox,
    load_csv,
    neighbor_replace_last,
)
from .kernels import (
    KernelSpec,
    UnsupportedKernelError,
    cauchy_kernel,
    laplacian_kernel,
    linear_kernel,
    rbf_kernel,
    sample_spectral,
    spectral_second_moment,
)
from .mechanisms import (
    CalibrationReport,
    PrivateModel,
    calibrate_noise_privacy_finite,
    calibrate_noise_privacy_rff,
    calibrate_noise_utility_finite,
    calibrate_noise_utility_rff,
    calibrate_rff_dim_hinge,
    calibration_report_finite,
    calibration_report_rff,
    optimal_dp_lower_bound_linear,
    optimal_dp_lower_bound_rbf,
    optimal_dp_upper_bound_hinge,
    rbf_packing_size,
    sensitivity_finite,
    sensitivity_rff,
    train_private_finite,
    train_private_rff,
)
from .model_io import load_model, save_model
from .noise import erlang_tail_probability, sample_laplace
from .rff import (
    CalibrationError,
    RandomFeatureMap,
    approx_failure_bound,
    calibrate_rff_dim,
    displacement_kernel,
    grid_values,
)
from .solver import (
    ConvergenceError,
    SvmModel,
    decision_values,
    kkt_residual,
    primal_weights,
    solve_svm_dual,
)

__version__ = "0.1.0"
