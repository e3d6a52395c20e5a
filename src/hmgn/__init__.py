"""Weighted Hankel low-rank approximation via Gauss-Newton on GLRR subspaces.

A series of rank r is one whose lagged (r+1)-window matrix is rank-deficient,
i.e. it satisfies a generalized linear recurrence.  This package fits the
closest such series to noisy (possibly gapped) observations in a banded
weighted norm, with either image-space Gauss-Newton iterations (``mgn`` /
``s-mgn``, the compensated variant) or the kernel-space variable-projection
baseline (``vpgn`` / ``s-vpgn``).

>>> from hmgn import fit, SolverConfig
>>> result = fit(values, r=4, config=SolverConfig(method="s-mgn"))
>>> result.signal, result.glrr.coeffs, result.trace.termination
"""

from .errors import (
    BasisRealizationError,
    GammaBreakdownError,
    HmgnError,
    RankDeficiencyError,
    SpectrumDegeneracyError,
    WeightVariantError,
)
from .nullspace import (
    RotatedSpectrum,
    SubspaceBasis,
    eval_poly_grid,
    nullspace_basis,
    rotated_spectrum,
)
from .problems import (
    KnownMinimumProblem,
    build_known_minimum,
    gapped_preset,
    two_tone_signal,
)
from .projection import (
    GammaFactor,
    ProjectionResult,
    project_gamma,
    vp_jacobian,
    weighted_pinv_apply,
)
from .series import (
    GlrrVector,
    ModelComponent,
    NormalizedGlrr,
    TimeSeries,
    generate_model_signal,
    glrr_residual,
    read_series_csv,
    write_series_csv,
)
from .solvers import (
    METHODS,
    FitResult,
    IterationRecord,
    SolverConfig,
    SolverTrace,
    fit,
    initial_glrr,
)
from .weights import (
    BandedW,
    BandedWinv,
    Identity,
    Masked,
    WeightSpec,
    ar_inverse_covariance,
    mask_missing,
    weighted_norm,
)

__version__ = "0.2.0"

__all__ = [
    "__version__",
    # errors
    "HmgnError",
    "SpectrumDegeneracyError",
    "BasisRealizationError",
    "RankDeficiencyError",
    "GammaBreakdownError",
    "WeightVariantError",
    # series model
    "TimeSeries",
    "GlrrVector",
    "NormalizedGlrr",
    "ModelComponent",
    "generate_model_signal",
    "glrr_residual",
    "read_series_csv",
    "write_series_csv",
    # weights
    "WeightSpec",
    "Identity",
    "BandedW",
    "BandedWinv",
    "Masked",
    "ar_inverse_covariance",
    "mask_missing",
    "weighted_norm",
    # subspace bases
    "RotatedSpectrum",
    "eval_poly_grid",
    "rotated_spectrum",
    "SubspaceBasis",
    "nullspace_basis",
    # projections
    "ProjectionResult",
    "weighted_pinv_apply",
    "GammaFactor",
    "project_gamma",
    "vp_jacobian",
    # solvers
    "METHODS",
    "SolverConfig",
    "IterationRecord",
    "SolverTrace",
    "FitResult",
    "fit",
    "initial_glrr",
    # benchmark problems
    "KnownMinimumProblem",
    "build_known_minimum",
    "two_tone_signal",
    "gapped_preset",
]
