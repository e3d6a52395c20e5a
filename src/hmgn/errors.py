"""Exception types shared across the package."""

from __future__ import annotations


class HmgnError(Exception):
    """Base class for all domain errors raised by this package."""


class SpectrumDegeneracyError(HmgnError):
    """No grid rotation avoids the roots of the coefficient polynomial.

    Raised when no candidate of the root-gap placement (the midpoints of the
    gaps between the rotations that put a grid point on a root of g_a, plus
    the half-spacing offset) keeps every grid value of g_a nonzero, when the
    grid has fewer points than g_a has coefficients, or when a supplied
    rotation leads to a (numerically) singular eigenvalue diagonal.
    """


class BasisRealizationError(HmgnError):
    """The assembled subspace basis is not real within tolerance.

    Carries the measured defect so callers can report it.
    """

    def __init__(self, defect: float, tol: float):
        self.defect = float(defect)
        self.tol = float(tol)
        super().__init__(
            f"complex-to-real basis realization defect {defect:.3e} "
            f"exceeds tolerance {tol:.3e}"
        )


class RankDeficiencyError(HmgnError):
    """The weighted design matrix of a least-squares solve lost column rank."""


class GammaBreakdownError(HmgnError):
    """Banded Cholesky factorization of the Gram matrix Γ(a) failed.

    Signals numerical breakdown of the kernel-space projection path; callers
    may fall back to the basis path.
    """


class WeightVariantError(HmgnError):
    """An operation was requested for an incompatible weight representation."""
