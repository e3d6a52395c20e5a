"""Weighted projections onto GLRR kernel spaces.

Two routes compute Π_{Z(a),W}x.  The basis route builds an orthonormal basis
Z of Z(a) and solves the whitened least-squares problem min_q ‖x − Zq‖_W;
it works for every weight variant, including masked seminorms.  The Gram
route never forms a basis: it uses Π = I − W⁻¹Q(a)Γ⁻¹(a)Qᵀ(a) with
Γ(a) = Qᵀ(a)W⁻¹Q(a), which stays banded when W⁻¹ is banded, so one banded
Cholesky factorization covers a projection and the full variable-projection
Jacobian.  Γ is assembled band by band as (ĈQ(a))ᵀ(ĈQ(a)), with Ĉ the
banded factor of W⁻¹ = ĈᵀĈ, in O(N(r+p)²) and without sparse matrices.  The
Gram route is cheaper per solve but its conditioning degrades like
κ(Γ) ~ N^{2t} near t-fold unit-circle roots, so the basis route is the
robust default.

The ``GammaFactor`` is the only carrier of (a, W) on the Gram route:
``project_gamma`` and ``vp_jacobian`` take the factor alone, as the basis
route's building blocks take the rotated spectrum of :mod:`hmgn.nullspace`,
so a projection and its Jacobian cannot mix coefficients or weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np
import scipy.linalg

from .errors import GammaBreakdownError, RankDeficiencyError, WeightVariantError
from .nullspace import nullspace_basis, rotated_spectrum
from .series import (
    GlrrVector,
    TimeSeries,
    _glrr_coeffs,
    apply_q,
    apply_q_transpose,
    as_time_series,
)
from .weights import BandedWinv, Identity, WeightSpec, _mul_upper, _mul_upper_t, whiten

__all__ = [
    "ProjectionResult",
    "GammaFactor",
    "weighted_pinv_apply",
    "project_onto_glrr_space",
    "project_gamma",
    "vp_jacobian",
]

#: condition estimate of the pivoted R factor beyond which the least-squares
#: solve falls back to an SVD
_QR_COND_LIMIT = 1e12

#: relative singular-value cutoff declaring the weighted design rank-deficient
_RANK_TOL = 1e-12


@dataclass(frozen=True)
class ProjectionResult:
    """Outcome of a weighted least-squares projection.

    ``projected`` is Z·q; ``coefficients`` holds q, the expansion of the
    projection in the columns of the supplied matrix.  For a batch of
    right-hand sides both fields gain a trailing axis.
    """

    projected: np.ndarray
    coefficients: np.ndarray


def _as_vector_or_batch(x: Union[TimeSeries, np.ndarray]) -> np.ndarray:
    if isinstance(x, TimeSeries):
        return x.values
    arr = np.asarray(x, dtype=float)
    if arr.ndim not in (1, 2):
        raise ValueError("right-hand side must be a vector or a matrix")
    return arr


def weighted_pinv_apply(
    z: np.ndarray, w: WeightSpec, x: Union[TimeSeries, np.ndarray]
) -> ProjectionResult:
    """Apply the weighted pseudoinverse: q = Z^{†W}x and Π_{Z,W}x = Z·q.

    The design is whitened (C·Z against C·x, or the banded-inverse analogue)
    and solved by column-pivoted QR; if the R factor's condition estimate
    exceeds 1e12 the solve restarts as an SVD.  A smallest singular value
    below 1e−12 of the largest means W^{1/2}Z lost column rank and raises
    ``RankDeficiencyError`` — for masked weights this typically means a basis
    vector is unobserved on the mask's support.
    """
    z = np.asarray(z, dtype=float)
    if z.ndim != 2:
        raise ValueError("basis must be a two-dimensional array")
    rhs = _as_vector_or_batch(x)
    zw = whiten(w, z)
    xw = whiten(w, rhs)

    q_mat, r_mat, piv = scipy.linalg.qr(zw, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r_mat))
    if diag.size == 0:
        raise ValueError("basis must have at least one column")
    use_svd = diag[-1] == 0.0 or diag[0] / diag[-1] > _QR_COND_LIMIT
    if use_svd:
        u, s, vt = np.linalg.svd(zw, full_matrices=False)
        if s[0] == 0.0 or s[-1] < _RANK_TOL * s[0]:
            raise RankDeficiencyError(
                "weighted design lost column rank "
                f"(σ_min/σ_max = {0.0 if s[0] == 0.0 else s[-1] / s[0]:.3e})"
            )
        coeffs = vt.T @ ((u.T @ xw) / (s if xw.ndim == 1 else s[:, None]))
    else:
        y = scipy.linalg.solve_triangular(r_mat, q_mat.T @ xw)
        coeffs = np.empty_like(y)
        coeffs[piv] = y
    return ProjectionResult(projected=z @ coeffs, coefficients=coeffs)


def project_onto_glrr_space(
    a: Union[GlrrVector, np.ndarray],
    w: WeightSpec,
    x: Union[TimeSeries, np.ndarray],
    mode: str = "plain",
) -> ProjectionResult:
    """Π_{Z(a),W}x through an orthonormal basis of Z(a) built in ``mode``."""
    rhs = _as_vector_or_batch(x)
    basis = nullspace_basis(rotated_spectrum(a, rhs.shape[0], mode))
    return weighted_pinv_apply(basis.z, w, rhs)


# ---------------------------------------------------------------------------
# Gram (Γ) route
# ---------------------------------------------------------------------------


def _gram_upper(coeffs: np.ndarray, chat_bands: tuple, n: int) -> np.ndarray:
    """Γ = (ĈQ(a))ᵀ(ĈQ(a)) in the upper storage of ``cholesky_banded``.

    Column i of M = ĈQ(a) is nonzero only at rows i+o, o = −p..r, where
    M[i+o, i] = Σₑ Ĉ[i+o, i+o+e]·a_{o+e}; Γ's d-th upper band is then
    Γ[i, i+d] = Σₒ M[i+o, i]·M[i+o, i+d].  Both are vector operations of
    length N − r, O(N(r+p)²) in all.
    """
    r = coeffs.size - 1
    p = len(chat_bands) - 1
    m = n - r
    # mb[o + p, i] = M[i+o, i], zero where row i+o lies above the matrix
    # (for o ≤ −m that is the whole band)
    mb = np.zeros((r + p + 1, m))
    for o in range(max(-p, 1 - m), r + 1):
        lo = max(0, -o)
        row = mb[o + p, lo:]
        for e in range(max(0, -o), min(p, r - o) + 1):
            row += coeffs[o + e] * chat_bands[e][lo + o : m + o]
    width = r + p
    ab = np.zeros((width + 1, m))
    # bands at d ≥ m have no entries (series barely longer than r + p)
    for d in range(min(width, m - 1) + 1):
        band = ab[width - d, d:]
        for o in range(d - p, r + 1):
            band += mb[o + p, : m - d] * mb[o - d + p, d:]
    return ab


class GammaFactor:
    """Banded Cholesky factorization of Γ(a) = Qᵀ(a)W⁻¹Q(a).

    Γ is (2(r+p)+1)-diagonal for a p-banded W⁻¹; its upper Cholesky factor
    has r+p+1 diagonals.  Γ is built band by band from ĈQ(a), where
    W⁻¹ = ĈᵀĈ, in O(N(r+p)²) with no sparse matrices.  The factor is
    immutable and reusable for every Γ⁻¹ solve at the same (a, W) — a
    projection plus all Jacobian columns.  It also owns the products with
    W⁻¹, through the Ĉ admitted here (none for W = I).
    """

    def __init__(self, a: Union[GlrrVector, np.ndarray], w: WeightSpec):
        coeffs = _glrr_coeffs(a)
        if isinstance(w, Identity):
            chat_bands = None
        elif isinstance(w, BandedWinv):
            chat_bands = w.chat_bands
        else:
            raise WeightVariantError(
                "the Gram route needs W⁻¹ in banded form; "
                f"{type(w).__name__} does not provide one"
            )
        n = w.n
        r = coeffs.size - 1
        if n - r < 1:
            raise ValueError("series too short for this GLRR order")
        ab = _gram_upper(coeffs, (np.ones(n),) if chat_bands is None else chat_bands, n)
        try:
            chol = scipy.linalg.cholesky_banded(ab, overwrite_ab=True, lower=False)
        except np.linalg.LinAlgError as exc:
            raise GammaBreakdownError(
                f"Γ(a) is numerically indefinite at N={n}: {exc}"
            ) from exc
        self._chol = chol
        self._coeffs = coeffs
        self._chat_bands = chat_bands
        self.n = n
        self.r = r

    @property
    def coeffs(self) -> np.ndarray:
        return self._coeffs

    def solve(self, v: np.ndarray) -> np.ndarray:
        """Γ⁻¹·v through the two triangular banded solves."""
        return scipy.linalg.cho_solve_banded((self._chol, False), v)

    def apply_winv(self, x: np.ndarray) -> np.ndarray:
        """W⁻¹·x = ĈᵀĈ·x for a vector or columnwise matrix (a copy for W = I)."""
        if self._chat_bands is None:
            return x.copy()
        return _mul_upper_t(self._chat_bands, _mul_upper(self._chat_bands, x))

    def kernel_projection(self, x: np.ndarray) -> np.ndarray:
        """(I − W⁻¹Q Γ⁻¹ Qᵀ)·x for a vector or columnwise matrix."""
        qtx = apply_q_transpose(self._coeffs, x)
        return x - self.apply_winv(apply_q(self._coeffs, self.solve(qtx)))


def project_gamma(factor: GammaFactor, x: Union[TimeSeries, np.ndarray]) -> np.ndarray:
    """Π_{Z(a),W}x = (I − W⁻¹Q(a)Γ⁻¹(a)Qᵀ(a))x without forming a basis, for
    the (a, W) of ``factor``."""
    return factor.kernel_projection(_as_vector_or_batch(x))


def vp_jacobian(
    factor: GammaFactor, tau: int, x: Union[TimeSeries, np.ndarray]
) -> np.ndarray:
    """Jacobian of ȧ ↦ Π_{Z(H_τ(ȧ)),W}x at a = H_τ(ȧ), one column per free
    coefficient, for the (a, W) of ``factor``.

    Column for the full-vector position j ∈ K(τ) is

        −W⁻¹Q(a)Γ⁻¹Qᵀ(e_j)Πx − Π W⁻¹Q(e_j)Γ⁻¹Qᵀ(a)x,

    where Qᵀ(e_j)v windows v at offset j−1 and Q(e_j)u zero-pads u to that
    window.  All Γ⁻¹ solves reuse one factorization, batched columnwise.
    """
    rhs = _as_vector_or_batch(x)
    if rhs.ndim != 1:
        raise ValueError("the Jacobian is defined for a single series")
    coeffs = factor.coeffs
    n = rhs.shape[0]
    r = factor.r
    if not 1 <= tau <= r + 1:
        raise ValueError(f"pivot index {tau} outside 1..{r + 1}")

    g = factor.solve(apply_q_transpose(coeffs, rhs))
    pix = rhs - factor.apply_winv(apply_q(coeffs, g))
    positions = [j for j in range(r + 1) if j != tau - 1]

    # first term: window Πx per position, batch-solve, expand through Q(a)
    windows = np.stack([pix[j : j + n - r] for j in positions], axis=1)
    term1 = factor.apply_winv(apply_q(coeffs, factor.solve(windows)))

    # second term: zero-padded copies of g through W⁻¹, then the projection
    padded = np.zeros((n, r))
    for col, j in enumerate(positions):
        padded[j : j + n - r, col] = g
    term2 = factor.kernel_projection(factor.apply_winv(padded))

    return -term1 - term2
