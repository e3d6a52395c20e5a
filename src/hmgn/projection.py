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

Every least-squares solve on a whitened design goes through one factor of
that design (``_LstsqFactor``): a column-pivoted QR, made once and reused
for every right-hand side solved against it.  The factor calls LAPACK (geqp3, orgqr, trtrs) directly,
with the workspace sizes and the triangular-solve layout that
``scipy.linalg.qr`` and ``solve_triangular`` use, so its solves are bitwise
those of the scipy wrappers.

With g = Γ⁻¹Qᵀ(a)x and E_j = Q(e_j), the Jacobian column
−W⁻¹QΓ⁻¹E_jᵀΠx − ΠW⁻¹E_j·g is taken in the merged form W⁻¹K_j,

    K_j = −E_j·g − QΓ⁻¹(E_jᵀΠx − QᵀW⁻¹E_j·g),

which follows from Π = I − W⁻¹QΓ⁻¹Qᵀ.  All r columns take one batched
solve, the g solve aside, and a caller holding Πx passes it in.  Since
whiten(W, W⁻¹v) = Ĉv, the whitened design of the Gauss-Newton least squares
is ĈK, so the solvers never form J.

The ``GammaFactor`` is the only carrier of (a, W) on the Gram route:
``project_gamma`` and ``vp_jacobian`` take the factor alone, as the basis
route's building blocks take the rotated spectrum of :mod:`hmgn.nullspace`,
so a projection and its Jacobian cannot mix coefficients or weights.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Tuple, Union

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

#: |r_kk/r₁₁| of the pivoted R factor below which the whitened design counts
#: as rank-deficient; σ_min/σ_max ≤ |r_kk/r₁₁|, so the singular values are
#: at least as far apart
_RANK_TOL = 1e-12

_GEQP3, _ORGQR, _TRTRS = scipy.linalg.lapack.get_lapack_funcs(
    ("geqp3", "orgqr", "trtrs"), dtype=np.float64
)


@dataclass(frozen=True, eq=False)
class ProjectionResult:
    """Outcome of a weighted least-squares projection.

    ``projected`` is Z·q; ``coefficients`` holds q, the expansion of the
    projection in the columns of the supplied matrix.  For a batch of
    right-hand sides both fields gain a trailing axis.

    Compared and hashed by identity (``eq=False``): a field-wise ``==``
    would compare arrays and raise instead of returning a bool.
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


@functools.lru_cache(maxsize=16)
def _qr_workspace(m: int, k: int) -> Tuple[int, int]:
    """Optimal ``lwork`` of geqp3 and orgqr for an m×k design, from the
    workspace queries that ``scipy.linalg.qr`` makes on every call.  The
    blocking, and with it every bit, follows ``lwork``, which depends on the
    shape alone."""
    probe = np.zeros((m, k), order="F")
    *_, work_qp3, info_qp3 = _GEQP3(probe, lwork=-1)
    *_, work_gqr, info_gqr = _ORGQR(probe, np.zeros(k), lwork=-1)
    if info_qp3 != 0 or info_gqr != 0:
        raise ValueError(f"LAPACK workspace query failed for a {m}×{k} design")
    return int(work_qp3[0].real), int(work_gqr[0].real)


class _LstsqFactor:
    """Factor of a whitened design zw for q minimizing ‖xw − zw·q‖₂, with
    ``solve(xw)`` for a vector or columnwise batch xw.

    Column-pivoted QR; an R factor whose last diagonal entry is below 1e−12
    of its first raises ``RankDeficiencyError``.  LAPACK runs as
    ``scipy.linalg.qr`` and ``solve_triangular`` run it, so each solve is
    bitwise theirs: geqp3 and orgqr with the same workspace, and trtrs on Rᵀ
    in Fortran order as the lower triangle with ``trans``, which is how
    ``solve_triangular`` passes the C-ordered R that ``qr`` returns.
    """

    __slots__ = ("_q", "_rt", "_piv")

    def __init__(self, zw: np.ndarray):
        if not np.isfinite(zw).all():
            raise ValueError("weighted design must not contain infs or NaNs")
        m, k = zw.shape
        if k == 0 or m == 0:
            raise ValueError("basis must have at least one column")
        if k > m:
            raise ValueError(f"weighted design has more columns ({k}) than rows ({m})")
        lwork_qp3, lwork_gqr = _qr_workspace(m, k)
        qr, piv, tau, _, info = _GEQP3(zw, lwork=lwork_qp3)
        if info != 0:
            raise ValueError(f"LAPACK geqp3 failed (info={info})")
        diag = np.abs(qr.diagonal())
        if diag[-1] == 0.0 or diag[-1] < _RANK_TOL * diag[0]:
            raise RankDeficiencyError(
                "weighted design lost column rank "
                f"(|r_kk/r_11| = {diag[-1] / diag[0] if diag[0] else 0.0:.3e})"
            )
        # R's upper triangle, transposed; trtrs reads no other entry
        self._rt = np.array(qr[:k].T, order="F")
        self._q, _, info = _ORGQR(qr, tau, lwork=lwork_gqr, overwrite_a=1)
        if info != 0:
            raise ValueError(f"LAPACK orgqr failed (info={info})")
        piv -= 1  # geqp3 numbers columns from 1
        self._piv = piv

    def solve(self, xw: np.ndarray) -> np.ndarray:
        if not np.isfinite(xw).all():
            raise ValueError("weighted right-hand side must not contain infs or NaNs")
        y, info = _TRTRS(self._rt, self._q.T @ xw, lower=1, trans=1)
        if info != 0:
            raise np.linalg.LinAlgError(f"triangular solve failed (info={info})")
        coeffs = np.empty_like(y)
        coeffs[self._piv] = y
        return coeffs


def weighted_pinv_apply(
    z: np.ndarray, w: WeightSpec, x: Union[TimeSeries, np.ndarray]
) -> ProjectionResult:
    """Apply the weighted pseudoinverse: q = Z^{†W}x and Π_{Z,W}x = Z·q.

    The design is whitened (C·Z against C·x, or the banded-inverse analogue),
    factored and solved by column-pivoted QR.  An R factor whose last
    diagonal entry is below 1e−12 of its first means W^{1/2}Z lost column
    rank and raises ``RankDeficiencyError`` — for masked weights this
    typically means a basis vector is unobserved on the mask's support.
    """
    z = np.asarray(z, dtype=float)
    if z.ndim != 2:
        raise ValueError("basis must be a two-dimensional array")
    rhs = _as_vector_or_batch(x)
    zw, xw = whiten(w, z), whiten(w, rhs)
    coeffs = _LstsqFactor(zw).solve(xw)
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

    def apply_chat(self, v: np.ndarray) -> np.ndarray:
        """Ĉ·v for a vector or columnwise matrix (a copy for W = I).

        This is whiten(W, W⁻¹v) without the triangular solve that would undo
        W⁻¹'s Ĉᵀ.
        """
        if self._chat_bands is None:
            return v.copy()
        return _mul_upper(self._chat_bands, v)

    def apply_winv(self, x: np.ndarray) -> np.ndarray:
        """W⁻¹·x = ĈᵀĈ·x for a vector or columnwise matrix (a copy for W = I)."""
        if self._chat_bands is None:
            return x.copy()
        return _mul_upper_t(self._chat_bands, self.apply_chat(x))

    def kernel_projection(self, x: np.ndarray) -> np.ndarray:
        """(I − W⁻¹Q Γ⁻¹ Qᵀ)·x for a vector or columnwise matrix."""
        qtx = apply_q_transpose(self._coeffs, x)
        return x - self.apply_winv(apply_q(self._coeffs, self.solve(qtx)))


def project_gamma(factor: GammaFactor, x: Union[TimeSeries, np.ndarray]) -> np.ndarray:
    """Π_{Z(a),W}x = (I − W⁻¹Q(a)Γ⁻¹(a)Qᵀ(a))x without forming a basis, for
    the (a, W) of ``factor``."""
    return factor.kernel_projection(_as_vector_or_batch(x))


def _vp_columns(
    factor: GammaFactor, tau: int, x: np.ndarray, pix: np.ndarray
) -> np.ndarray:
    """K with W⁻¹K the VP Jacobian at the (a, W) of ``factor``, given
    ``pix`` = Πx: column K_j = −E_j·g − QΓ⁻¹(E_jᵀΠx − QᵀW⁻¹E_j·g) for the
    positions j ∈ K(τ), with g = Γ⁻¹Qᵀx.  One solve for g, one batched solve
    for the r columns.
    """
    coeffs = factor.coeffs
    n, r = x.shape[0], factor.r
    m = n - r
    g = factor.solve(apply_q_transpose(coeffs, x))
    # column-major, so the banded products with Ĉ run down whole columns
    padded = np.zeros((n, r), order="F")  # E_j·g: g zero-padded to offset j
    windows = np.empty((m, r), order="F")  # E_jᵀΠx: Πx windowed at offset j
    for col, j in enumerate(j for j in range(r + 1) if j != tau - 1):
        padded[j : j + m, col] = g
        windows[:, col] = pix[j : j + m]
    rhs = windows - apply_q_transpose(coeffs, factor.apply_winv(padded))
    return -padded - apply_q(coeffs, factor.solve(rhs))


def vp_jacobian(
    factor: GammaFactor, tau: int, x: Union[TimeSeries, np.ndarray]
) -> np.ndarray:
    """Jacobian of ȧ ↦ Π_{Z(H_τ(ȧ)),W}x at a = H_τ(ȧ), one column per free
    coefficient, for the (a, W) of ``factor``.

    Column for the full-vector position j ∈ K(τ) is

        −W⁻¹Q(a)Γ⁻¹Qᵀ(e_j)Πx − Π W⁻¹Q(e_j)Γ⁻¹Qᵀ(a)x,

    where Qᵀ(e_j)v windows v at offset j−1 and Q(e_j)u zero-pads u to that
    window.  It is computed in the merged form W⁻¹K_j of the module
    docstring: one batched solve for all r columns, besides the solves of
    Πx and g, all on one factorization.
    """
    rhs = _as_vector_or_batch(x)
    if rhs.ndim != 1:
        raise ValueError("the Jacobian is defined for a single series")
    if not 1 <= tau <= factor.r + 1:
        raise ValueError(f"pivot index {tau} outside 1..{factor.r + 1}")
    return factor.apply_winv(_vp_columns(factor, tau, rhs, factor.kernel_projection(rhs)))
