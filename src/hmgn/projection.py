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
solve, and a caller holding Πx passes it in.  The projection solves for the
same g and returns it beside Πx, so the Jacobian does not solve for it again.
Since whiten(W, W⁻¹v) = Ĉv, the whitened design of the Gauss-Newton least
squares is ĈK, so the solvers never form J.

The columns are assembled in place, so a ``vpgn`` step holds at most three
N×r blocks at once, besides vectors of length N: K, formed in the block of
the zero-padded g (E_j·g); the right-hand sides E_jᵀΠx − QᵀW⁻¹E_j·g, each
column taken through W⁻¹ and Qᵀ on its own; and their batched Γ⁻¹ solve,
whose product with Q takes the place of the right-hand sides once they are
solved.  Every entry takes the same operations in the same order as in the
whole-block expressions −E_j·g − Q·Γ⁻¹(windows − QᵀW⁻¹·padded), so the bits
are theirs: the two differ only in where results are written and how long
each block lives.  At N = 4000, r = 4 the tracemalloc peak of a step at a
handed-over projection is 3.5 N×r blocks, against 6.25 for those
expressions.

A batched Γ⁻¹ solve costs about r vector solves: LAPACK ``dpbtrs`` runs
its two banded triangular solves column by column (at N = 20000, r = 4,
kd = 5: 1.94 ms against 0.58 ms for one vector, best of 60, 1 BLAS thread
on a 2-core x86 box).  So the g solve saved is worth a Jacobian column.
``GammaFactor`` calls ``dpbtrf``/``dpbtrs`` through ``get_lapack_funcs``
handles, as ``cholesky_banded`` and ``cho_solve_banded`` do, but checks the
banded Γ for finiteness once, when it factors it, and each right-hand side
when it solves; its factor is not checked again on every solve.

The ``GammaFactor`` is the only carrier of (a, W) on the Gram route:
``project_gamma`` and ``vp_jacobian`` take the factor alone, as the basis
route's building blocks take the rotated spectrum of :mod:`hmgn.nullspace`,
so a projection and its Jacobian cannot mix coefficients or weights.  The
Gram route has no masked weights, so both reject a ``TimeSeries`` with gaps
rather than read the 0.0 stored at each gap as an observation.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np
import scipy.linalg

from .errors import GammaBreakdownError, RankDeficiencyError, WeightVariantError
from .series import (
    GlrrVector,
    TimeSeries,
    _glrr_coeffs,
    _real_array,
    apply_q,
    apply_q_transpose,
)
from .weights import BandedWinv, Identity, WeightSpec, _mul_upper, _mul_upper_t, whiten

__all__ = [
    "ProjectionResult",
    "GammaFactor",
    "weighted_pinv_apply",
    "project_gamma",
    "vp_jacobian",
]

#: |r_kk/r₁₁| of the pivoted R factor below which the whitened design counts
#: as rank-deficient; σ_min/σ_max ≤ |r_kk/r₁₁|, so the singular values are
#: at least as far apart
_RANK_TOL = 1e-12

_GEQP3, _ORGQR, _TRTRS, _PBTRF, _PBTRS = scipy.linalg.lapack.get_lapack_funcs(
    ("geqp3", "orgqr", "trtrs", "pbtrf", "pbtrs"), dtype=np.float64
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
    arr = _real_array(x, "right-hand side")
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
        # dgemm takes another kernel per layout for r ≥ 5, with other last
        # bits, so it always gets xw in C order
        y, info = _TRTRS(self._rt, self._q.T @ np.ascontiguousarray(xw), lower=1, trans=1)
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
    z = _real_array(z, "basis")
    if z.ndim != 2:
        raise ValueError("basis must be a two-dimensional array")
    rhs = _as_vector_or_batch(x)
    zw, xw = whiten(w, z), whiten(w, rhs)
    coeffs = _LstsqFactor(zw).solve(xw)
    return ProjectionResult(projected=z @ coeffs, coefficients=coeffs)


# ---------------------------------------------------------------------------
# Gram (Γ) route
# ---------------------------------------------------------------------------


def _gram_upper(coeffs: np.ndarray, chat_bands: tuple, n: int) -> np.ndarray:
    """Γ = (ĈQ(a))ᵀ(ĈQ(a)) in the upper storage of ``cholesky_banded``.

    Column i of M = ĈQ(a) is nonzero only at rows i+o, o = −p..r, where
    M[i+o, i] = Σₑ Ĉ[i+o, i+o+e]·a_{o+e}; Γ's d-th upper band is then
    Γ[i, i+d] = Σₒ M[i+o, i]·M[i+o, i+d].  Both are vector operations of
    length N − r, O(N(r+p)²) in all.  Every product is formed in one scratch
    row and then added, which rounds as a fresh product would.
    """
    r = coeffs.size - 1
    p = len(chat_bands) - 1
    m = n - r
    prod = np.empty(m)
    # mb[o + p, i] = M[i+o, i], zero where row i+o lies above the matrix
    # (for o ≤ −m that is the whole band)
    mb = np.zeros((r + p + 1, m))
    for o in range(max(-p, 1 - m), r + 1):
        lo = max(0, -o)
        row = mb[o + p, lo:]
        for e in range(max(0, -o), min(p, r - o) + 1):
            chat = chat_bands[e][lo + o : m + o]
            row += np.multiply(coeffs[o + e], chat, out=prod[lo:])
    width = r + p
    ab = np.zeros((width + 1, m))
    # bands at d ≥ m have no entries (series barely longer than r + p)
    for d in range(min(width, m - 1) + 1):
        band = ab[width - d, d:]
        for o in range(d - p, r + 1):
            band += np.multiply(mb[o + p, : m - d], mb[o - d + p, d:], out=prod[d:])
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
        if not np.isfinite(ab).all():
            raise ValueError("Γ(a) must not contain infs or NaNs")
        # pbtrf copies Γ once, into Fortran order; Γ is built C-ordered
        # because Fortran-order band writes measured slower
        chol, info = _PBTRF(ab, lower=0)
        if info > 0:
            raise GammaBreakdownError(
                f"Γ(a) is numerically indefinite at N={n}: "
                f"{info}-th leading minor not positive definite"
            )
        if info < 0:
            raise ValueError(f"illegal value in {-info}-th argument of internal pbtrf")
        self._chol = chol
        self._coeffs = coeffs
        self._chat_bands = chat_bands
        self.r = r

    @property
    def coeffs(self) -> np.ndarray:
        return self._coeffs

    def solve(self, v: np.ndarray) -> np.ndarray:
        """Γ⁻¹·v through the two triangular banded solves, for a vector or
        columnwise matrix v; non-finite v raises ``ValueError``."""
        v = np.asarray(v)
        if not np.isfinite(v).all():
            raise ValueError("right-hand side must not contain infs or NaNs")
        if v.shape[0] != self._chol.shape[-1]:
            raise ValueError(
                f"right-hand side has {v.shape[0]} rows, Γ(a) {self._chol.shape[-1]}"
            )
        x, info = _PBTRS(self._chol, v, lower=0)
        if info != 0:
            raise ValueError(f"illegal value in {-info}th argument of internal pbtrs")
        return x

    def apply_chat(self, v: np.ndarray) -> np.ndarray:
        """Ĉ·v for a vector or columnwise matrix (a copy for W = I).

        This is whiten(W, W⁻¹v) without the triangular solve that would undo
        W⁻¹'s Ĉᵀ.
        """
        if self._chat_bands is None:
            return v.copy(order="K")
        return _mul_upper(self._chat_bands, v)

    def apply_winv(self, x: np.ndarray) -> np.ndarray:
        """W⁻¹·x = ĈᵀĈ·x for a vector or columnwise matrix (a copy for W = I)."""
        if self._chat_bands is None:
            return x.copy(order="K")
        return _mul_upper_t(self._chat_bands, self.apply_chat(x))


def _gram_rhs(x: Union[TimeSeries, np.ndarray]) -> np.ndarray:
    if isinstance(x, TimeSeries) and x.has_missing:
        raise WeightVariantError("the Gram route takes no masked weights, so no gaps")
    return _as_vector_or_batch(x)


def project_gamma(
    factor: GammaFactor, x: Union[TimeSeries, np.ndarray]
) -> Tuple[np.ndarray, np.ndarray]:
    """(Πx, g) for the (a, W) of ``factor``, without forming a basis:
    Πx = (I − W⁻¹Q(a)Γ⁻¹(a)Qᵀ(a))x = Π_{Z(a),W}x and g = Γ⁻¹(a)Qᵀ(a)x, for
    a vector or columnwise batch x.  A ``TimeSeries`` with gaps raises
    ``WeightVariantError``."""
    x = _gram_rhs(x)
    coeffs = factor.coeffs
    g = factor.solve(apply_q_transpose(coeffs, x))
    return x - factor.apply_winv(apply_q(coeffs, g)), g


def _vp_columns(
    factor: GammaFactor,
    tau: int,
    x: np.ndarray,
    pix: np.ndarray,
    g: Optional[np.ndarray] = None,
) -> np.ndarray:
    """K with W⁻¹K the VP Jacobian at the (a, W) of ``factor``, given
    ``pix`` = Πx: column K_j = −E_j·g − QΓ⁻¹(E_jᵀΠx − QᵀW⁻¹E_j·g) for the
    positions j ∈ K(τ), with g = Γ⁻¹Qᵀx.  One batched solve for the r
    columns, and one for g unless the projection of x handed it over.
    The right-hand sides are formed one column at a time, and K in the
    block of the padded g; see the module docstring for the blocks held.
    """
    coeffs = factor.coeffs
    n, r = x.shape[0], factor.r
    m = n - r
    if g is None:
        g = factor.solve(apply_q_transpose(coeffs, x))
    # column-major, so a column of a block is contiguous; K is formed in
    # the block that holds E_j·g, g zero-padded to offset j
    k = np.zeros((n, r), order="F")
    rhs = np.empty((m, r), order="F")  # E_jᵀΠx − QᵀW⁻¹E_j·g
    for col, j in enumerate(j for j in range(r + 1) if j != tau - 1):
        k[j : j + m, col] = g
        qt_winv = apply_q_transpose(coeffs, factor.apply_winv(k[:, col]))
        np.subtract(pix[j : j + m], qt_winv, out=rhs[:, col])
    sol = factor.solve(rhs)
    del rhs
    np.negative(k, out=k)
    k -= apply_q(coeffs, sol)
    return k


def vp_jacobian(
    factor: GammaFactor, tau: int, x: Union[TimeSeries, np.ndarray]
) -> np.ndarray:
    """Jacobian of ȧ ↦ Π_{Z(H_τ(ȧ)),W}x at a = H_τ(ȧ), one column per free
    coefficient, for the (a, W) of ``factor``.

    Column for the full-vector position j ∈ K(τ) is

        −W⁻¹Q(a)Γ⁻¹Qᵀ(e_j)Πx − Π W⁻¹Q(e_j)Γ⁻¹Qᵀ(a)x,

    where Qᵀ(e_j)v windows v at offset j−1 and Q(e_j)u zero-pads u to that
    window.  It is computed in the merged form W⁻¹K_j of the module
    docstring: one batched solve for all r columns, besides the solve of
    Πx, whose g the columns reuse, all on one factorization.  A
    ``TimeSeries`` with gaps raises ``WeightVariantError``.
    """
    rhs = _gram_rhs(x)
    if rhs.ndim != 1:
        raise ValueError("the Jacobian is defined for a single series")
    if not 1 <= tau <= factor.r + 1:
        raise ValueError(f"pivot index {tau} outside 1..{factor.r + 1}")
    pix, g = project_gamma(factor, rhs)
    return factor.apply_winv(_vp_columns(factor, tau, rhs, pix, g))
