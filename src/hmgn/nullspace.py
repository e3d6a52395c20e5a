"""Circulant-FFT machinery for orthonormal bases of GLRR nullspaces.

The subspace Z(a) = ker Qᵀ(a) of series satisfying a GLRR admits an
O(rN log N) construction through circulants: the N×N circulant C(ã) built
from the rotated coefficients ã = T_{r+1}(−α)·a is diagonalized by the
unitary DFT, C(ã) = F⁻¹·A_g·F, with eigenvalues g_a evaluated on the
rotated unit-circle grid ω_j = exp(i(2πj/N − α)).  Choosing the rotation α
to keep the grid away from the roots of the coefficient polynomial
g_a(z) = Σ a_{k+1} z^k makes A_g invertible, and a basis of Z(a) falls out
of applying A_g⁻¹ to r fixed Fourier columns.  The rotation is placed in
closed form from the r roots of g_a: each root near the unit circle forbids
one rotation modulo 2π/N, and the midpoints of the gaps between forbidden
rotations (plus the half-spacing offset) are the only candidates, so the
placement costs an r×r eigenproblem and at most r + 1 grid evaluations.
The roots are the eigenvalues of the companion matrix of g_a, formed as
``np.roots`` forms it but without its checks, and the few forbidden
rotations and candidates are handled as Python floats: at N = 50 the
numpy calls on arrays of one to five entries cost more than the arithmetic.

Both accuracy modes orthonormalize L_r = A_g⁻¹·R_r once, by classical
Gram–Schmidt run twice (CGS2), into L_r = Q·R̂; they differ only in
arithmetic.  The plain mode takes Q; its subspace error grows with the
eigenvalue spread λ_max/λ_min, which for coefficient polynomials with
unit-circle roots of multiplicity t grows like N^t.  The compensated mode
takes the triangular orthonormalization O_r = R̂⁻¹, then re-evaluates the
product R_r·O_r as a polynomial in compensated (error-free-transformation)
arithmetic before dividing by the eigenvalues; this keeps the elementwise
error near machine precision regardless of the spread, because the
orthonormalized product has condition number O(1).  The Gram–Schmidt
inner products are numpy reductions, not BLAS calls, so a basis is the
same at any BLAS thread count.

The same rotated spectrum also solves the banded system Qᵀ(a)·F̂ = M that
the search-direction computation needs (``fhat_matrix``): extend M by r
zero rows, twist, and apply C(ã)⁻¹ through the FFT, with M held one column
per row so that each transform runs over a contiguous line.

The ``RotatedSpectrum`` is the only carrier of (a, N, mode): it holds the
coefficients and the arithmetic mode its eigenvalues were evaluated in, N
and r follow from it, and the order (1 ≤ r < N/2) and the mode are checked
once, when it is made.  ``nullspace_basis`` and ``fhat_matrix`` take the
spectrum alone, so a basis and an F̂ solve cannot be built from a spectrum
of other coefficients.

All FFTs use the unitary convention (1/√N in both directions).

Grid constants that do not depend on a are computed once: the unit grid
exp(2πik/N) per N (16·N bytes) and the Fourier columns R_r per (N, r)
(16·N·r bytes), each in a least-recently-used table of ``_TABLE_SIZE`` = 16
entries (320 KB per (N, r) at N = 5000, r = 3).  The rotated grid
exp(i(2πj/N − α₀)) and the untwist T_N(−α₀) depend on a only through α₀,
which the closed-form placement puts at π/N or 0 for nearly every spectrum
of a fit, so each is tabled per (N, α₀) too, in ``_ROTATION_TABLE_SIZE`` = 4
entries (16·N bytes each).  T_{N−r}(α₀) is the untwist's conjugate prefix,
which equals the directly computed T_{N−r}(α₀) bit for bit.  A table entry
is computed by the same formula as the direct form, so tabling changes no
bit of any result.  The tables are read-only arrays, so threads share them
safely.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np
import scipy.linalg

from .errors import BasisRealizationError, SpectrumDegeneracyError
from .series import GlrrVector, TimeSeries, _series_values, apply_q_transpose
from .weights import _norm2

__all__ = [
    "RotatedSpectrum",
    "SubspaceBasis",
    "eval_poly_grid",
    "find_rotation",
    "rotated_spectrum",
    "nullspace_basis",
    "fhat_matrix",
]

#: bound on the relative defect of the complex-to-real basis realization per
#: mode; the plain mode is allowed a loose bound because its complex basis is
#: legitimately further from a real subspace at large N — that gap is the
#: phenomenon the compensated mode exists to remove, not a failure.
_IMAG_TOL = {"plain": 1e-2, "compensated": 1e-9}

_MODES = tuple(_IMAG_TOL)

CoeffLike = Union[GlrrVector, Sequence[float], np.ndarray]


def _coeffs(a: CoeffLike) -> np.ndarray:
    """Coefficient array for polynomial evaluation (complex allowed, length ≥ 1)."""
    if isinstance(a, GlrrVector):
        return a.coeffs
    arr = np.asarray(a)
    if arr.dtype.kind not in "fc":
        arr = arr.astype(float)
    arr = arr.reshape(-1)
    if arr.size < 1:
        raise ValueError("empty coefficient vector")
    return arr


def _check_mode(mode: str) -> None:
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")


def _check_order(r: int, n: int) -> None:
    if r < 1:
        raise ValueError("GLRR order must be at least 1")
    if not r < n / 2:
        raise ValueError(f"GLRR order r={r} must satisfy r < N/2 (N={n})")


def _twist(n: int, alpha: float) -> np.ndarray:
    """Diagonal of T_n(α) = diag(1, e^{iα}, …, e^{i(n−1)α})."""
    return np.exp(1j * alpha * np.arange(n))


#: entries per grid table; a fit uses one N and one r
_TABLE_SIZE = 16


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@functools.lru_cache(maxsize=_TABLE_SIZE)
def _unit_grid(n: int) -> np.ndarray:
    """The unrotated grid exp(2πik/N), k = 0..N−1 (read-only, tabled per N)."""
    return _read_only(np.exp(2j * np.pi * np.arange(n) / n))


#: entries per rotation table; α₀ takes one or two values in most fits
_ROTATION_TABLE_SIZE = 4


@functools.lru_cache(maxsize=_ROTATION_TABLE_SIZE)
def _rotated_grid(n: int, alpha: float) -> np.ndarray:
    """The rotated grid exp(i(2πj/N − α)), j = 0..N−1 (read-only, tabled per
    (N, α))."""
    return _read_only(np.exp(1j * (2.0 * np.pi * np.arange(n) / n - alpha)))


@functools.lru_cache(maxsize=_ROTATION_TABLE_SIZE)
def _untwist(n: int, alpha0: float) -> np.ndarray:
    """The diagonal of T_N(−α₀) (read-only, tabled per (N, α₀))."""
    return _read_only(_twist(n, -alpha0))


# ---------------------------------------------------------------------------
# error-free transformations and compensated Horner evaluation
# ---------------------------------------------------------------------------

_SPLITTER = 134217729.0  # 2**27 + 1, Veltkamp splitting constant for doubles


# The in-place steps below write only into arrays the helper allocated and
# keep the textbook operations and their order, so every result is bitwise
# that of the textbook form (``comp_horner_oracle`` in the tests).


def _two_sum(a, b):
    """s, e with s = fl(a+b) and a + b = s + e exactly (Knuth, branch-free)."""
    s = a + b
    bb = s - a
    e = s - bb
    np.subtract(a, e, out=e)
    np.subtract(b, bb, out=bb)
    e += bb
    return s, e


def _split(a):
    """hi, lo with a = hi + lo exactly, each half fitting in 26 bits."""
    hi = _SPLITTER * a
    lo = hi - a
    np.subtract(hi, lo, out=hi)
    np.subtract(a, hi, out=lo)
    return hi, lo


def _two_prod_split(a, ah, al, b, bh, bl):
    """p, e with p = fl(a·b) and a·b = p + e exactly (Dekker), given the
    Veltkamp splits a = ah + al and b = bh + bl."""
    p = a * b
    e = ah * bh
    np.subtract(p, e, out=e)
    t = al * bh
    e -= t
    np.multiply(ah, bl, out=t)
    e -= t
    np.multiply(al, bl, out=t)
    np.subtract(t, e, out=e)
    return p, e


def _comp_horner(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Compensated Horner evaluation of Σ coeffs[k]·z^k at complex points.

    Maintains an exact-to-first-order error expansion alongside the working
    value: every product and sum is replaced by its error-free transform and
    the rounding terms are accumulated through a plain Horner recurrence.
    The returned value s + e is accurate to ~2 ulp unless the evaluation
    condition number exceeds 1/u² (Compensated Horner scheme; the complex
    product is compensated componentwise).  z is split once per call and
    each partial sum once per step.
    """
    coeffs = np.asarray(coeffs)
    zr, zi = np.real(z).astype(float), np.imag(z).astype(float)
    zrh, zrl = _split(zr)
    zih, zil = _split(zi)
    sr = np.full_like(zr, np.real(coeffs[-1]))
    si = np.full_like(zr, np.imag(coeffs[-1]))
    er = np.zeros_like(zr)
    ei = np.zeros_like(zr)
    for k in range(coeffs.size - 2, -1, -1):
        # s·z, componentwise error-free products and sums
        srh, srl = _split(sr)
        sih, sil = _split(si)
        p1, d1 = _two_prod_split(sr, srh, srl, zr, zrh, zrl)
        p2, d2 = _two_prod_split(si, sih, sil, zi, zih, zil)
        p3, d3 = _two_prod_split(sr, srh, srl, zi, zih, zil)
        p4, d4 = _two_prod_split(si, sih, sil, zr, zrh, zrl)
        rp, d5 = _two_sum(p1, -p2)
        ip, d6 = _two_sum(p3, p4)
        # + coefficient
        sr_new, d7 = _two_sum(rp, float(np.real(coeffs[k])))
        si_new, d8 = _two_sum(ip, float(np.imag(coeffs[k])))
        # propagate accumulated error through the same recurrence (plain
        # arithmetic suffices: the error terms are already O(u))
        er_new = er * zr - ei * zi + (d1 - d2 + d5 + d7)
        ei_new = er * zi + ei * zr + (d3 + d4 + d6 + d8)
        sr, si, er, ei = sr_new, si_new, er_new, ei_new
    return (sr + er) + 1j * (si + ei)


def _plain_horner(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    # in place: the textbook steps with no temporary per step
    acc = np.full(z.shape, complex(coeffs[-1]))
    for k in range(coeffs.size - 2, -1, -1):
        acc *= z
        acc += complex(coeffs[k])
    return acc


# ---------------------------------------------------------------------------
# eigenvalue grids and grid rotation
# ---------------------------------------------------------------------------


def eval_poly_grid(
    a: CoeffLike, alpha: float, n: int, mode: str = "plain"
) -> np.ndarray:
    """g_a on the rotated grid: value j is g_a(exp(i(2πj/N − α))), j = 0..N−1."""
    _check_mode(mode)
    coeffs = _coeffs(a)
    z = _rotated_grid(n, float(alpha))
    if mode == "compensated":
        return _comp_horner(coeffs, z)
    return _plain_horner(coeffs, z)


#: complex entries per block of the batched rotation search (256 KB).  At
#: c = 4 rotations, one unblocked (c, N) pass took three times as long as a
#: loop over the rotations at N = 20000 (1.3 MB temporaries), and blocks of
#: 4096 entries lost to the loop from N = 5000 on (per-call overhead);
#: blocks of this size were within noise of the loop or faster at every N
#: from 50 to 20000 (1 BLAS thread, 2-core x86 box).
_GRID_BLOCK = 16384


def _grid_min_abs(
    coeffs: np.ndarray, base: np.ndarray, alphas: np.ndarray
) -> np.ndarray:
    """min_j |g_a| over the grid rotated by each of ``alphas`` (plain
    evaluation), all c rotations in one Horner pass over (c, ·) blocks of
    the grid.

    Every entry takes the operations of a separate pass, and a minimum is
    exact in any order, so each value is bitwise that of evaluating its
    rotation alone.
    """
    shifts = np.exp(-1j * alphas)[:, None]
    width = max(1, _GRID_BLOCK // alphas.size)
    if base.size <= width:
        return np.abs(_plain_horner(coeffs, base[None, :] * shifts)).min(axis=1)
    block_mins = []
    for lo in range(0, base.size, width):
        z = base[None, lo : lo + width] * shifts
        block_mins.append(np.abs(_plain_horner(coeffs, z)).min(axis=1))
    return np.min(block_mins, axis=0)


#: relative size below which a top coefficient counts as zero in the roots
_EPS = 2.0**-52


def _companion_roots(p: np.ndarray) -> np.ndarray:
    """Roots of Σ p[k]·z^{m−k} (highest power first, p[0] ≠ 0) less those
    at 0: the eigenvalues of the companion matrix, formed as ``np.roots``
    forms it after its checks.  Trailing zero coefficients, whose roots are
    0, are stripped first, as ``np.roots`` strips them."""
    nonzero = p.nonzero()[0]
    p = p[: nonzero[-1] + 1]
    m = p.size - 1
    if m < 1:
        return p[:0]
    companion = np.diag(np.ones(m - 1, p.dtype), -1)
    companion[0, :] = -p[1:] / p[0]
    return np.linalg.eigvals(companion)


def find_rotation(a: CoeffLike, n: int) -> float:
    """Rotation α₀ ∈ (−π/N, π/N] keeping the grid away from the roots of g_a.

    A grid point lands on a root ρ when α ≡ −arg ρ (mod 2π/N), and only
    roots with |log|ρ|| < 2π/N come close to the grid.  The roots are the
    eigenvalues of the companion matrix of g_a, formed directly as
    ``np.roots`` forms it, so they are bitwise its roots.  The candidates
    are the midpoint of every circular gap between the forbidden rotations
    plus the half-spacing offset π/N; the one with the largest plain
    min_j |g_a| wins.  Every gap is tried, not only the widest, because the
    eigenvalue solver splits a t-fold root into a ring of radius about
    u^{1/t} whose gaps say little about where the true root is.  The at
    most r forbidden rotations and r + 1 candidates are sorted, spaced and
    wrapped in Python floats (whose ``%`` rounds as ``np.mod``).  Cost: one
    r×r eigenproblem and at most r + 1 grid evaluations, taken in one pass.
    """
    coeffs = _coeffs(a)
    if n < coeffs.size:
        raise SpectrumDegeneracyError(
            f"grid size {n} smaller than coefficient count {coeffs.size}"
        )
    spacing = 2.0 * math.pi / n
    half = 0.5 * spacing
    cand = [half]
    mag = np.abs(coeffs)
    big = mag.max()
    if np.isfinite(mag).all() and big > 0.0:
        # top coefficients at rounding level put roots near infinity, and a
        # subnormal one overflows the companion matrix
        top = (mag > _EPS * big).nonzero()[0][-1]
        roots = _companion_roots(coeffs[top::-1])
        roots = roots[np.isfinite(roots) & (roots != 0)]
        near = roots[np.abs(np.log(np.abs(roots))) < spacing]
        forbidden = sorted({angle % spacing for angle in (-np.angle(near)).tolist()})
        if forbidden:
            ends = forbidden[1:] + [forbidden[0] + spacing]
            cand.extend(f + 0.5 * (e - f) for f, e in zip(forbidden, ends))
    # wrap into (−π/N, π/N] (the grid is 2π/N-periodic in the rotation)
    wrapped = [(c + half) % spacing for c in cand]
    cand = [(w if w != 0.0 else spacing) - half for w in wrapped]
    vals = _grid_min_abs(coeffs, _unit_grid(n), np.array(cand))
    best = int(vals.argmax())
    if not vals[best] > 0.0:
        raise SpectrumDegeneracyError(
            "every candidate rotation hits a root of the coefficient "
            f"polynomial on the size-{n} grid; is the GLRR order too large "
            "for the series length?"
        )
    return float(cand[best])


@dataclass(frozen=True, eq=False)
class RotatedSpectrum:
    """Eigenvalues of the rotated circulant C(T_{r+1}(−α₀)·a), with the
    coefficients a and the arithmetic ``mode`` they were evaluated in.

    ``eigenvalues[j] = g_a(exp(i(2πj/N − α₀)))``; all strictly nonzero.  N is
    the eigenvalue count and r the order of a, with 1 ≤ r < N/2.
    ``untwist`` is the diagonal of T_N(−α₀), from a table per (N, α₀).

    Compared and hashed by identity (``eq=False``): a field-wise ``==``
    would compare arrays and raise instead of returning a bool.
    """

    coeffs: np.ndarray
    mode: str
    alpha0: float
    eigenvalues: np.ndarray

    def __post_init__(self):
        _check_mode(self.mode)
        coeffs = _read_only(_coeffs(self.coeffs).copy())
        eig = np.asarray(self.eigenvalues, dtype=complex).reshape(-1)
        _check_order(coeffs.size - 1, eig.size)
        if not np.isfinite(eig).all():
            raise SpectrumDegeneracyError("non-finite circulant eigenvalues")
        if np.abs(eig).min() == 0.0:
            raise SpectrumDegeneracyError(
                "zero circulant eigenvalue: rotated grid hits a polynomial root"
            )
        eig.flags.writeable = False
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "eigenvalues", eig)

    @property
    def n(self) -> int:
        return self.eigenvalues.size

    @property
    def r(self) -> int:
        return self.coeffs.size - 1

    @property
    def min_abs_eigenvalue(self) -> float:
        return float(np.min(np.abs(self.eigenvalues)))

    @property
    def untwist(self) -> np.ndarray:
        return _untwist(self.n, float(self.alpha0))


def rotated_spectrum(a: CoeffLike, n: int, mode: str = "plain") -> RotatedSpectrum:
    """Place the rotation and evaluate the circulant eigenvalues in ``mode``."""
    coeffs = _coeffs(a)
    # fail on the order and mode before the rotation search
    _check_mode(mode)
    _check_order(coeffs.size - 1, n)
    alpha0 = find_rotation(coeffs, n)
    return RotatedSpectrum(coeffs, mode, alpha0, eval_poly_grid(coeffs, alpha0, n, mode))


# ---------------------------------------------------------------------------
# nullspace bases
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SubspaceBasis:
    """Orthonormal basis Z (N×r) of Z(a), with realization diagnostics.

    ``defect`` is the relative size σ_{r+1}/σ₁ of the complex-to-real
    realization (0 when the complex basis spanned the complexification of a
    real subspace exactly); ``residual_norm`` is ‖Qᵀ(a)·Z‖_F.

    Compared and hashed by identity (``eq=False``): a field-wise ``==``
    would compare arrays and raise instead of returning a bool.
    """

    z: np.ndarray
    defect: float
    residual_norm: float

    def __post_init__(self):
        z = np.asarray(self.z, dtype=float)
        z.flags.writeable = False
        object.__setattr__(self, "z", z)

    @property
    def n(self) -> int:
        return self.z.shape[0]

    @property
    def r(self) -> int:
        return self.z.shape[1]


@functools.lru_cache(maxsize=_TABLE_SIZE)
def _fourier_columns(n: int, r: int) -> np.ndarray:
    """R_r ∈ C^{N×r}, the unitary DFT of the last r standard basis vectors,
    stored one column per row (r×N).

    Column j (1-based) is the Fourier mode (1/√N)·exp(i2πk(r+1−j)/N); the
    columns are exactly orthonormal.  Read-only, tabled per (N, r).
    """
    j = np.arange(1, r + 1)[:, None]
    k = np.arange(n)[None, :]
    return _read_only(np.exp(2j * np.pi * k * (r + 1 - j) / n) / np.sqrt(n))


def _cgs2(l_rows: np.ndarray) -> tuple:
    """Q and R̂ with L = Q·R̂ for the complex N×r matrix L held one column
    per row (r×N); Q is returned the same way.

    Classical Gram–Schmidt run twice: each column is orthogonalized against
    the finished ones in two passes, with all k inner products of a pass
    taken as one elementwise (k, N) product and reduction, and likewise the
    update.  Two passes keep ‖QᴴQ − I‖ at rounding level while κ(L)·u ≪ 1
    (Giraud, Langou & Rozložník, Comput. Math. Appl. 50, 2005).  R̂ is upper
    triangular with a real, positive diagonal.  No BLAS call runs, so the
    factor is the same at any BLAS thread count.
    """
    r = l_rows.shape[0]
    q = np.empty_like(l_rows)
    # the conjugates of the finished columns, each taken once
    conj = np.empty_like(l_rows)
    rhat = np.zeros((r, r), dtype=complex)
    for k in range(r):
        v = l_rows[k]
        if k:
            done, done_conj = q[:k], conj[:k]
            h = 0.0
            for _ in range(2):
                # np.add.reduce is np.sum without its Python-level dispatch,
                # which costs as much as the arithmetic at N = 50
                pass_h = np.add.reduce(done_conj * v, axis=1, keepdims=True)
                v = v - np.add.reduce(pass_h * done, axis=0)
                h = h + pass_h
            rhat[:k, k] = h[:, 0]
        norm = _norm2(v.view(float))
        rhat[k, k] = norm
        np.divide(v, norm, out=q[k])
        np.conjugate(q[k], out=conj[k])
    return q, rhat


def _realize_basis(z_c: np.ndarray, imag_tol: float) -> tuple:
    """Real orthonormal basis from a complex one, held one column per row
    (r×N), spanning a conjugation-closed subspace.

    Real and imaginary parts of the complex columns all lie in the underlying
    real subspace, so the r leading left singular vectors of [Re Z | Im Z]
    recover it; σ_{r+1}/σ₁ measures how far the complex span was from the
    complexification of any real r-dimensional subspace.
    """
    r = z_c.shape[0]
    stacked = np.concatenate([z_c.real, z_c.imag]).T
    u, s, _ = np.linalg.svd(stacked, full_matrices=False)
    defect = float(s[r] / s[0]) if s[0] > 0 else 0.0
    if defect > imag_tol:
        raise BasisRealizationError(defect, imag_tol)
    return u[:, :r], defect


def nullspace_basis(spectrum: RotatedSpectrum) -> SubspaceBasis:
    """Orthonormal basis of Z(a) = ker Qᵀ(a) in O(rN log N + Nr²), for the
    coefficients and mode the spectrum carries.

    Both modes factor L_r = A_g⁻¹·R_r = Q·R̂ once, by Gram–Schmidt run twice.
    Plain mode uses U_r = Q.  Compensated mode takes O_r = R̂⁻¹, re-evaluates
    B = R_r·O_r columnwise as the polynomial Σ_j O_r[j,c]·z^{r+1−j} on the
    unrotated grid in compensated arithmetic, and uses U_r = A_g⁻¹·B; this
    removes the λ_max/λ_min error amplification of the plain route.

    A relative defect of the final complex-to-real realization beyond the
    mode's bound (1e-2 plain, 1e-9 compensated) raises
    ``BasisRealizationError`` rather than silently truncating imaginary parts.
    """
    n, r = spectrum.n, spectrum.r
    eig = spectrum.eigenvalues
    # matrices over the grid are held one column per row (r×N)
    q, rhat = _cgs2(_fourier_columns(n, r) / eig)

    if spectrum.mode == "plain":
        u_r = q
    else:
        o_r = scipy.linalg.solve_triangular(rhat, np.eye(r, dtype=complex))
        # column c of R_r·O_r equals (1/√N)·p_c(z_k) on the unrotated grid,
        # with p_c(z) = Σ_j O_r[j,c]·z^{r+1−j}
        z_grid = _unit_grid(n)
        u_r = np.empty((r, n), dtype=complex)
        for c in range(r):
            poly = np.zeros(r + 1, dtype=complex)
            poly[1:] = o_r[::-1, c]  # power m carries O_r[r+1−m, c]
            u_r[c] = _comp_horner(poly, z_grid) / np.sqrt(n)
        u_r /= eig

    z_c = spectrum.untwist * np.fft.ifft(u_r, axis=1, norm="ortho")
    z, defect = _realize_basis(z_c, _IMAG_TOL[spectrum.mode])
    residual = _norm2(apply_q_transpose(spectrum.coeffs.real, z))
    return SubspaceBasis(z, defect, residual)


# ---------------------------------------------------------------------------
# right-hand-side solver for the search direction
# ---------------------------------------------------------------------------


def fhat_matrix(
    spectrum: RotatedSpectrum,
    s: Union[TimeSeries, Sequence[float], np.ndarray],
    tau: int,
) -> np.ndarray:
    """Solve Qᵀ(a)·F̂ = M for F̂ ∈ R^{N×r}, M = −(rows K(τ) of T_{r+1}(S))ᵀ,
    with a the spectrum's coefficients.

    The solve extends M by r zero rows, twists by T_{N−r}(α₀), applies the
    inverse rotated circulant through the FFT, and untwists; the real part
    is exact because M and Q(a) are real.  T_{N−r}(α₀) is the conjugate of
    the leading N − r entries of the spectrum's untwist T_N(−α₀), bitwise.
    M and the transforms are held one column per row (r×N), so each FFT
    runs over a contiguous line; F̂ is returned N×r in C order.
    """
    values = _series_values(s)
    n, r = spectrum.n, spectrum.r
    if values.size != n:
        raise ValueError(f"series length {values.size} does not match grid size {n}")
    if not 1 <= tau <= r + 1:
        raise ValueError(f"tau={tau} out of range 1..{r + 1}")

    # row c holds column c of M: −(window of S at offset j), j the c-th
    # index of K(τ)
    m = np.empty((r, n - r))
    for row, j in enumerate(j for j in range(r + 1) if j != tau - 1):
        np.negative(values[j : j + n - r], out=m[row])
    m_ext = np.zeros((r, n), dtype=complex)
    untwist = spectrum.untwist
    np.multiply(np.conj(untwist[: n - r]), m, out=m_ext[:, : n - r])
    y = np.fft.fft(m_ext, axis=1, norm="ortho")
    y /= spectrum.eigenvalues
    fhat = np.fft.ifft(y, axis=1, norm="ortho")
    np.multiply(untwist, fhat, out=fhat)
    return np.ascontiguousarray(fhat.real.T)
