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

For real a and e^{iNα₀} = ±1, which the closed-form placement gives for
nearly every spectrum of a fit (α₀ = π/N or 0), T_N(−α₀)·C(ã)⁻¹·T_N(α₀) is
the inverse of a real circulant or skew-circulant (Davis, *Circulant
Matrices*, 1979).  Column c of R_r is the transform of the standard vector
e_m, m = N − r + c, so after de-phasing it by e^{iα₀m} the complex basis
Z_c = T_N(−α₀)·F⁻¹·U_r is real, and every quantity over the grid is
conjugate-symmetric: the rotated grid ω_j satisfies conj(ω_j) = ω_{p(j)}
with p(j) = (s − j) mod N, s = 0, 1 or −1 for α₀ = 0, π/N or −π/N, so
g_a(ω_{p(j)}) = conj g_a(ω_j), and likewise for A_g⁻¹·R_r·Φ, its
Gram–Schmidt factor Q and the re-evaluated product B.  Each is computed on
the ⌈N/2⌉ pair representatives, a contiguous slice of the grid, with real
values at the self-conjugate points (ω = ±1), and the other points are
their partners' conjugates, a reversed slice (``_ConjugatePairs``).  The
inner products over the grid are then real, Σ_pairs 2·Re(ū_j·v_j) plus
Σ_self u_j·v_j, so Gram–Schmidt runs on the real view of the
representatives and R̂ and O_r are real.  B = R_r·Φ·O_r is re-evaluated as
±p_c(ω) on the rotated grid, with the real coefficients of O_r, since a
rounded phase Φ would break its symmetry by an error that O_r amplifies by
up to κ(L_r).  With exactly symmetric U_r, the one inverse FFT leaves
‖Im Z_c‖_F at its own rounding (about 3e-16 at N = 5000), and the real
part is the basis whenever ‖Im Z_c‖_F ≤ min(√u, the mode's realization
bound); then σ_{r+1}([Re Z_c | Im Z_c]) ≤ ‖Im Z_c‖_F (Weyl), so this route
is taken only where the SVD realization would pass.  A complex twist
evaluates the whole grid in complex arithmetic and realizes its basis by
the SVD of [Re Z_c | Im Z_c] (``_realize_basis``).  Either way Z is stored
one column per contiguous line (Fortran order).

The same rotated spectrum also solves the banded system Qᵀ(a)·F̂ = M that
the search-direction computation needs (``fhat_matrix``): extend M by r
zero rows, twist, and apply C(ã)⁻¹ through the FFT, with M held one column
per row so that each transform runs over a contiguous line.  With a real
twist the solve maps real columns to real columns, so columns 2k and
2k + 1 share one complex transform as M₂ₖ + i·M₂ₖ₊₁ (Press et al.,
*Numerical Recipes*, §12.3): ⌈r/2⌉ transform pairs instead of r.

The ``RotatedSpectrum`` is the only carrier of (a, N, mode): it holds the
coefficients and the arithmetic mode its eigenvalues were evaluated in, N
and r follow from it, and the order (1 ≤ r < N/2), the mode and the
realness of a are checked once, when it is made (a complex a has no real
Z(a), so one with a nonzero imaginary part raises ``ValueError`` where
coefficients enter).  ``nullspace_basis`` and ``fhat_matrix`` take the
spectrum alone, so a basis and an F̂ solve cannot be built from a spectrum
of other coefficients.

All FFTs use the unitary convention (1/√N in both directions).

Grid constants that do not depend on a are computed once: the unit grid
exp(2πik/N) per N (16·N bytes) and the Fourier columns R_r per (N, r)
(16·N·r bytes), each in a least-recently-used table of ``_TABLE_SIZE`` = 16
entries (320 KB per (N, r) at N = 5000, r = 3), and so is the conjugate
pairing of a real twist per (N, s), a handful of slices.  The rotated grid
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
from typing import NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np
import scipy.linalg

from .errors import BasisRealizationError, SpectrumDegeneracyError
from .series import GlrrVector, TimeSeries, _real_array, _series_values
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

#: √u, u = 2⁻⁵³ the unit roundoff: an imaginary part of a basis that is real
#: by construction larger than this is more than rounding
_SQRT_U = 2.0**-26.5

CoeffLike = Union[GlrrVector, Sequence[float], np.ndarray]


def _coeffs(a: CoeffLike) -> np.ndarray:
    """Real float64 coefficient array of length ≥ 1 for polynomial
    evaluation.  A complex a has no real Z(a) and no real F̂, so a nonzero
    imaginary part raises ``ValueError``; an all-zero one is dropped."""
    if isinstance(a, GlrrVector):
        return a.coeffs
    arr = _real_array(a, "GLRR coefficients").reshape(-1)
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
    min_j |g_a| wins, where a real-twist candidate (0 or ±π/N) scores its
    self-conjugate points, whose eigenvalues ``rotated_spectrum`` takes
    real, by |Re g_a|.  Every gap is tried, not only the widest, because the
    eigenvalue solver splits a t-fold root into a ring of radius about
    u^{1/t} whose gaps say little about where the true root is.  The at
    most r forbidden rotations and r + 1 candidates are sorted, spaced and
    wrapped in Python floats (whose ``%`` rounds as ``np.mod``).  Cost: one
    r×r eigenproblem and at most r + 1 grid evaluations, taken in one pass,
    plus at most two points per rescored candidate.
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
    # a real-twist candidate scores its self-conjugate points by |Re g_a|;
    # that can only lower its value, so only a leader is rescored, until
    # one still leads after it
    scored = set()
    best = int(vals.argmax())
    while best not in scored:
        scored.add(best)
        vals[best] = min(vals[best], _self_conjugate_min_abs(coeffs, n, cand[best]))
        best = int(vals.argmax())
    if not vals[best] > 0.0:
        raise SpectrumDegeneracyError(
            "every candidate rotation hits a root of the coefficient "
            f"polynomial on the size-{n} grid; is the GLRR order too large "
            "for the series length?"
        )
    return float(cand[best])


#: ulps of π/N within which a rotation counts as ±π/N (``real_twist``)
_TWIST_ULPS = 4

_SQRT2 = math.sqrt(2.0)
_INV_SQRT2 = 1.0 / _SQRT2


def _pair_shift(n: int, alpha0: float) -> Optional[int]:
    """s with conj(ω_j) = ω_{(s−j) mod N} on the rotated grid
    ω_j = exp(i(2πj/N − α₀)): 0 for α₀ = 0, ±1 for α₀ = ±π/N within
    ``_TWIST_ULPS`` ulps; None for any other rotation."""
    alpha0 = float(alpha0)
    if alpha0 == 0.0:
        return 0
    half = 0.5 * (2.0 * math.pi / n)
    if abs(abs(alpha0) - half) <= _TWIST_ULPS * math.ulp(half):
        return 1 if alpha0 > 0.0 else -1
    return None


class _ConjugatePairs(NamedTuple):
    """The pairing j ↔ p(j) = (s − j) mod N of a real-twist grid, under
    which every grid quantity of the basis route is conjugate-symmetric:
    x[p(j)] = conj(x[j]); made by ``_conjugate_pairs``.

    The k = ⌈N/2⌉ (s = ±1) or ⌊N/2⌋ + 1 (s = 0) pair representatives are
    the contiguous points ``reps`` = t..t+k−1, t = 1 for s = 1 and 0
    otherwise.  The partners of all but the self-conjugate ones (p(j) = j,
    where the rotated grid point is ±1) are the rest of the grid,
    ``filled``, and are the representatives ``partners`` in reverse order;
    with t = 1 (``wraps``) point 0 is the partner of point 1.
    ``self_conjugate`` holds the self-conjugate points as offsets into
    ``reps``: 0 when s = 0, and k − 1 when N − s is even.  ``twist`` is
    e^{iNα₀}: 1 for s = 0 and −1 for s = ±1.
    """

    reps: slice
    self_conjugate: Tuple[int, ...]
    filled: slice
    partners: slice
    wraps: bool
    twist: float

    def make_real(self, reps: np.ndarray) -> np.ndarray:
        """Drop the imaginary part of the representatives ``reps`` (…, k)
        at the self-conjugate points, in place; returns ``reps``."""
        for j in self.self_conjugate:
            reps[..., j] = reps[..., j].real
        return reps

    def complete(self, full: np.ndarray) -> np.ndarray:
        """Fill the points of ``full`` (…, N) that are not representatives
        with the conjugates of their partners, in place; returns ``full``."""
        np.conjugate(full[..., self.partners], out=full[..., self.filled])
        if self.wraps:
            np.conjugate(full[..., 1], out=full[..., 0])
        return full

    def cgs2(self, l_reps: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``_cgs2`` of the conjugate-symmetric full-grid rows whose
        representatives are ``l_reps`` (r×k, real at the self-conjugate
        points), run on their real view; Q's representatives go to ``out``
        (r×k, complex) and R̂, which is real, is returned.

        Over the full grid ⟨u, v⟩ = Σ_pairs 2·Re(ū_j·v_j) + Σ_self u_j·v_j.
        The real view (r×2k) holds (Re, Im) per representative with the
        self-conjugate points scaled by 1/√2, so its Euclidean inner product
        is ⟨u, v⟩/2: Gram–Schmidt on it gives R̂/√2, and Q on the
        representatives is its Q' times 1/√2 at pairs and Q' itself at the
        self-conjugate points.  ``l_reps`` is overwritten.
        """
        view = l_reps.view(float)
        for j in self.self_conjugate:
            view[:, 2 * j] *= _INV_SQRT2
        q_view, rhat = _cgs2(view)
        q_half = q_view.view(complex)
        np.multiply(q_half, _INV_SQRT2, out=out)
        for j in self.self_conjugate:
            out[:, j] = q_half[:, j]
        return rhat * _SQRT2


def _self_conjugate_min_abs(coeffs: np.ndarray, n: int, alpha: float) -> float:
    """min |Re g_a| over the self-conjugate points of the grid rotated by
    α, where ``_eigenvalues`` takes g_a real (inf when α is not a real
    twist, or its grid has no such point).  On a grid through a real root,
    |g_a| there is rounding in the imaginary part alone, and the eigenvalue
    would be 0, so ``find_rotation`` scores those points by this."""
    shift = _pair_shift(n, alpha)
    if shift is None:
        return math.inf
    pairs = _conjugate_pairs(n, shift)
    if not pairs.self_conjugate:
        return math.inf
    z = _rotated_grid(n, alpha)[[pairs.reps.start + j for j in pairs.self_conjugate]]
    return float(np.abs(_plain_horner(coeffs, z).real).min())


@functools.lru_cache(maxsize=_TABLE_SIZE)
def _conjugate_pairs(n: int, shift: int) -> _ConjugatePairs:
    """The pairing of the size-``n`` grid with shift s (tabled per (N, s))."""
    t = 1 if shift == 1 else 0
    k = n // 2 + 1 if shift == 0 else (n + 1) // 2
    selfs = ((0,) if shift == 0 else ()) + ((k - 1,) if (n - shift) % 2 == 0 else ())
    # points k + t..N − 1 are the partners of points N + s − k − t down to
    # s + 1
    partners = slice(n + shift - k - t, shift if shift >= 0 else None, -1)
    twist = 1.0 if shift == 0 else -1.0
    return _ConjugatePairs(slice(t, t + k), selfs, slice(k + t, n), partners, t == 1, twist)


@dataclass(frozen=True, eq=False)
class RotatedSpectrum:
    """Eigenvalues of the rotated circulant C(T_{r+1}(−α₀)·a), with the
    real coefficients a (float64) and the arithmetic ``mode`` they were
    evaluated in.

    ``eigenvalues[j] = g_a(exp(i(2πj/N − α₀)))``; all strictly nonzero.  N is
    the eigenvalue count and r the order of a, with 1 ≤ r < N/2.
    ``untwist`` is the diagonal of T_N(−α₀), from a table per (N, α₀), and
    ``real_twist`` says whether e^{iNα₀} = ±1.  On a real twist,
    ``rotated_spectrum`` makes the eigenvalues exactly conjugate-symmetric,
    ``eigenvalues[(s − j) mod N] == conj(eigenvalues[j])`` with s = 0, 1 or
    −1 for α₀ = 0, π/N or −π/N, and real at the self-conjugate points;
    ``nullspace_basis`` reads only the pair representatives.

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
        # the conjugate pairing of a real twist's grid, or None
        shift = _pair_shift(eig.size, self.alpha0)
        pairs = None if shift is None else _conjugate_pairs(eig.size, shift)
        object.__setattr__(self, "_pairs", pairs)

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

    @property
    def real_twist(self) -> bool:
        """Whether e^{iNα₀} = ±1: α₀ is 0, or ±π/N within ``_TWIST_ULPS``
        ulps, since a gap midpoint of the closed-form placement can land a
        few ulps off −π/N (2 ulps for (z − 1)⁵ at N = 2000).  Then
        T_N(−α₀)·C(ã)⁻¹·T_N(α₀) is the inverse of a real circulant or
        skew-circulant."""
        return self._pairs is not None


def _eigenvalues(coeffs: np.ndarray, alpha0: float, n: int, mode: str) -> np.ndarray:
    """g_a on the grid rotated by α₀, as ``rotated_spectrum`` evaluates it.

    On a real twist, g_a(conj z) = conj g_a(z) for real a, so only the pair
    representatives are evaluated, on the rotated-grid table's points (their
    values are bitwise ``eval_poly_grid``'s); the self-conjugate ones are
    taken real and the partners are their conjugates, so the eigenvalues
    are exactly conjugate-symmetric.  Any other rotation evaluates the whole
    grid through ``eval_poly_grid``.
    """
    shift = _pair_shift(n, alpha0)
    if shift is None:
        return eval_poly_grid(coeffs, alpha0, n, mode)
    pairs = _conjugate_pairs(n, shift)
    z = _rotated_grid(n, float(alpha0))[pairs.reps]
    horner = _comp_horner if mode == "compensated" else _plain_horner
    eig = np.empty(n, dtype=complex)
    eig[pairs.reps] = horner(coeffs, z)
    pairs.make_real(eig[pairs.reps])
    return pairs.complete(eig)


def rotated_spectrum(a: CoeffLike, n: int, mode: str = "plain") -> RotatedSpectrum:
    """Place the rotation and evaluate the circulant eigenvalues in ``mode``.

    On a real twist (α₀ = 0 or ±π/N, nearly every spectrum of a fit) the
    eigenvalues are evaluated at the ⌈N/2⌉ conjugate-pair representatives of
    the grid and mirrored, so they are exactly conjugate-symmetric under
    the pairing j ↔ (s − j) mod N, s = 0, 1 or −1 for α₀ = 0, π/N or −π/N.
    """
    coeffs = _coeffs(a)
    # fail on the order and mode before the rotation search
    _check_mode(mode)
    _check_order(coeffs.size - 1, n)
    alpha0 = find_rotation(coeffs, n)
    return RotatedSpectrum(coeffs, mode, alpha0, _eigenvalues(coeffs, alpha0, n, mode))


# ---------------------------------------------------------------------------
# nullspace bases
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SubspaceBasis:
    """Orthonormal basis Z (N×r) of Z(a), with realization diagnostics.

    ``defect`` measures how far the complex basis Z_c was from real.  When
    Z is the real part of Z_c (a real twist, see the module docstring) it is
    ‖Im Z_c‖_F, an upper bound on σ_{r+1}([Re Z_c | Im Z_c]), which reads
    only the inverse FFT's rounding (about 3e-16 at N = 5000); after the
    SVD fallback, which only complex twists reach, it is the relative size
    σ_{r+1}/σ₁ of that matrix.  Either is 0 when Z_c spanned the
    complexification of a real subspace exactly.  The SVD gives ‖ZᵀZ − I‖ at
    rounding level; so does the real part in plain mode, while in
    compensated mode the real part is orthonormal to about u·κ(A_g⁻¹·R_r)
    (5.6e-8 for (z − 1)³ at N = 20000), which the solvers' pivoted-QR
    projection does not rely on.  Z is read-only.

    Compared and hashed by identity (``eq=False``): a field-wise ``==``
    would compare arrays and raise instead of returning a bool.
    """

    z: np.ndarray
    defect: float

    def __post_init__(self):
        z = np.asarray(self.z, dtype=float)
        z.flags.writeable = False
        object.__setattr__(self, "z", z)


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
    """Q and R̂ with L = Q·R̂ for the complex or real N×r matrix L held one
    column per row (r×N); Q is returned the same way, and R̂ in L's dtype.

    Classical Gram–Schmidt run twice: each column is orthogonalized against
    the finished ones in two passes, with all k inner products of a pass
    taken as one elementwise (k, N) product and reduction, and likewise the
    update.  Two passes keep ‖QᴴQ − I‖ at rounding level while κ(L)·u ≪ 1
    (Giraud, Langou & Rozložník, Comput. Math. Appl. 50, 2005).  R̂ is upper
    triangular with a real, positive diagonal.  No BLAS call runs, so the
    factor is the same at any BLAS thread count.
    """
    r = l_rows.shape[0]
    real = l_rows.dtype.kind == "f"
    q = np.empty_like(l_rows)
    # the conjugates of the finished columns, each taken once
    conj = q if real else np.empty_like(l_rows)
    rhat = np.zeros((r, r), dtype=l_rows.dtype)
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
        if not real:
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
    real coefficients and the mode the spectrum carries.

    Both modes factor L_r = A_g⁻¹·R_r·Φ = Q·R̂ once, by Gram–Schmidt run
    twice, where Φ = diag(e^{iα₀m}), m = N − r + c for column c, de-phases
    the Fourier columns.  Plain mode uses U_r = Q.  Compensated mode takes
    O_r = R̂⁻¹, re-evaluates B = R_r·Φ·O_r columnwise as the polynomial
    Σ_j Φ_j·O_r[j,c]·z^{r+1−j} on the unrotated grid in compensated
    arithmetic, and uses U_r = A_g⁻¹·B; this removes the λ_max/λ_min error
    amplification of the plain route.  Z_c = T_N(−α₀)·F⁻¹·U_r.

    When e^{iNα₀} = ±1 (α₀ = 0 or ±π/N, nearly every spectrum of a fit),
    L_r, Q and B are conjugate-symmetric under the spectrum's pairing
    j ↔ (s − j) mod N, so each is computed on the ⌈N/2⌉ pair
    representatives only, with real values at the self-conjugate points.
    The Gram–Schmidt inner products are real, with weight 2 per pair and 1
    per self-conjugate point, so R̂ and O_r are real, and B is re-evaluated
    as ±(1/√N)·Σ_j O_r[j,c]·ω^{r+1−j} on the rotated grid ω, a polynomial
    with real coefficients.  U_r is completed on the full grid by
    conjugation before the one inverse FFT, so Z_c is real up to the FFT's
    rounding, and its real part is the basis whenever ‖Im Z_c‖_F is at most
    min(√u, the mode's bound); ``defect`` is then that norm (below 1e-14,
    about 3e-16 at N = 5000).  Otherwise the SVD of [Re Z_c | Im Z_c]
    realizes the basis, and a relative defect beyond the mode's bound
    (1e-2 plain, 1e-9 compensated) raises ``BasisRealizationError`` rather
    than silently truncating imaginary parts.
    """
    n, r = spectrum.n, spectrum.r
    pairs = spectrum._pairs
    # the grid points computed: the pair representatives of a real twist
    points = slice(None) if pairs is None else pairs.reps
    eig = spectrum.eigenvalues[points]
    untwist = spectrum.untwist
    # row c of R_r is the transform of e_m, m = N − r + c; e^{iα₀m} is the
    # conjugate of untwist[m]
    phase = np.conj(untwist[n - r :])
    # matrices over the grid are held one column per row (r×N); a real
    # twist's U_r is computed on the representatives, in place in the
    # full-grid array, and completed there
    l_rows = _fourier_columns(n, r)[:, points] * phase[:, None]
    l_rows /= eig
    if pairs is None:
        q, rhat = _cgs2(l_rows)
        u_r = q
    else:
        u_r = np.empty((r, n), dtype=complex)
        q = u_r[:, points]
        rhat = pairs.cgs2(pairs.make_real(l_rows), q)

    if spectrum.mode == "compensated":
        o_r = scipy.linalg.solve_triangular(rhat, np.eye(r, dtype=rhat.dtype))
        # column c of R_r·Φ·O_r equals (1/√N)·p_c(z_k) on the unrotated
        # grid, with p_c(z) = Σ_j Φ_j·O_r[j,c]·z^{r+1−j}.  On a real twist
        # Φ_j·z_k^{r+1−j} = e^{iα₀N}·ω_k^{r+1−j} with e^{iα₀N} = ±1, so it is
        # ±(1/√N)·p_c(ω_k) on the rotated grid with the real coefficients
        # O_r[j,c]: exactly conjugate-symmetric, where rounded phases would
        # break the symmetry by an error that O_r amplifies.  B overwrites Q
        if pairs is None:
            z_grid, weights, scale = _unit_grid(n), phase, np.sqrt(n)
        else:
            z_grid = _rotated_grid(n, float(spectrum.alpha0))[points]
            weights, scale = 1.0, pairs.twist * np.sqrt(n)
        for c in range(r):
            poly = np.zeros(r + 1, dtype=o_r.dtype)
            poly[1:] = (o_r[:, c] * weights)[::-1]  # power m carries row r+1−m
            np.divide(_comp_horner(poly, z_grid), scale, out=q[c])
        q /= eig
        if pairs is not None:
            pairs.make_real(q)
    if pairs is not None:
        pairs.complete(u_r)

    # in place, which saves an r×N block per basis (``out=`` needs NumPy 2)
    z_c = np.fft.ifft(u_r, axis=1, norm="ortho", out=u_r)
    np.multiply(untwist, z_c, out=z_c)
    imag = _norm2(z_c.imag)
    tol = _IMAG_TOL[spectrum.mode]
    if imag <= min(_SQRT_U, tol):
        z, defect = np.ascontiguousarray(z_c.real).T, imag
    else:
        z, defect = _realize_basis(z_c, tol)
        z = np.asfortranarray(z)
    return SubspaceBasis(z, defect)


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
    runs over a contiguous line; F̂ is returned N×r in C order.  When the
    spectrum's twist is real the whole solve is real, so row k carries
    columns 2k and 2k + 1 of M as real and imaginary parts, and F̂ reads
    them back from the real and imaginary parts of the result.
    """
    values = _series_values(s)
    n, r = spectrum.n, spectrum.r
    if values.size != n:
        raise ValueError(f"series length {values.size} does not match grid size {n}")
    if not 1 <= tau <= r + 1:
        raise ValueError(f"tau={tau} out of range 1..{r + 1}")

    # column c of M is −(window of S at offset j), j the c-th index of K(τ);
    # it goes to row c // step, in the imaginary part for odd c when two
    # columns share a row
    step = 2 if spectrum.real_twist else 1
    m_ext = np.zeros((-(-r // step), n), dtype=complex)
    for c, j in enumerate(j for j in range(r + 1) if j != tau - 1):
        row = m_ext[c // step]
        part = row.imag if c % step else row.real
        np.negative(values[j : j + n - r], out=part[: n - r])
    untwist = spectrum.untwist
    m_ext[:, : n - r] *= np.conj(untwist[: n - r])
    y = np.fft.fft(m_ext, axis=1, norm="ortho")
    y /= spectrum.eigenvalues
    fhat = np.fft.ifft(y, axis=1, norm="ortho")
    np.multiply(untwist, fhat, out=fhat)
    if step == 1:
        return np.ascontiguousarray(fhat.real.T)
    out = np.empty((n, r))
    out[:, 0::2] = fhat.real.T
    out[:, 1::2] = fhat.imag[: r // 2].T
    return out
