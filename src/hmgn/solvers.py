"""Gauss-Newton solvers for weighted low-rank series approximation.

Two iteration families minimize ‖X − S‖_W over series of rank at most r,
parameterized locally by the free GLRR coefficients ȧ:

* the image-space family ("mgn"/"s-mgn") eliminates the boundary values of
  the explicit parameterization and drives the free coefficients with the
  right-hand-side solve of :func:`hmgn.nullspace.fhat_matrix`;
* the kernel-space family ("vpgn"/"s-vpgn") is classic variable projection,
  with the Jacobian assembled from one banded Gram factorization per step.

The "s-" prefix selects compensated-Horner spectra and basis construction;
the plain variants run the same iterations in ordinary double precision.

The line search backtracks γ = 1, 1/2, …, 2⁻¹⁶ accepting the first
non-increase of the weighted objective.  Once the full step changes the
signal by less than ζ in relative norm, objective comparisons are dominated
by evaluation noise, so the iteration switches to comparing parameter-step
norms: a shrinking step is taken outright, a non-shrinking one stops the
run ("SmallStepStop").  Exhausting the backtracking grid stops with
"StepZero"; the iteration cap reports "MaxIter".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .nullspace import (
    RotatedSpectrum,
    fhat_matrix,
    nullspace_basis,
    rotated_spectrum,
)
from .projection import (
    GammaFactor,
    project_gamma,
    vp_jacobian,
    weighted_pinv_apply,
)
from .series import (
    GlrrVector,
    TimeSeries,
    as_time_series,
    embed,
    glrr_residual,
    h_tau,
    normalize_glrr,
)
from .weights import Identity, Masked, WeightSpec, mask_missing, weighted_norm

__all__ = [
    "SolverConfig",
    "IterationRecord",
    "SolverTrace",
    "FitResult",
    "METHODS",
    "initial_glrr",
    "mgn_step",
    "vpgn_step",
    "line_search",
    "fit",
]

METHODS = ("mgn", "s-mgn", "vpgn", "s-vpgn")

#: realization tolerance handed to the basis construction by the solvers;
#: the plain variants are allowed a loose bound because their complex basis
#: is legitimately further from a real subspace at large N — that gap is the
#: phenomenon the compensated variants exist to remove, not a failure.
_IMAG_TOL = {"plain": 1e-2, "compensated": 1e-9}


@dataclass(frozen=True)
class SolverConfig:
    """Iteration controls shared by all four methods."""

    method: str = "s-mgn"
    max_iter: int = 200
    gamma_min_exponent: int = 16
    zeta: float = 5e-8
    retau_each_iter: bool = True

    def __post_init__(self):
        method = self.method.lower()
        if method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {METHODS}")
        object.__setattr__(self, "method", method)
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.gamma_min_exponent < 0:
            raise ValueError("gamma_min_exponent must be non-negative")
        if not self.zeta > 0:
            raise ValueError("zeta must be positive")

    @property
    def mode(self) -> str:
        """Arithmetic mode of the spectral machinery."""
        return "compensated" if self.method.startswith("s-") else "plain"

    @property
    def family(self) -> str:
        return "mgn" if self.method.endswith("mgn") else "vpgn"


@dataclass(frozen=True)
class IterationRecord:
    """One accepted or terminal iteration.

    ``adot`` is the base point the step was computed at; ``objective`` is
    ‖X − S_k‖_W there; ``glrr_rel_residual`` is ‖Qᵀ(a)S_k‖/‖a‖ for the full
    coefficient vector a = H_τ(ȧ).
    """

    tau: int
    adot: np.ndarray
    objective: float
    gamma: float
    glrr_rel_residual: float
    small_step: bool


@dataclass(frozen=True)
class SolverTrace:
    rows: Tuple[IterationRecord, ...]
    termination: str

    @property
    def objectives(self) -> np.ndarray:
        return np.array([row.objective for row in self.rows])

    @property
    def gammas(self) -> np.ndarray:
        return np.array([row.gamma for row in self.rows])

    def __len__(self) -> int:
        return len(self.rows)


@dataclass(frozen=True)
class FitResult:
    """Signal estimate with the GLRR it was driven to.

    ``signal`` is the projection at the last base point of the iteration;
    ``glrr`` the full coefficient vector after the final accepted update.
    They coincide except when the iteration cap cut the run mid-step.
    """

    signal: np.ndarray
    glrr: GlrrVector
    tau: int
    adot: np.ndarray
    trace: SolverTrace

    @property
    def glrr_rel_residual(self) -> float:
        a = self.glrr.coeffs
        return float(
            np.linalg.norm(glrr_residual(self.signal, a)) / np.linalg.norm(a)
        )

    @property
    def iterations(self) -> int:
        return len(self.trace)


def initial_glrr(x: Union[TimeSeries, np.ndarray], r: int) -> GlrrVector:
    """GLRR estimate from the smallest singular direction of T_{r+1}(x̃).

    Missing entries are imputed with the observed mean before embedding, so
    gapped series produce a usable starting vector.
    """
    ts = as_time_series(x)
    if r < 1:
        raise ValueError("rank must be at least 1")
    if ts.n < 2 * r + 2:
        raise ValueError(
            f"series of length {ts.n} too short to estimate a rank-{r} GLRR"
        )
    values = ts.values.copy()
    if not ts.mask.all():
        if not ts.mask.any():
            raise ValueError("series has no observed values")
        values[~ts.mask] = values[ts.mask].mean()
    traj = embed(values, r + 1)
    u, _, _ = np.linalg.svd(traj, full_matrices=False)
    return GlrrVector(u[:, -1])


def _basis_projector(
    w: WeightSpec, x: np.ndarray, mode: str, imag_tol: float
) -> Callable[[np.ndarray], np.ndarray]:
    def project(a_full: np.ndarray) -> np.ndarray:
        basis = nullspace_basis(a_full, x.shape[0], mode=mode, imag_tol=imag_tol)
        return weighted_pinv_apply(basis.z, w, x).projected

    return project


def mgn_step(
    adot: np.ndarray,
    tau: int,
    x: Union[TimeSeries, np.ndarray],
    w: WeightSpec,
    mode: str = "plain",
    imag_tol: Optional[float] = None,
    spectrum: Optional[RotatedSpectrum] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """One image-space Gauss-Newton direction at the base point (τ, ȧ).

    Returns (Δ, S_k) where S_k = Π_{Z(H_τ(ȧ)),W}x and Δ solves the weighted
    least-squares problem for the residual against (I − Π)F̂ with F̂ from
    the fast right-hand-side solve.  The rotated spectrum is computed once
    and shared between the basis and F̂.
    """
    values = as_time_series(x).values
    tol = _IMAG_TOL[mode] if imag_tol is None else imag_tol
    a_full = h_tau(adot, tau)
    if spectrum is None:
        spectrum = rotated_spectrum(a_full, values.shape[0], mode)
    basis = nullspace_basis(
        a_full, values.shape[0], mode=mode, spectrum=spectrum, imag_tol=tol
    )
    s_k = weighted_pinv_apply(basis.z, w, values).projected
    fhat = fhat_matrix(a_full, s_k, tau, mode=mode, spectrum=spectrum)
    deflated = fhat - weighted_pinv_apply(basis.z, w, fhat).projected
    delta = weighted_pinv_apply(deflated, w, values - s_k).coefficients
    return delta, s_k


def vpgn_step(
    adot: np.ndarray,
    tau: int,
    x: Union[TimeSeries, np.ndarray],
    w: WeightSpec,
    projection_mode: str = "gamma",
) -> Tuple[np.ndarray, np.ndarray]:
    """One variable-projection Gauss-Newton direction at (τ, ȧ).

    The Jacobian always runs through the banded Gram factorization; the
    signal projection uses the same factorization ("gamma") or the
    compensated basis ("basis"), matching the plain and stabilized variants.
    """
    if projection_mode not in ("gamma", "basis"):
        raise ValueError(f"unknown projection mode {projection_mode!r}")
    values = as_time_series(x).values
    a_full = h_tau(adot, tau)
    factor = GammaFactor(a_full, w)
    if projection_mode == "gamma":
        s_k = factor.kernel_projection(values)
    else:
        s_k = weighted_pinv_apply(
            nullspace_basis(
                a_full,
                values.shape[0],
                mode="compensated",
                imag_tol=_IMAG_TOL["compensated"],
            ).z,
            w,
            values,
        ).projected
    jac = vp_jacobian(a_full, tau, w, values, factor=factor)
    delta = weighted_pinv_apply(jac, w, values - s_k).coefficients
    return delta, s_k


def line_search(
    adot: np.ndarray,
    delta: np.ndarray,
    tau: int,
    x: Union[TimeSeries, np.ndarray],
    w: WeightSpec,
    prev_step_norm: Optional[float],
    config: SolverConfig,
    project: Callable[[np.ndarray], np.ndarray],
    iteration: int,
    s_current: Optional[np.ndarray] = None,
) -> Tuple[float, np.ndarray, bool]:
    """Step-size choice along Δ; returns (γ, next ȧ, small-step flag).

    ``project`` maps a full coefficient vector to the projected signal and
    is re-evaluated at every trial point.  γ = 0 with a False flag means the
    backtracking grid is exhausted; with a True flag it is the small-step
    stop verdict.
    """
    values = as_time_series(x).values
    if not np.all(np.isfinite(delta)):
        raise ValueError("non-finite search direction")
    if s_current is None:
        s_current = project(h_tau(adot, tau))

    s_full = project(h_tau(adot + delta, tau))
    change = np.linalg.norm(s_full - s_current)
    scale = np.linalg.norm(s_current)
    if change == 0.0:
        relative = 0.0
    elif scale == 0.0:
        relative = math.inf
    else:
        relative = change / scale

    if relative < config.zeta:
        if iteration == 0:
            return 1.0, adot + delta, True
        step = np.linalg.norm(delta)
        # an epsilon-scale step cannot shrink further in double precision
        negligible = step <= np.finfo(float).eps * (1.0 + np.linalg.norm(adot))
        shrinking = prev_step_norm is None or step < prev_step_norm
        if shrinking and not negligible:
            return 1.0, adot + delta, True
        return 0.0, adot.copy(), True

    objective = weighted_norm(w, values - s_current)
    gamma = 1.0
    for m in range(config.gamma_min_exponent + 1):
        trial = s_full if m == 0 else project(h_tau(adot + gamma * delta, tau))
        if weighted_norm(w, values - trial) <= objective:
            return gamma, adot + gamma * delta, False
        gamma *= 0.5
    return 0.0, adot.copy(), False


def fit(
    x: Union[TimeSeries, np.ndarray],
    r: Optional[int] = None,
    w: Optional[WeightSpec] = None,
    config: Optional[SolverConfig] = None,
    a0: Optional[Union[GlrrVector, np.ndarray, Sequence[float]]] = None,
) -> FitResult:
    """Run one solver to termination.

    Either ``r`` or an explicit starting GLRR ``a0`` fixes the rank.  A
    series with unobserved entries automatically masks the weights, so the
    objective ignores the gaps.  The kernel-space family needs W⁻¹ in banded
    form and therefore rejects masked weights.
    """
    ts = as_time_series(x)
    n = ts.n
    config = config or SolverConfig()

    if a0 is None:
        if r is None:
            raise ValueError("either a rank or a starting GLRR is required")
        start = initial_glrr(ts, r)
    else:
        start = a0 if isinstance(a0, GlrrVector) else GlrrVector(np.asarray(a0, dtype=float))
        if r is not None and start.order != r:
            raise ValueError(
                f"starting GLRR has order {start.order}, but rank {r} was requested"
            )

    w = Identity(n) if w is None else w
    if w.n != n:
        raise ValueError(f"weight dimension {w.n} does not match series length {n}")
    if ts.has_missing and not isinstance(w, Masked):
        w = mask_missing(w, ts.mask)

    mode = config.mode
    norm0 = normalize_glrr(start.coeffs)
    tau, adot = norm0.tau, norm0.adot

    def project(a_full: np.ndarray) -> np.ndarray:
        if config.family == "mgn":
            basis = nullspace_basis(a_full, n, mode=mode, imag_tol=_IMAG_TOL[mode])
            return weighted_pinv_apply(basis.z, w, ts.values).projected
        if config.method == "vpgn":
            return project_gamma(a_full, w, ts.values)
        return weighted_pinv_apply(
            nullspace_basis(
                a_full, n, mode="compensated", imag_tol=_IMAG_TOL["compensated"]
            ).z,
            w,
            ts.values,
        ).projected

    rows: List[IterationRecord] = []
    termination = "MaxIter"
    prev_step_norm: Optional[float] = None
    signal = None

    for k in range(config.max_iter):
        if k > 0 and config.retau_each_iter:
            renorm = normalize_glrr(h_tau(adot, tau))
            tau, adot = renorm.tau, renorm.adot

        if config.family == "mgn":
            delta, s_k = mgn_step(adot, tau, ts, w, mode=mode)
        else:
            delta, s_k = vpgn_step(
                adot, tau, ts, w,
                projection_mode="gamma" if config.method == "vpgn" else "basis",
            )

        signal = s_k
        a_full = h_tau(adot, tau)
        objective = weighted_norm(w, ts.values - s_k)
        rel_residual = float(
            np.linalg.norm(glrr_residual(s_k, a_full)) / np.linalg.norm(a_full)
        )

        gamma, adot_next, small = line_search(
            adot, delta, tau, ts, w, prev_step_norm, config, project, k, s_current=s_k
        )
        rows.append(
            IterationRecord(
                tau=tau,
                adot=adot.copy(),
                objective=objective,
                gamma=gamma,
                glrr_rel_residual=rel_residual,
                small_step=small,
            )
        )
        if gamma == 0.0:
            termination = "SmallStepStop" if small else "StepZero"
            break
        prev_step_norm = float(np.linalg.norm(adot_next - adot))
        adot = adot_next

    final_full = h_tau(adot, tau)
    return FitResult(
        signal=np.asarray(signal),
        glrr=GlrrVector(final_full),
        tau=tau,
        adot=adot,
        trace=SolverTrace(rows=tuple(rows), termination=termination),
    )
