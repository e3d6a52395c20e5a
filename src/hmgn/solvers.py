"""Gauss-Newton solvers for weighted low-rank series approximation.

Two iteration families minimize ‖X − S‖_W over series of rank at most r,
parameterized locally by the free GLRR coefficients ȧ:

* the image-space family ("mgn"/"s-mgn") eliminates the boundary values of
  the explicit parameterization and drives the free coefficients with the
  right-hand-side solve of :func:`hmgn.nullspace.fhat_matrix`;
* the kernel-space family ("vpgn"/"s-vpgn") is classic variable projection,
  with the Jacobian assembled from one banded Gram factorization per step.
  The step solves its least squares on the design whitened by Ĉ, the
  banded factor of W⁻¹ = ĈᵀĈ: ĈK, where J = W⁻¹K, so J itself is never
  formed (see :mod:`hmgn.projection`).

The "s-" prefix selects compensated-Horner spectra and basis construction;
the plain variants run the same iterations in ordinary double precision.

The line search backtracks γ = 1, 1/2, …, 2⁻¹⁶ accepting the first
non-increase of the weighted objective.  Once the full step changes the
signal by less than ζ in relative norm, objective comparisons are dominated
by evaluation noise, so the iteration switches to comparing parameter-step
norms: a shrinking step is taken outright, a non-shrinking one stops the
run ("SmallStepStop").  For the same reason backtracking ends at the noise
floor: with ρ the relative signal change of the full step, no trial is
built once γ·ρ < ζ (the minimum step length of Dennis & Schnabel,
*Numerical Methods for Unconstrained Optimization and Nonlinear Equations*,
1983, Alg. A6.3.1).  Reaching that floor, or exhausting the grid, stops
with "StepZero"; the iteration cap reports "MaxIter".

The pivot τ is sticky: the iterate is re-normalized only once some free
coefficient exceeds the pivot's by more than a factor 2, that is
max|ȧᵢ| > 2, so ȧ lies in [−2, 2] rather than [−1, 1] and τ does not flip
between coefficients that are equal up to rounding.

What stays fixed within a fit is held once, in a per-fit problem: the
values x, the weight W, the arithmetic mode, the projection route (the Gram
route for plain "vpgn", the basis route in that mode for the other methods)
and, on the basis route, whiten(W, x).  All projections onto Z(a) share one
projector over that problem, and every projection it returns carries,
besides the signal Πx, the whitened residual whiten(W, x − Πx) and its
norm, the objective ‖x − Πx‖_W.  The line search compares a trial by that
objective, the fit records it and the step solves against the residual, so
each residual is whitened exactly once and x once per fit.

The accepted trial's projection is handed to the next step, so a base
point is projected once unless re-normalization moves the pivot τ.  Beyond
the residual and the objective, a handed-over projection carries:

* on the basis route, the rotated spectrum, the basis and the factor of the
  whitened basis, so that basis is factored once: the step deflates F̂ with
  the same factor, and one iteration factors two whitened designs, the
  trial's basis and the deflated F̂;
* on the Gram route, the factor of Γ(a) and g = Γ⁻¹Qᵀ(a)x, so the step's
  Jacobian solves Γ⁻¹ for its r columns only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .nullspace import (
    RotatedSpectrum,
    SubspaceBasis,
    fhat_matrix,
    nullspace_basis,
    rotated_spectrum,
)
from .projection import GammaFactor, _LstsqFactor, _vp_columns, project_gamma
from .series import (
    GlrrVector,
    TimeSeries,
    as_time_series,
    embed,
    glrr_residual,
    h_tau,
    normalize_glrr,
)
from .weights import Identity, WeightSpec, _norm2, mask_missing, whiten

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

#: the line search tries γ = 2⁻ᵐ for m = 0.._GAMMA_MIN_EXPONENT
_GAMMA_MIN_EXPONENT = 16

#: relative signal change below which objective comparisons give way to
#: comparing parameter-step norms, and below which no trial is built
_ZETA = 5e-8

#: largest max|ȧᵢ| that keeps the pivot; a power of two, so the test is exact
_PIVOT_SLACK = 2.0


@dataclass(frozen=True)
class SolverConfig:
    """Iteration controls shared by all four methods."""

    method: str = "s-mgn"
    max_iter: int = 200

    def __post_init__(self):
        method = self.method.lower()
        if method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {METHODS}")
        object.__setattr__(self, "method", method)
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")

    @property
    def mode(self) -> str:
        """Arithmetic mode of the spectral machinery."""
        return "compensated" if self.method.startswith("s-") else "plain"

    @property
    def family(self) -> str:
        return "mgn" if self.method.endswith("mgn") else "vpgn"


@dataclass(frozen=True, eq=False)
class IterationRecord:
    """One accepted or terminal iteration.

    ``adot`` is the base point the step was computed at; ``objective`` is
    ‖X − S_k‖_W there; ``glrr_rel_residual`` is ‖Qᵀ(a)S_k‖/‖a‖ for the full
    coefficient vector a = H_τ(ȧ); ``trials`` counts the projections the
    row's line search made.

    Compared and hashed by identity (``eq=False``): a field-wise ``==``
    would compare arrays and raise instead of returning a bool.
    """

    tau: int
    adot: np.ndarray
    objective: float
    gamma: float
    glrr_rel_residual: float
    small_step: bool
    trials: int


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


@dataclass(frozen=True, eq=False)
class FitResult:
    """Signal estimate with the GLRR it was driven to.

    ``signal`` is the projection at the last base point of the iteration;
    ``glrr`` the full coefficient vector after the final accepted update.
    They coincide except when the iteration cap cut the run mid-step.
    ``glrr`` is H_τ(ȧ) for the final (``tau``, ``adot``).  The pivot is
    sticky, so every base point in the trace has ȧ in [−2, 2] rather than
    [−1, 1]; the final ȧ is the last base point's, or one accepted update
    past it when the cap cut the run.

    Compared and hashed by identity (``eq=False``): a field-wise ``==``
    would compare arrays and raise instead of returning a bool.
    """

    signal: np.ndarray
    glrr: GlrrVector
    tau: int
    adot: np.ndarray
    trace: SolverTrace

    @property
    def glrr_rel_residual(self) -> float:
        a = self.glrr.coeffs
        return _norm2(glrr_residual(self.signal, a)) / float(np.linalg.norm(a))

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


@dataclass(frozen=True, eq=False)
class _Problem:
    """What stays fixed within one fit: the ``values`` x, the weight ``w``,
    the arithmetic ``mode``, the projection route (``gram`` for plain
    ``vpgn``, else the basis of Z(a)) and, on the basis route only,
    ``xw`` = whiten(W, x).

    Compared and hashed by identity (``eq=False``): a field-wise ``==``
    would compare arrays and raise instead of returning a bool.
    """

    values: np.ndarray
    w: WeightSpec
    mode: str
    gram: bool
    xw: Optional[np.ndarray]

    @classmethod
    def of(
        cls, x: Union[TimeSeries, np.ndarray], w: WeightSpec, config: SolverConfig
    ) -> _Problem:
        """The problem of fitting x under W with ``config``'s method."""
        values = as_time_series(x).values
        gram = config.method == "vpgn"
        return cls(values, w, config.mode, gram, None if gram else whiten(w, values))


@dataclass(frozen=True, eq=False)
class _Projection:
    """Π_{Z(a),W}x with the work that produced it.  Every projection
    carries ``residual_w`` = whiten(W, x − Πx) and its norm ``objective`` =
    ‖x − Πx‖_W; the basis route adds ``spectrum``, ``basis`` and the
    least-squares factor ``lstsq`` of the whitened basis, the Gram route
    ``factor`` and g = Γ⁻¹Qᵀ(a)x.

    Compared and hashed by identity (``eq=False``): a field-wise ``==``
    would compare arrays and raise instead of returning a bool.
    """

    signal: np.ndarray
    residual_w: np.ndarray
    objective: float
    spectrum: Optional[RotatedSpectrum] = None
    basis: Optional[SubspaceBasis] = None
    lstsq: Optional[_LstsqFactor] = None
    factor: Optional[GammaFactor] = None
    g: Optional[np.ndarray] = None


def _project(problem: _Problem, a_full: np.ndarray) -> _Projection:
    """The one projection onto Z(a) of the solvers.

    The Gram route projects through a new factor of Γ(a) and keeps the g it
    solved for; the basis route builds the basis of Z(a) in the problem's
    mode and factors it whitened once, for this projection and the step's
    F̂ solve.  Either way the residual is whitened here, once.
    """
    values, w = problem.values, problem.w
    if problem.gram:
        factor = GammaFactor(a_full, w)
        signal, g = project_gamma(factor, values)
        route = dict(factor=factor, g=g)
    else:
        spectrum = rotated_spectrum(a_full, values.shape[0], problem.mode)
        basis = nullspace_basis(spectrum)
        lstsq = _LstsqFactor(whiten(w, basis.z))
        signal = basis.z @ lstsq.solve(problem.xw)
        route = dict(spectrum=spectrum, basis=basis, lstsq=lstsq)
    residual_w = whiten(w, values - signal)
    return _Projection(signal, residual_w, _norm2(residual_w), **route)


def mgn_step(
    problem: _Problem, adot: np.ndarray, tau: int, at: Optional[_Projection] = None
) -> Tuple[np.ndarray, _Projection]:
    """One image-space Gauss-Newton direction at the base point (τ, ȧ).

    Returns (Δ, the projection at the base point), whose signal is
    S_k = Π_{Z(H_τ(ȧ)),W}x.  Δ solves the weighted least-squares problem
    for the residual against (I − Π)F̂ with F̂ from the fast right-hand-side
    solve.  The rotated spectrum is shared between the basis and F̂, and the
    factor of the whitened basis serves both the projection and the
    deflation of F̂.  ``at`` is the projection at this base point that
    ``line_search`` returned; without it the step projects afresh.
    """
    if at is None:
        at = _project(problem, h_tau(adot, tau))
    w = problem.w
    fhat = fhat_matrix(at.spectrum, at.signal, tau)
    deflated = fhat - at.basis.z @ at.lstsq.solve(whiten(w, fhat))
    return _LstsqFactor(whiten(w, deflated)).solve(at.residual_w), at


def vpgn_step(
    problem: _Problem, adot: np.ndarray, tau: int, at: Optional[_Projection] = None
) -> Tuple[np.ndarray, _Projection]:
    """One variable-projection Gauss-Newton direction at (τ, ȧ).

    Returns (Δ, the projection at the base point).  The Jacobian always
    runs through the banded Gram factorization.  The signal projection
    shares that factorization in plain mode and uses the compensated basis
    in compensated mode; either way the Jacobian reads Πx from it.  Δ solves
    the least squares on the design whitened by Ĉ, ĈK with J = W⁻¹K,
    against the whitened residual, from one batched Γ⁻¹ solve of the r
    columns; g = Γ⁻¹Qᵀ(a)x comes from a Gram-route projection and is solved
    for only on the compensated route.  ``at`` is the projection at this
    base point that ``line_search`` returned; without it the step projects
    afresh.
    """
    a_full = h_tau(adot, tau)
    if at is None:
        at = _project(problem, a_full)
    factor = GammaFactor(a_full, problem.w) if at.factor is None else at.factor
    # one expression, so the unwhitened columns are freed before the factoring
    design = factor.apply_chat(_vp_columns(factor, tau, problem.values, at.signal, at.g))
    return _LstsqFactor(design).solve(at.residual_w), at


def line_search(
    problem: _Problem,
    adot: np.ndarray,
    delta: np.ndarray,
    tau: int,
    s_current: np.ndarray,
    objective: float,
    prev_step_norm: Optional[float],
) -> Tuple[float, np.ndarray, bool, Optional[_Projection], int]:
    """Step-size choice along Δ; returns (γ, next ȧ, small-step flag,
    projection at the next ȧ for the next step to reuse, trials made).

    ``s_current`` is the projected signal at the base point and ``objective``
    its ‖x − s_current‖_W, which trials must not exceed.  ``prev_step_norm``
    is the norm of the previous accepted step, ``None`` on the first
    iteration.  γ = 0 with a False flag means backtracking reached the noise
    floor γ·ρ < ζ or exhausted the grid; with a True flag it is the
    small-step stop verdict.  Either way no projection is returned.
    """
    delta = np.asarray(delta, dtype=float)
    if not np.isfinite(delta).all():
        raise ValueError("non-finite search direction")

    trial = _project(problem, h_tau(adot + delta, tau))
    change = _norm2(trial.signal - s_current)
    scale = _norm2(s_current)
    if change == 0.0:
        relative = 0.0
    elif scale == 0.0:
        relative = math.inf
    else:
        relative = change / scale

    if relative < _ZETA:
        if prev_step_norm is None:  # first iteration
            return 1.0, adot + delta, True, trial, 1
        # √(v·v) is how np.linalg.norm takes the norm of a real vector
        step = math.sqrt(delta.dot(delta))
        # an epsilon-scale step cannot shrink further in double precision
        negligible = step <= np.finfo(float).eps * (1.0 + math.sqrt(adot.dot(adot)))
        shrinking = step < prev_step_norm
        if shrinking and not negligible:
            return 1.0, adot + delta, True, trial, 1
        return 0.0, adot.copy(), True, None, 1

    gamma = 1.0
    for m in range(_GAMMA_MIN_EXPONENT + 1):
        if m > 0:
            trial = None  # release the rejected trial before building the next
            if gamma * relative < _ZETA:  # a change this small is evaluation noise
                return 0.0, adot.copy(), False, None, m
            trial = _project(problem, h_tau(adot + gamma * delta, tau))
        if trial.objective <= objective:
            return gamma, adot + gamma * delta, False, trial, m + 1
        gamma *= 0.5
    return 0.0, adot.copy(), False, None, _GAMMA_MIN_EXPONENT + 1


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
    objective ignores the gaps; a weight already masked by the caller keeps
    only the positions observed under both masks.  The kernel-space family
    needs W⁻¹ in banded form and therefore rejects masked weights.

    The fit ends "StepZero" when backtracking reaches the noise floor
    γ·ρ < ζ or γ = 2⁻¹⁶ without a non-increase, "SmallStepStop" when a step
    whose signal change is below ζ no longer shrinks, and "MaxIter" at the
    cap.  The pivot τ moves only when max|ȧᵢ| > 2, so the iterates ȧ lie
    in [−2, 2].
    """
    ts = as_time_series(x)
    n = ts.n
    config = config or SolverConfig()

    if a0 is None:
        if r is None:
            raise ValueError("either a rank or a starting GLRR is required")
        start = initial_glrr(ts, r)
    else:
        start = a0 if isinstance(a0, GlrrVector) else GlrrVector(a0)
        if r is not None and start.order != r:
            raise ValueError(
                f"starting GLRR has order {start.order}, but rank {r} was requested"
            )

    w = Identity(n) if w is None else w
    if w.n != n:
        raise ValueError(f"weight dimension {w.n} does not match series length {n}")
    if ts.has_missing:  # intersects a caller's mask with the gaps
        w = mask_missing(w, ts.mask)

    step = mgn_step if config.family == "mgn" else vpgn_step
    tau, adot = normalize_glrr(start.coeffs)
    problem = _Problem.of(ts, w, config)

    rows: List[IterationRecord] = []
    termination = "MaxIter"
    prev_step_norm: Optional[float] = None
    signal = None
    at: Optional[_Projection] = None

    for k in range(config.max_iter):
        # some |ȧᵢ| > 2 exceeds the pivot's 1, so re-normalizing moves τ
        if k > 0 and np.max(np.abs(adot)) > _PIVOT_SLACK:
            tau, adot = normalize_glrr(h_tau(adot, tau))
            at = None

        delta, at = step(problem, adot, tau, at)
        signal, objective = at.signal, at.objective
        at = None  # consumed: keep its basis or factor out of the line search
        a_full = h_tau(adot, tau)
        rel_residual = _norm2(glrr_residual(signal, a_full)) / math.sqrt(a_full.dot(a_full))

        gamma, adot_next, small, at, trials = line_search(
            problem, adot, delta, tau, signal, objective, prev_step_norm
        )
        rows.append(
            IterationRecord(
                tau=tau,
                adot=adot.copy(),
                objective=objective,
                gamma=gamma,
                glrr_rel_residual=rel_residual,
                small_step=small,
                trials=trials,
            )
        )
        if gamma == 0.0:
            termination = "SmallStepStop" if small else "StepZero"
            break
        step_taken = adot_next - adot
        prev_step_norm = math.sqrt(step_taken.dot(step_taken))
        adot = adot_next

    final_full = h_tau(adot, tau)
    return FitResult(
        signal=np.asarray(signal),
        glrr=GlrrVector(final_full),
        tau=tau,
        adot=adot,
        trace=SolverTrace(rows=tuple(rows), termination=termination),
    )
