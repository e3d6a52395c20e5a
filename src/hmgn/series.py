"""Time-series values, Hankel embedding, and linear-recurrence algebra.

A length-N real series S satisfies a generalized linear recurrence relation
(GLRR) with coefficient vector a ∈ R^{r+1}, a ≠ 0, when aᵀ T_{r+1}(S) = 0,
where T_L(S) is the L×(N−L+1) trajectory (Hankel) matrix of lagged windows.
Unlike an ordinary LRR, the leading/trailing coefficients may vanish.  The
set of series annihilated by GLRR(a) is the r-dimensional subspace

    Z(a) = {S : Qᵀ(a) S = 0},

with Q(a) the N×(N−r) banded matrix whose columns are shifted copies of a.

This module provides the embedding, the GLRR residual Qᵀ(a)S, the products
with Q(a) and Qᵀ(a), the (τ, ȧ) pivot normalization used by the solvers,
the acyclic self-convolution a² whose GLRR defines tangent spaces, and
generators for finite-rank model signals (damped/modulated sinusoids times
polynomials).

Indices in docstrings are 1-based to match standard series notation; all
stored indices follow the same convention (``tau`` is 1-based).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence, Union

import numpy as np

__all__ = [
    "TimeSeries",
    "GlrrVector",
    "NormalizedGlrr",
    "ModelComponent",
    "as_time_series",
    "embed",
    "glrr_residual",
    "apply_q_transpose",
    "apply_q",
    "acyclic_self_convolution",
    "normalize_glrr",
    "h_tau",
    "generate_model_signal",
    "model_rank",
    "read_series_csv",
    "write_series_csv",
]

ArrayLike = Union[np.ndarray, Sequence[float]]


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """A real-valued series with an observation mask.

    Compared and hashed by identity (``eq=False``): a field-wise ``==``
    would compare arrays and raise instead of returning a bool.

    Parameters
    ----------
    values : array, shape (N,)
        Series values.  Non-finite entries are treated as missing: they are
        replaced by 0.0 in storage and marked unobserved in ``mask``.
    mask : bool array, shape (N,), optional
        True marks an observed entry.  Defaults to "observed wherever the
        input value is finite".  Values at unobserved positions are ignored
        by every objective evaluation in this package.
    """

    values: np.ndarray
    mask: np.ndarray = None  # type: ignore[assignment]

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float).reshape(-1)
        if values.size < 1:
            raise ValueError("a series needs at least one value")
        finite = np.isfinite(values)
        if self.mask is None:
            mask = finite
        else:
            mask = np.asarray(self.mask, dtype=bool).reshape(-1)
            if mask.shape != values.shape:
                raise ValueError(
                    f"mask length {mask.size} does not match series length {values.size}"
                )
            mask = mask & finite
        values = np.where(mask, values, 0.0)
        values.flags.writeable = False
        mask.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "mask", mask)

    @property
    def n(self) -> int:
        return self.values.size

    @property
    def has_missing(self) -> bool:
        return not bool(self.mask.all())


def as_time_series(x: Union[TimeSeries, ArrayLike]) -> TimeSeries:
    """Coerce an array-like (or pass through a TimeSeries) to TimeSeries."""
    if isinstance(x, TimeSeries):
        return x
    return TimeSeries(np.asarray(x, dtype=float))


@dataclass(frozen=True, eq=False)
class GlrrVector:
    """Coefficient vector a ∈ R^{r+1} of a generalized LRR of order r.

    Compared and hashed by identity (``eq=False``): a field-wise ``==``
    would compare arrays and raise instead of returning a bool.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        coeffs = _glrr_coeffs(self.coeffs)
        coeffs.flags.writeable = False
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def order(self) -> int:
        return self.coeffs.size - 1


def _glrr_coeffs(a: Union[GlrrVector, ArrayLike]) -> np.ndarray:
    """Extract a validated coefficient array from a GlrrVector or array-like:
    length ≥ 2, finite, not all zero."""
    if isinstance(a, GlrrVector):
        return a.coeffs
    coeffs = np.asarray(a, dtype=float).reshape(-1)
    if coeffs.size < 2:
        raise ValueError("a GLRR coefficient vector needs length >= 2")
    if not np.all(np.isfinite(coeffs)):
        raise ValueError("GLRR coefficients must be finite")
    if not np.any(coeffs != 0.0):
        raise ValueError("GLRR coefficients must not be all zero")
    return coeffs


@dataclass(frozen=True, eq=False)
class NormalizedGlrr:
    """Pivot form of a GLRR vector: a = H_τ(ȧ) has −1 at position τ.

    ``tau`` is 1-based; ``adot`` holds the remaining r coefficients in order.

    Compared and hashed by identity (``eq=False``): a field-wise ``==``
    would compare arrays and raise instead of returning a bool.
    """

    tau: int
    adot: np.ndarray

    def __post_init__(self):
        adot = np.asarray(self.adot, dtype=float).reshape(-1)
        if not 1 <= self.tau <= adot.size + 1:
            raise ValueError(f"tau={self.tau} out of range 1..{adot.size + 1}")
        adot.flags.writeable = False
        object.__setattr__(self, "adot", adot)

    @property
    def order(self) -> int:
        return self.adot.size

    def full(self) -> np.ndarray:
        """Reconstruct the full coefficient vector H_τ(ȧ)."""
        return h_tau(self.adot, self.tau)


# ---------------------------------------------------------------------------
# Embedding and GLRR algebra
# ---------------------------------------------------------------------------


def embed(series: Union[TimeSeries, ArrayLike], L: int) -> np.ndarray:
    """Trajectory matrix T_L(S): the L×(N−L+1) Hankel matrix of lagged windows.

    Entry (i, j) equals s_{i+j−1} (1-based), so every anti-diagonal is
    constant.

    Parameters
    ----------
    series : TimeSeries or array
        Input series of length N.
    L : int
        Window length, 1 ≤ L ≤ N.
    """
    x = as_time_series(series).values
    n = x.size
    if not 1 <= L <= n:
        raise ValueError(f"window length L={L} out of range 1..{n}")
    # sliding_window_view yields the (N-L+1)×L matrix of windows; transpose.
    return np.lib.stride_tricks.sliding_window_view(x, L).T.copy()


def apply_q_transpose(b: ArrayLike, x: np.ndarray) -> np.ndarray:
    """Compute Qᵀ(b)·x without materializing Q (sliding correlation).

    ``x`` may be a vector of length M or a matrix M×m (columnwise).  The
    result has length M−d where d+1 = len(b).
    """
    b = np.asarray(b, dtype=float).reshape(-1)
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        return np.correlate(x, b, mode="valid")
    return np.stack(
        [np.correlate(x[:, j], b, mode="valid") for j in range(x.shape[1])], axis=1
    )


def apply_q(b: ArrayLike, v: np.ndarray) -> np.ndarray:
    """Compute Q(b)·v without materializing Q (full convolution).

    ``v`` may be a vector of length M−d or a matrix (columnwise); the result
    has length M = len(v) + d.
    """
    b = np.asarray(b, dtype=float).reshape(-1)
    v = np.asarray(v, dtype=float)
    if v.ndim == 1:
        return np.convolve(v, b, mode="full")
    return np.stack(
        [np.convolve(v[:, j], b, mode="full") for j in range(v.shape[1])], axis=1
    )


def glrr_residual(
    series: Union[TimeSeries, ArrayLike], a: Union[GlrrVector, ArrayLike]
) -> np.ndarray:
    """Residual Qᵀ(a)·S of the recurrence: component i is Σ_j a_j s_{i+j−1}.

    Zero exactly when the series lies in Z(a).
    """
    coeffs = _glrr_coeffs(a)
    x = as_time_series(series).values
    if coeffs.size > x.size:
        raise ValueError(
            f"GLRR order {coeffs.size - 1} too large for series of length {x.size}"
        )
    return apply_q_transpose(coeffs, x)


def acyclic_self_convolution(a: Union[GlrrVector, ArrayLike]) -> np.ndarray:
    """Coefficients a² of g_a(z)², a GLRR vector of order 2r.

    The GLRR defined by a² annihilates the tangent space of the rank-r
    variety at any point governed by GLRR(a).
    """
    coeffs = _glrr_coeffs(a)
    return np.convolve(coeffs, coeffs)


# ---------------------------------------------------------------------------
# Pivot normalization
# ---------------------------------------------------------------------------


def normalize_glrr(a: Union[GlrrVector, ArrayLike]) -> NormalizedGlrr:
    """Normalize a GLRR vector to pivot form (τ, ȧ).

    τ = argmax_i |a_i| (smallest index on ties, for reproducibility), the
    vector is rescaled so the pivot entry becomes −1, and the pivot is
    dropped.  The reconstructed H_τ(ȧ) is collinear with a and has all
    entries in [−1, 1].
    """
    coeffs = _glrr_coeffs(a)
    tau = int(np.argmax(np.abs(coeffs)))  # np.argmax returns the first maximum
    scale = -1.0 / coeffs[tau]
    scaled = scale * coeffs
    adot = np.delete(scaled, tau)
    return NormalizedGlrr(tau + 1, adot)


def h_tau(adot: ArrayLike, tau: int) -> np.ndarray:
    """Embed ȧ ∈ Rʳ into R^{r+1} by inserting −1 at (1-based) position τ."""
    adot = np.asarray(adot, dtype=float).reshape(-1)
    if not 1 <= tau <= adot.size + 1:
        raise ValueError(f"tau={tau} out of range 1..{adot.size + 1}")
    return np.insert(adot, tau - 1, -1.0)


# ---------------------------------------------------------------------------
# Finite-rank model signals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModelComponent:
    """One term P(n)·exp(α n)·sin(2π ω n + φ) of a finite-rank signal.

    ``poly`` holds the coefficients of P in ascending powers of n; its
    degree is len(poly) − 1.  Frequencies are cycles per step, 0 ≤ ω ≤ 0.5.
    """

    poly: tuple = (1.0,)
    alpha: float = 0.0
    omega: float = 0.0
    phi: float = 0.0

    def __post_init__(self):
        poly = tuple(float(c) for c in self.poly)
        if len(poly) == 0 or not any(c != 0.0 for c in poly):
            raise ValueError("component polynomial must be nonzero")
        object.__setattr__(self, "poly", poly)
        if not 0.0 <= self.omega <= 0.5:
            raise ValueError(f"frequency omega={self.omega} outside [0, 0.5]")


def _check_components(components: Iterable[ModelComponent]) -> list:
    comps = list(components)
    if not comps:
        raise ValueError("at least one model component is required")
    seen = set()
    for c in comps:
        key = (float(c.alpha), float(c.omega))
        if key in seen:
            raise ValueError(f"duplicate (alpha, omega) pair {key}")
        seen.add(key)
        if c.omega in (0.0, 0.5) and math.sin(c.phi) == 0.0:
            # At the boundary frequencies sin(2πωn + φ) degenerates to
            # ±sin(φ); φ with sin(φ)=0 would silently zero the component
            # and break the rank formula, so reject it outright.
            raise ValueError(
                f"degenerate phase phi={c.phi} for boundary frequency omega={c.omega}"
            )
    return comps


def model_rank(components: Iterable[ModelComponent]) -> int:
    """Rank of the generated signal: Σ_k (deg P_k + 1)·r_k.

    r_k = 2 for interior frequencies 0 < ω < 0.5 and 1 at the boundary
    values ω ∈ {0, 0.5}.
    """
    comps = _check_components(components)
    total = 0
    for c in comps:
        r_k = 2 if 0.0 < c.omega < 0.5 else 1
        total += len(c.poly) * r_k
    return total


def generate_model_signal(
    components: Iterable[ModelComponent], N: int
) -> TimeSeries:
    """Generate s_n = Σ_k P_k(n)·exp(α_k n)·sin(2π ω_k n + φ_k), n = 1..N."""
    comps = _check_components(components)
    if N < 1:
        raise ValueError("N must be positive")
    n = np.arange(1, N + 1, dtype=float)
    s = np.zeros(N)
    for c in comps:
        p = np.zeros(N)
        for k, coef in enumerate(c.poly):
            p += coef * n**k
        s += p * np.exp(c.alpha * n) * np.sin(2.0 * np.pi * c.omega * n + c.phi)
    return TimeSeries(s)


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------


def read_series_csv(path: Union[str, Path]) -> TimeSeries:
    """Read a single-column CSV ("value", optional header) into a TimeSeries.

    Empty cells and NaN entries mark missing observations.
    """
    raw = []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if not row:
                continue
            raw.append(row[0].strip())
    if not raw:
        raise ValueError(f"no rows found in {path}")
    start = 0
    try:
        float(raw[0]) if raw[0] else None
    except ValueError:
        start = 1  # header row
    values = []
    for cell in raw[start:]:
        if cell == "" or cell.lower() == "nan":
            values.append(np.nan)
        else:
            values.append(float(cell))
    if not values:
        raise ValueError(f"no data rows found in {path}")
    return TimeSeries(np.asarray(values))


def write_series_csv(path: Union[str, Path], series: TimeSeries) -> None:
    """Write a TimeSeries as a single-column CSV with a "value" header.

    Missing entries are written as empty cells, so a read/write round trip
    preserves both values and mask.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["value"])
        for v, m in zip(series.values, series.mask):
            writer.writerow([repr(float(v))] if m else [""])
