"""Benchmark problem constructions.

The known-minimum family provides an observed series whose global minimizer
over rank-3 series is known exactly: the quadratic signal on an equidistant
grid.  The observation error is built orthogonal to the tangent space of the
rank manifold at that signal, which makes the quadratic a stationary point
by construction, so solver output can be compared against ground truth at
any length.

The gapped preset is a small rank-4 two-exponential series with seeded
relative noise and two blocks of missing values, exercising the masked
objective end to end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .series import GlrrVector, ModelComponent, TimeSeries, generate_model_signal

__all__ = [
    "KnownMinimumProblem",
    "build_known_minimum",
    "legendre_values",
    "two_tone_signal",
    "GAPPED_PRESET_GAPS",
    "gapped_preset",
    "parse_gap_ranges",
    "apply_gaps",
    "add_relative_noise",
    "PRESETS",
]

#: GLRR annihilating quadratics: third finite difference
_A_STAR = (1.0, -3.0, 3.0, -1.0)

#: degree of the tangent space of the rank-3 manifold at the quadratic:
#: the squared GLRR annihilates polynomials up to degree 5
_TANGENT_DEGREE = 5


@dataclass(frozen=True, eq=False)
class KnownMinimumProblem:
    """Observed series with an exactly known rank-3 minimizer.

    ``tangent_basis`` holds the orthonormalized polynomial tangent basis the
    construction projected the noise out of; it doubles as the certificate
    basis for stationarity checks.

    Compared and hashed by identity (``eq=False``): a field-wise ``==``
    would compare arrays and raise instead of returning a bool.
    """

    x: TimeSeries
    y_star: TimeSeries
    a_star: GlrrVector
    tangent_basis: np.ndarray

    @property
    def n(self) -> int:
        return self.x.n


def legendre_values(grid: np.ndarray, max_degree: int) -> np.ndarray:
    """Legendre polynomial values P_0..P_max_degree at the grid points.

    Three-term recurrence (k+1)P_{k+1} = (2k+1)xP_k − kP_{k−1}, columnwise.
    """
    grid = np.asarray(grid, dtype=float)
    cols = [np.ones_like(grid)]
    if max_degree >= 1:
        cols.append(grid.copy())
    for k in range(1, max_degree):
        cols.append(((2 * k + 1) * grid * cols[k] - k * cols[k - 1]) / (k + 1))
    return np.column_stack(cols)


def build_known_minimum(n: int) -> KnownMinimumProblem:
    """Observed series X = Y* + (N̂ − ΠN̂) on the equidistant [−1,1] grid.

    Y* is the unit-norm quadratic, N̂ the unit-norm absolute-value series,
    and Π the orthogonal projection onto polynomials of degree ≤ 5 sampled
    on the grid — the tangent space of the rank manifold at Y*.
    """
    if n < 13:
        raise ValueError(
            f"need at least 13 points for a well-posed problem, got {n}"
        )
    grid = np.linspace(-1.0, 1.0, n)
    y_star = grid * grid
    y_star = y_star / np.linalg.norm(y_star)
    nhat = np.abs(grid)
    nhat = nhat / np.linalg.norm(nhat)
    basis, _ = np.linalg.qr(legendre_values(grid, _TANGENT_DEGREE))
    noise = nhat - basis @ (basis.T @ nhat)
    return KnownMinimumProblem(
        x=TimeSeries(y_star + noise),
        y_star=TimeSeries(y_star),
        a_star=GlrrVector(np.array(_A_STAR)),
        tangent_basis=basis,
    )


# ---------------------------------------------------------------------------
# gapped rank-4 preset
# ---------------------------------------------------------------------------

#: 1-based inclusive gap blocks of the preset
GAPPED_PRESET_GAPS: Tuple[Tuple[int, int], ...] = ((10, 19), (35, 39))


def two_tone_signal(n: int = 50) -> np.ndarray:
    """Rank-4 test signal 0.9ⁿcos(πn/5) + 0.2·1.05ⁿcos(πn/12 + π/4)."""
    components = (
        ModelComponent(
            poly=(1.0,), alpha=math.log(0.9), omega=0.1, phi=math.pi / 2
        ),
        ModelComponent(
            poly=(0.2,),
            alpha=math.log(1.05),
            omega=1.0 / 24.0,
            phi=3.0 * math.pi / 4.0,
        ),
    )
    return generate_model_signal(components, n).values


def parse_gap_ranges(spec: str) -> Tuple[Tuple[int, int], ...]:
    """Parse "10-19,35-39" into 1-based inclusive (start, end) blocks."""
    blocks = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if "-" in part:
            lo_s, hi_s = part.split("-", 1)
            lo, hi = int(lo_s), int(hi_s)
        else:
            lo = hi = int(part)
        if lo < 1 or hi < lo:
            raise ValueError(f"invalid gap range {part!r}")
        blocks.append((lo, hi))
    if not blocks:
        raise ValueError(f"no gap ranges in {spec!r}")
    return tuple(blocks)


def apply_gaps(
    values: np.ndarray, gaps: Sequence[Tuple[int, int]]
) -> np.ndarray:
    """Copy of the series with the 1-based inclusive blocks blanked to NaN."""
    out = np.asarray(values, dtype=float).copy()
    for lo, hi in gaps:
        if hi > out.size:
            raise ValueError(
                f"gap block {lo}-{hi} exceeds series length {out.size}"
            )
        out[lo - 1 : hi] = np.nan
    return out


def add_relative_noise(values: np.ndarray, level: float, seed: int) -> np.ndarray:
    """Values plus seeded i.i.d. standard normal noise of norm ``level``·‖values‖."""
    noise = np.random.default_rng(seed).standard_normal(values.size)
    return values + level * (noise / np.linalg.norm(noise)) * np.linalg.norm(values)


def gapped_preset(
    seed: int,
    noise_level: float = 0.2,
    gaps: Optional[Sequence[Tuple[int, int]]] = GAPPED_PRESET_GAPS,
) -> Tuple[TimeSeries, np.ndarray]:
    """Noisy gapped observation of the rank-4 preset signal.

    Noise is i.i.d. standard normal rescaled to ``noise_level`` of the
    signal norm, reproducible from the seed.  Returns (observed series with
    NaN gaps, clean signal).
    """
    signal = two_tone_signal()
    observed = add_relative_noise(signal, noise_level, seed)
    if gaps:
        observed = apply_gaps(observed, gaps)
    return TimeSeries(observed), signal


#: named presets for the generation surface: name -> (builder, rank)
PRESETS = {
    "twotone50": (gapped_preset, 4),
}
