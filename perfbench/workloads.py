"""The three benchmark workloads, built from a seed during set-up.

Each workload is an ordered list of cells.  A cell is one call of
``hmgn.fit`` with every input already generated (series, weight matrix,
start, solver configuration) plus the reference answer and the error bound
the fitted signal must meet.  The measuring loop in ``run.py`` fits every
cell once per pass, in order; the traced run uses the first ``trace_cells``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

from hmgn import (
    Identity,
    ModelComponent,
    SolverConfig,
    ar_inverse_covariance,
    build_known_minimum,
    gapped_preset,
    generate_model_signal,
    mask_missing,
)
from hmgn.weights import banded_winv_from_winv_bands


@dataclass(frozen=True)
class Cell:
    """One fully generated ``fit`` call and the answer it must reproduce.

    A fit passes when its relative error ‖S − ref‖/‖ref‖ is at most
    ``bound``.  Whatever the bound, a signal no closer to the observed
    samples than the zero signal is a wrong answer (``fits_data``).
    """

    cell_id: str
    x: object
    w: object
    a0: Optional[np.ndarray]
    r: Optional[int]
    config: SolverConfig
    reference: np.ndarray
    bound: float

    def error_of(self, signal: np.ndarray) -> float:
        return float(
            np.linalg.norm(signal - self.reference) / np.linalg.norm(self.reference)
        )

    def fits_data(self, signal: np.ndarray) -> bool:
        """Whether ‖X − S‖ < ‖X‖ over the observed samples, which trivial
        output such as the zero signal fails under any weight."""
        x = np.asarray(getattr(self.x, "values", self.x))
        seen = np.isfinite(x)
        return bool(np.linalg.norm(x[seen] - signal[seen]) < np.linalg.norm(x[seen]))


@dataclass(frozen=True)
class Workload:
    cells: List[Cell]
    trace_cells: int


# ---------------------------------------------------------------------------
# trend-long: the known-minimum quadratic, the paper's hard regime
# ---------------------------------------------------------------------------

#: ‖S − Y*‖ bounds (‖Y*‖ = 1).  Under W = I the quadratic Y* is the exact minimizer
#: (seed run: ≤ 3.3e-7 for mgn, ≤ 1.7e-8 for s-mgn).  Under the AR(1) weight
#: the weighted minimizer sits 1.73e-4 from Y* for every start (3.9e-3 at
#: the self-test's N = 200).
_TREND_BOUND = {"identity": 1e-5, "ar0.5": 1e-3}
_TREND_BOUND_SMOKE = {"identity": 1e-5, "ar0.5": 1e-2}


def trend_long(seed: int, smoke: bool = False) -> Workload:
    n = 200 if smoke else 5000
    problem = build_known_minimum(n)
    # no random input: the seed changes nothing here.  A seeded offset
    # direction changed the fit time threefold between seeds, and the
    # per-iteration cost with it.
    a0 = problem.a_star.coeffs + 1e-6
    weights = {
        "identity": Identity(n),
        "ar0.5": ar_inverse_covariance([0.5], 1.0, n),
    }
    cells = [
        Cell(
            cell_id=f"{method}/{wname}",
            x=problem.x,
            w=w,
            a0=a0,
            r=None,
            config=SolverConfig(method=method),
            reference=problem.y_star.values,
            bound=(_TREND_BOUND_SMOKE if smoke else _TREND_BOUND)[wname],
        )
        for method in ("mgn", "s-mgn")
        for wname, w in weights.items()
    ]
    return Workload(cells, trace_cells=len(cells))


# ---------------------------------------------------------------------------
# gapped-short: rank-4 two-tone preset, noisy, with two gaps
# ---------------------------------------------------------------------------

#: ‖S − clean‖/‖clean‖ bound, from 480 development-seed fits: fits that
#: find both tones reach 0.05–0.30; 18 settle in a local minimum that lost
#: one tone, at 0.75–0.83, which a local method may do from a data-driven
#: start; the zero signal reads 1.0.  Two fits (seed 106) read 1.03 and fail.
_GAPPED_BOUND = 0.9
#: instances per seed, each fitted by both methods; one pass over the 24
#: cells takes 16–26 s on the development seeds
_GAPPED_INSTANCES = 12


def gapped_short(seed: int, smoke: bool = False) -> Workload:
    instances = 2 if smoke else _GAPPED_INSTANCES
    rng = np.random.default_rng(seed)
    cells = []
    for k, inst_seed in enumerate(rng.integers(0, 2**31, size=instances)):
        observed, clean = gapped_preset(int(inst_seed))
        w = mask_missing(Identity(observed.n), observed.mask)
        for method in ("mgn", "s-mgn"):
            cells.append(
                Cell(
                    cell_id=f"{method}/{k}",
                    x=observed,
                    w=w,
                    a0=None,
                    r=4,
                    config=SolverConfig(method=method),
                    reference=clean,
                    bound=_GAPPED_BOUND,
                )
            )
    return Workload(cells, trace_cells=min(12, len(cells)))


# ---------------------------------------------------------------------------
# kernel-banded: two undamped tones, banded W⁻¹, Gram route only
# ---------------------------------------------------------------------------

_TONES = (0.013, 0.071)

#: ‖S − clean‖/‖clean‖ bound.  From the near-truth start the seed run's
#: fits reach 0.3–1.2 %; the local minima found from a data-driven start
#: sit at 45–100 %.  The error shrinks like N^(-1/2), so the self-test's
#: N = 500 gets a wider bound.
_KERNEL_BOUND = 0.05
_KERNEL_BOUND_SMOKE = 0.3

#: iteration cap.  About one instance in twenty never meets the small-step
#: test and backtracks to γ = 2⁻¹⁶ until the cap; at the default cap of 200
#: that one fit would take longer than a whole run.
_KERNEL_MAX_ITER = 40
#: instances per seed; one pass over them takes 12–35 s on the development
#: seeds, most of it in the fits that reach the iteration cap
_KERNEL_INSTANCES = 12


def _tone_glrr(omega: float) -> np.ndarray:
    return np.array([1.0, -2.0 * math.cos(2.0 * math.pi * omega), 1.0])


def kernel_banded(seed: int, smoke: bool = False) -> Workload:
    n = 500 if smoke else 20000
    instances = 2 if smoke else _KERNEL_INSTANCES
    rng = np.random.default_rng(seed)
    diag = 1.0 + rng.uniform(0.0, 1.0, n)
    off = 0.4 * rng.uniform(-1.0, 1.0, n - 1)
    w = banded_winv_from_winv_bands([diag, off])
    a_true = np.convolve(_tone_glrr(_TONES[0]), _tone_glrr(_TONES[1]))
    config = SolverConfig(method="vpgn", max_iter=_KERNEL_MAX_ITER)
    cells = []
    for k in range(instances):
        phases = rng.uniform(0.0, 2.0 * math.pi, size=2)
        clean = generate_model_signal(
            [ModelComponent(omega=om, phi=ph) for om, ph in zip(_TONES, phases)], n
        ).values
        x = clean + 0.3 * rng.standard_normal(n)
        a0 = a_true + 1e-4 * rng.standard_normal(a_true.size)
        cells.append(
            Cell(
                cell_id=f"vpgn/{k}",
                x=x,
                w=w,
                a0=a0,
                r=None,
                config=config,
                reference=clean,
                bound=_KERNEL_BOUND_SMOKE if smoke else _KERNEL_BOUND,
            )
        )
    return Workload(cells, trace_cells=min(6, len(cells)))


WORKLOADS: Dict[str, Callable[[int, bool], Workload]] = {
    "trend-long": trend_long,
    "gapped-short": gapped_short,
    "kernel-banded": kernel_banded,
}
