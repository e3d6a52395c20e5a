"""Which benchmark fits a change moves: two checkouts of hmgn fitted over a
list of seeds, fit by fit.

``tests/fit_digest.py`` says whether two versions fit the same bits, and
``tests/ab_paired.py`` how fast each is.  This script says which fits
moved and how.  Every cell of each workload and seed is fitted once by
each version (no timing), and each fit is judged as ``perfbench/run.py``
judges it (its ``run_cell``): a fit that raises ``HmgnError``, or whose
signal misses the cell's bound or gate, fails.

Usage, from the root of a checkout:

    python3 tests/fit_report.py CHECKOUT_A CHECKOUT_B --workload W [--workload W ...]
        --seed S [--seed S ...] [--smoke] [--rel-tol T]

Versions are loaded as ``tests/ab_paired.py`` loads them (each checkout's
``src/hmgn`` copied under its own package name, ``perfbench/`` of this
checkout read and executed from its source text, so nothing is written
under it), and BLAS runs at one thread.  Per workload it prints one summary
line,

    fit_report workload=W seeds=S,... fits=F a_failed=X b_failed=Y flipped=K moved=M rel_tol=T

then one line per fit that changed between pass and fail (``flipped``),
one per fit whose final objective moved by more than the workload's
relative tolerance (``moved``, worst first; a fit that failed on either
side by raising has no objective and is listed only as flipped or failed),
and one line per side with its failed fits, total iterations, terminations
and median error against the cells' references.  The tolerance is
``--rel-tol`` when given, and otherwise the workload's entry of
``REL_TOL``: 5e-9 for ``kernel-banded``, whose Gram route ends within about
that of its minimum whatever the start, and 1e-9 for the others.  A moved
fit in ``KNOWN_SENSITIVE`` is marked ``known_sensitive``: a 1e-12 relative
change of its start alone moves it past the tolerance, so a change that
moves it at rounding level is not to blame.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import tempfile
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import ab_paired  # sets BLAS to one thread before numpy loads

import numpy

SIDES = ab_paired.SIDES

#: relative change of a final objective past which a fit counts as moved,
#: per workload (``DEFAULT_REL_TOL`` for the others).  Under a 1e-12
#: relative perturbation of the start alone, every kernel-banded final
#: objective of seeds 100, 101, 7919 and 7920 moved by at most 3.2e-9 over
#: ten draws (27 of 48 cells past 1e-9), so 1e-9 would list draws, not
#: changes.
DEFAULT_REL_TOL = 1e-9
REL_TOL = {"kernel-banded": 5e-9}

#: (workload, seed, cell) whose final objective moves by more than the
#: workload's tolerance when only its start is multiplied by
#: (1 + 1e-12·ξ), ξ standard normal.  gapped-short seed 107 instance 7
#: moved 3.6 % with both methods (error 0.284 → 0.279).
KNOWN_SENSITIVE = frozenset(
    {("gapped-short", 107, "mgn/7"), ("gapped-short", 107, "s-mgn/7")}
)


@dataclass
class Fit:
    """One fit of one cell by one version."""

    status: str
    iterations: int
    termination: Optional[str]
    objective: Optional[float]
    error: Optional[float]

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def fit_cells(package, cells) -> List[Fit]:
    """Each cell fitted once by ``package`` and judged by ``run_cell``."""
    recorder = ab_paired.Recorder(package)
    fits = []
    for cell in cells:
        record = ab_paired.BENCH.run_cell(recorder, numpy, cell)
        result = recorder.result
        objective = None if result is None else float(result.trace.objectives[-1])
        fits.append(Fit(record.status, record.iterations, record.termination,
                        objective, record.error))
    return fits


Key = Tuple[int, str]


def _relative(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    return 0.0 if scale == 0.0 else (b - a) / scale


def report(workload: str, seeds: List[int], fits: Dict[str, Dict[Key, Fit]],
           rel_tol: float) -> List[str]:
    """The lines for one workload: summary, flipped, moved, per side."""
    keys = list(fits["a"])
    flipped = [k for k in keys if fits["a"][k].ok != fits["b"][k].ok]
    moved = []
    for key in keys:
        a, b = fits["a"][key].objective, fits["b"][key].objective
        if a is not None and b is not None and abs(_relative(a, b)) > rel_tol:
            moved.append((_relative(a, b), key))
    moved.sort(key=lambda item: -abs(item[0]))
    failed = {side: sum(not f.ok for f in fits[side].values()) for side in SIDES}
    lines = [
        f"fit_report workload={workload} seeds={','.join(map(str, seeds))} "
        f"fits={len(keys)} a_failed={failed['a']} b_failed={failed['b']} "
        f"flipped={len(flipped)} moved={len(moved)} rel_tol={rel_tol:g}"
    ]
    for seed, cell in flipped:
        a, b = fits["a"][seed, cell], fits["b"][seed, cell]
        lines.append(f"  flipped seed={seed} cell={cell} a={a.status} b={b.status}")
    for rel, (seed, cell) in moved:
        a, b = fits["a"][seed, cell], fits["b"][seed, cell]
        mark = " known_sensitive" if (workload, seed, cell) in KNOWN_SENSITIVE else ""
        lines.append(
            f"  moved seed={seed} cell={cell} rel={rel:+.3e} "
            f"a_objective={a.objective:.12e} b_objective={b.objective:.12e} "
            f"a_error={a.error:.4e} b_error={b.error:.4e} "
            f"a_iterations={a.iterations} b_iterations={b.iterations}{mark}"
        )
    for side in SIDES:
        side_fits = list(fits[side].values())
        ends = Counter(f.termination or f.status for f in side_fits)
        errors = [f.error for f in side_fits if f.error is not None]
        median = f"{statistics.median(errors):.4e}" if errors else "nan"
        lines.append(
            f"  {side}: failed={failed[side]} "
            f"iterations={sum(f.iterations for f in side_fits)} "
            f"terminations={','.join(f'{k}:{v}' for k, v in sorted(ends.items()))} "
            f"median_error={median}"
        )
    return lines


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout_a", type=Path)
    parser.add_argument("checkout_b", type=Path)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seed", action="append", type=int, required=True)
    parser.add_argument("--smoke", action="store_true", help="the self-test sizes")
    parser.add_argument("--rel-tol", type=float, default=None,
                        help="relative objective change that counts as moved "
                             f"(default: {REL_TOL} per workload, else {DEFAULT_REL_TOL:g})")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="fit_report_") as tmp:
        versions = {
            side: ab_paired.load_version(checkout.resolve(), side, Path(tmp))
            for side, checkout in zip(SIDES, (args.checkout_a, args.checkout_b))
        }
        for workload in args.workload:
            if workload not in versions["a"][1]:
                parser.error(f"unknown workload {workload!r}; "
                             f"expected one of {sorted(versions['a'][1])}")
            fits = {side: {} for side in SIDES}
            for seed in args.seed:
                for side, (package, builders) in versions.items():
                    cells = builders[workload](seed, args.smoke).cells
                    for cell, one in zip(cells, fit_cells(package, cells)):
                        fits[side][seed, cell.cell_id] = one
            rel_tol = args.rel_tol
            if rel_tol is None:
                rel_tol = REL_TOL.get(workload, DEFAULT_REL_TOL)
            print("\n".join(report(workload, args.seed, fits, rel_tol)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
