"""One SHA-256 per benchmark workload and seed over every fit it runs.

Two versions of the program give the same digest exactly when every fit of
the workload ends bit for bit the same.  The hash covers, per cell in
order, the cell id and either the ``HmgnError`` class name of a failed fit
or the termination, every ``IterationRecord`` field, the signal, the final
GLRR coefficients, τ and ȧ.  The inputs come from ``perfbench/workloads.py``,
which is imported and not changed.

Usage, from the root of a checkout:

    python3 tests/fit_digest.py [--workload NAME ...] [--seed S ...] [--smoke] [--cells]

Without options it hashes all three workloads at seeds 100 and 7919.
``--cells`` also prints one line per fit before each digest: the cell id,
iterations, termination, line-search trials, the relative error against the
cell's reference and whether it is within the cell's bound (or the class
name of the ``HmgnError`` the fit raised).  As a script it pins BLAS and
OpenMP to one thread, as the benchmark does.
"""

from __future__ import annotations

import os

if __name__ == "__main__":
    # read once, when numpy loads
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import argparse
import hashlib
import sys
from pathlib import Path
from typing import List, Optional, Tuple, Union

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
for _path in (ROOT / "src", ROOT / "perfbench"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

import hmgn  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DEFAULT_SEEDS = (100, 7919)


def _update(h, *parts) -> None:
    for part in parts:
        if isinstance(part, str):
            h.update(part.encode())
        elif isinstance(part, (bool, np.bool_)):
            h.update(b"T" if part else b"F")
        elif isinstance(part, (int, np.integer)):
            h.update(int(part).to_bytes(8, "little", signed=True))
        else:
            h.update(np.ascontiguousarray(part, dtype=float).tobytes())
        h.update(b"|")


Fit = Tuple[object, Union["hmgn.FitResult", str]]


def workload_fits(name: str, seed: int, smoke: bool = False) -> List[Fit]:
    """(cell, fit result or the class name of its ``HmgnError``) per cell."""
    fits = []
    for cell in WORKLOADS[name](seed, smoke).cells:
        try:
            result = hmgn.fit(cell.x, r=cell.r, w=cell.w, a0=cell.a0, config=cell.config)
        except hmgn.HmgnError as exc:
            result = type(exc).__name__
        fits.append((cell, result))
    return fits


def digest(fits: List[Fit]) -> Tuple[str, int, int]:
    """(SHA-256 hex digest, fits, fits that raised)."""
    h = hashlib.sha256()
    for cell, result in fits:
        if isinstance(result, str):
            _update(h, cell.cell_id, "error", result)
            continue
        _update(h, cell.cell_id, result.trace.termination)
        for row in result.trace.rows:
            _update(
                h, row.tau, row.adot, row.objective, row.gamma,
                row.glrr_rel_residual, row.small_step, row.trials,
            )
        _update(h, result.signal, result.glrr.coeffs, result.tau, result.adot)
    raised = sum(isinstance(result, str) for _, result in fits)
    return h.hexdigest(), len(fits), raised


def workload_digest(name: str, seed: int, smoke: bool = False) -> Tuple[str, int, int]:
    """(SHA-256 hex digest, fits, fits that raised) for one workload and seed."""
    return digest(workload_fits(name, seed, smoke))


def cell_line(cell, result) -> str:
    """One fit of the per-cell table."""
    if isinstance(result, str):
        return f"{cell.cell_id} raised={result}"
    error = cell.error_of(result.signal)
    trials = sum(row.trials for row in result.trace.rows)
    return (
        f"{cell.cell_id} iterations={result.iterations} "
        f"termination={result.trace.termination} trials={trials} "
        f"error={error:.3e} within_bound={error <= cell.bound}"
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", action="append", type=int)
    parser.add_argument("--smoke", action="store_true", help="the self-test sizes")
    parser.add_argument("--cells", action="store_true", help="one line per fit as well")
    args = parser.parse_args(argv)
    for name in args.workload or list(WORKLOADS):
        for seed in args.seed or DEFAULT_SEEDS:
            fits = workload_fits(name, seed, args.smoke)
            if args.cells:
                for cell, result in fits:
                    print(f"{name} seed={seed} {cell_line(cell, result)}")
            sha, count, raised = digest(fits)
            print(f"{name} seed={seed} fits={count} raised={raised} sha256={sha}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
