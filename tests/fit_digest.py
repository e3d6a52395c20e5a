"""One SHA-256 per benchmark workload and seed over every fit it runs.

Two versions of the program give the same digest exactly when every fit of
the workload ends bit for bit the same.  The hash covers, per cell in
order, the cell id and either the ``HmgnError`` class name of a failed fit
or the termination, every ``IterationRecord`` field, the signal, the final
GLRR coefficients, τ and ȧ.  The inputs come from ``perfbench/workloads.py``,
which is imported and not changed.

Usage, from the root of a checkout:

    python3 tests/fit_digest.py [--workload NAME ...] [--seed S ...] [--smoke]

Without options it hashes all three workloads at seeds 100 and 7919.  As a
script it pins BLAS and OpenMP to one thread, as the benchmark does.
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
from typing import List, Optional, Tuple

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


def _hash_fit(h, cell) -> bool:
    """Add one fit to ``h``; True if it raised ``HmgnError``."""
    try:
        result = hmgn.fit(cell.x, r=cell.r, w=cell.w, a0=cell.a0, config=cell.config)
    except hmgn.HmgnError as exc:
        _update(h, cell.cell_id, "error", type(exc).__name__)
        return True
    _update(h, cell.cell_id, result.trace.termination)
    for row in result.trace.rows:
        _update(
            h, row.tau, row.adot, row.objective, row.gamma,
            row.glrr_rel_residual, row.small_step,
        )
    _update(h, result.signal, result.glrr.coeffs, result.tau, result.adot)
    return False


def workload_digest(name: str, seed: int, smoke: bool = False) -> Tuple[str, int, int]:
    """(SHA-256 hex digest, fits, fits that raised) for one workload and seed."""
    h = hashlib.sha256()
    cells = WORKLOADS[name](seed, smoke).cells
    failed = sum(_hash_fit(h, cell) for cell in cells)
    return h.hexdigest(), len(cells), failed


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", action="append", type=int)
    parser.add_argument("--smoke", action="store_true", help="the self-test sizes")
    args = parser.parse_args(argv)
    for name in args.workload or list(WORKLOADS):
        for seed in args.seed or DEFAULT_SEEDS:
            digest, fits, failed = workload_digest(name, seed, args.smoke)
            print(f"{name} seed={seed} fits={fits} raised={failed} sha256={digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
