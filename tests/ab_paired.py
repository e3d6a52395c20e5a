"""Paired A/B timing of two checkouts of hmgn on one benchmark workload.

Runs between processes on a shared box swing by tens of percent, so two
versions timed in separate runs of ``perfbench/run.py`` are hard to tell
apart.  This script imports both versions into one process and fits each
cell with one version and then the other, flipping the order every pass,
so that both see the same spells of load.

Usage, from the root of a checkout:

    python3 tests/ab_paired.py CHECKOUT_A CHECKOUT_B --workload W --seconds S --seed N [--smoke]

Each checkout's ``src/hmgn`` is copied into a temporary directory under its
own package name (``hmgn_a``, ``hmgn_b``), and ``perfbench/workloads.py`` of
this checkout, which is read and not changed, builds the cells once against
each version.  After one warm-up fit of each (method, weight type), capped
at two iterations as in ``perfbench/run.py``, the script makes whole passes
over the cells for about ``--seconds`` (at least one).  It runs BLAS and
OpenMP at one thread, as the benchmark does.

It prints one line: the lower quartile over cells of each cell's median ms
per iteration for each side (``iter_ms_p25`` as ``perfbench/run.py``
defines it, without its check of the answer), their ratio B/A, the median
over cells of the ratio of the cells' medians, and the number of cells
whose iteration counts differ between the sides.  Fits that raise
``HmgnError`` are left out of the timings.
"""

from __future__ import annotations

import os

# read once, when numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import importlib.util
import shutil
import statistics
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import replace
from pathlib import Path
from typing import List, Optional

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS_PY = ROOT / "perfbench" / "workloads.py"
SIDES = ("a", "b")
WARMUP_ITERS = 2


def load_version(checkout: Path, side: str, tmp: Path):
    """The ``src/hmgn`` of ``checkout``, imported as package ``hmgn_<side>``,
    and the workload builders of ``perfbench/workloads.py`` bound to it."""
    name = f"hmgn_{side}"
    shutil.copytree(
        checkout / "src" / "hmgn", tmp / name,
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    if str(tmp) not in sys.path:
        sys.path.insert(0, str(tmp))
    package = importlib.import_module(name)
    # workloads.py imports ``hmgn`` and its submodules by name: bind those
    # names to this version while it runs, then restore them
    aliases = {"hmgn": package}
    aliases.update(
        {f"hmgn.{key[len(name) + 1:]}": mod
         for key, mod in sys.modules.items() if key.startswith(name + ".")}
    )
    saved = {key: sys.modules.get(key) for key in aliases}
    sys.modules.update(aliases)
    try:
        spec = importlib.util.spec_from_file_location(f"workloads_{side}", WORKLOADS_PY)
        workloads = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = workloads  # dataclasses look their module up
        spec.loader.exec_module(workloads)
    finally:
        for key, mod in saved.items():
            if mod is None:
                sys.modules.pop(key, None)
            else:
                sys.modules[key] = mod
    return package, workloads.WORKLOADS


def timed_fit(package, cell):
    """(seconds, iterations), or None when the fit raised ``HmgnError``."""
    start = time.perf_counter()
    try:
        result = package.fit(cell.x, r=cell.r, w=cell.w, a0=cell.a0, config=cell.config)
    except package.HmgnError:
        return None
    return time.perf_counter() - start, result.iterations


def warm_up(package, cells) -> None:
    seen = set()
    for cell in cells:
        kind = (cell.config.method, type(cell.w).__name__)
        if kind not in seen:
            seen.add(kind)
            capped = replace(cell, config=replace(cell.config, max_iter=WARMUP_ITERS))
            timed_fit(package, capped)


def lower_quartile(values: List[float]) -> float:
    return statistics.quantiles(values, n=4)[0] if len(values) > 1 else values[0]


def run(packages, cells, seconds: float):
    """Per side and cell, the ms per iteration of every pass; and the cells
    whose iteration counts differ between the sides."""
    iter_ms = {side: defaultdict(list) for side in SIDES}
    differ = set()
    start = time.perf_counter()
    passes = 0
    while True:
        pass_start = time.perf_counter()
        order = SIDES if passes % 2 == 0 else SIDES[::-1]
        for idx in range(len(cells[SIDES[0]])):
            counts = {}
            for side in order:
                got = timed_fit(packages[side], cells[side][idx])
                counts[side] = None if got is None else got[1]
                if got is not None and got[1] > 0:
                    iter_ms[side][idx].append(1e3 * got[0] / got[1])
            if counts["a"] != counts["b"]:
                differ.add(idx)
        passes += 1
        now = time.perf_counter()
        if now - start + (now - pass_start) > seconds:
            return iter_ms, differ, passes


def summary(iter_ms, differ, passes, workload: str, seed: int) -> str:
    common = sorted(set(iter_ms["a"]) & set(iter_ms["b"]))
    if not common:
        return f"ab_paired workload={workload} seed={seed} passes={passes} cells=0"
    med = {
        side: [statistics.median(iter_ms[side][idx]) for idx in common] for side in SIDES
    }
    p25 = {side: lower_quartile(med[side]) for side in SIDES}
    cell_ratio = statistics.median(b / a for a, b in zip(med["a"], med["b"]))
    return (
        f"ab_paired workload={workload} seed={seed} passes={passes} "
        f"cells={len(common)} a_iter_ms_p25={p25['a']:.4f} "
        f"b_iter_ms_p25={p25['b']:.4f} p25_ratio={p25['b'] / p25['a']:.4f} "
        f"cell_median_ratio={cell_ratio:.4f} iterations_differ={len(differ)}"
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout_a", type=Path)
    parser.add_argument("checkout_b", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--smoke", action="store_true", help="the self-test sizes")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="ab_paired_") as tmp:
        packages, cells = {}, {}
        for side, checkout in zip(SIDES, (args.checkout_a, args.checkout_b)):
            package, builders = load_version(checkout.resolve(), side, Path(tmp))
            if args.workload not in builders:
                parser.error(f"unknown workload {args.workload!r}; "
                             f"expected one of {sorted(builders)}")
            packages[side] = package
            cells[side] = builders[args.workload](args.seed, args.smoke).cells
            warm_up(package, cells[side])
        iter_ms, differ, passes = run(packages, cells, args.seconds)
    print(summary(iter_ms, differ, passes, args.workload, args.seed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
