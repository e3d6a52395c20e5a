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
this checkout builds the cells once against each version.  Set-up, warm-up
and the judgement of each fit are those of ``perfbench/run.py`` (its
``_set_up`` and ``run_cell``): a fit that raises ``HmgnError`` or misses its
cell's reference bound fails, and only fits that pass are timed.  Both files
are read and executed from their source text, so nothing is written under
``perfbench/``.  The script makes whole passes over the cells for about
``--seconds`` (at least one).  It runs BLAS and OpenMP at one thread, as the
benchmark does.

It prints one line per cell that passed on both sides: the cell id, each
side's median ms per iteration and their ratio B/A, so that a change to one
method's cells shows where the lower quartile hides it.  The last line is
the summary: the lower quartile over cells of each cell's median ms
per iteration for each side (``iter_ms_p25`` as ``perfbench/run.py``
defines it), their ratio B/A, the median over cells of the ratio of the
cells' medians, the number of cells whose iteration counts differ between
the sides (``iterations_differ``), the number of cells whose final signals
differ in any byte (``signals_differ``), each side's minor page faults per
iteration (``a_minflt_per_iter``, ``b_minflt_per_iter``: getrusage deltas
taken around each fit that returns, summed, over the iterations of those
fits) and the number of failed fits on each side.  So one run shows
whether two versions fit the same bits and how much memory each touches.
Both versions allocate from one heap, so a side's fault count also depends
on how the other side left it; a version's own count needs a run of its
own.

A warm-up fit that raises ``HmgnError`` during set-up ends the script
instead: it prints ``<side>_setup_failed=<class name>`` for each side whose
set-up raised, and exits 1.
"""

from __future__ import annotations

import os

# read once, when numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import resource
import shutil
import statistics
import sys
import tempfile
import time
import types
from collections import defaultdict
from pathlib import Path
from typing import List, Optional

import numpy

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
SIDES = ("a", "b")


def exec_source(path: Path, name: str) -> types.ModuleType:
    """The module at ``path``, executed from its source text under ``name``,
    so that no bytecode is written next to it."""
    module = types.ModuleType(name)
    module.__file__ = str(path)
    sys.modules[name] = module  # dataclasses look their module up
    source = path.read_text(encoding="utf-8")
    exec(compile(source, str(path), "exec"), module.__dict__)
    return module


BENCH = exec_source(PERFBENCH / "run.py", "perfbench_run")


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
        workloads = exec_source(PERFBENCH / "workloads.py", f"workloads_{side}")
    finally:
        for key, mod in saved.items():
            if mod is None:
                sys.modules.pop(key, None)
            else:
                sys.modules[key] = mod
    return package, workloads.WORKLOADS


class Recorder:
    """``fit`` of one version, for ``run_cell``, that keeps the result of
    the last fit (``None`` if it raised) and sums the minor page faults and
    the iterations of the fits that return."""

    def __init__(self, package):
        self.HmgnError = package.HmgnError
        self._fit = package.fit
        self.result = None
        self.minflt = 0
        self.iterations = 0

    def fit(self, *args, **kwargs):
        self.result = None
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        result = self._fit(*args, **kwargs)
        self.minflt += resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        self.iterations += result.iterations
        self.result = result
        return result

    @property
    def signal(self):
        """The signal of the last fit, or ``None`` if it raised."""
        return None if self.result is None else self.result.signal


def _same_bytes(x, y) -> bool:
    if x is None or y is None:
        return x is y
    return x.shape == y.shape and x.tobytes() == y.tobytes()


def run(packages, cells, seconds: float):
    """Per side and cell, the ms per iteration of every passing fit; the
    cells whose iteration counts differ between the sides, and those whose
    final signals differ; the failed fits of each side; and the recorder of
    each side's faults."""
    iter_ms = {side: defaultdict(list) for side in SIDES}
    failed = dict.fromkeys(SIDES, 0)
    recorders = {side: Recorder(packages[side]) for side in SIDES}
    differ = {"iterations": set(), "signals": set()}
    start = time.perf_counter()
    passes = 0
    while True:
        pass_start = time.perf_counter()
        order = SIDES if passes % 2 == 0 else SIDES[::-1]
        for idx in range(len(cells[SIDES[0]])):
            counts = {}
            for side in order:
                record = BENCH.run_cell(recorders[side], numpy, cells[side][idx])
                counts[side] = record.iterations
                if record.ok:
                    iter_ms[side][idx].append(1e3 * record.seconds / record.iterations)
                else:
                    failed[side] += 1
            if counts["a"] != counts["b"]:
                differ["iterations"].add(idx)
            if not _same_bytes(recorders["a"].signal, recorders["b"].signal):
                differ["signals"].add(idx)
        passes += 1
        now = time.perf_counter()
        if now - start + (now - pass_start) > seconds:
            return iter_ms, differ, failed, recorders, passes


def _per_iteration(recorder: Recorder) -> str:
    if recorder.iterations == 0:
        return "nan"
    return f"{recorder.minflt / recorder.iterations:.1f}"


def cell_lines(iter_ms, cells) -> List[str]:
    """One line per cell that passed on both sides: its id, each side's
    median ms per iteration and their ratio B/A."""
    lines = []
    for idx in sorted(set(iter_ms["a"]) & set(iter_ms["b"])):
        a, b = (statistics.median(iter_ms[side][idx]) for side in SIDES)
        lines.append(f"ab_paired cell={cells['a'][idx].cell_id} a_ms_per_iter={a:.4f} "
                     f"b_ms_per_iter={b:.4f} ratio={b / a:.4f}")
    return lines


def summary(iter_ms, differ, failed, recorders, passes, workload: str, seed: int) -> str:
    head = f"ab_paired workload={workload} seed={seed} passes={passes}"
    tail = (
        f"iterations_differ={len(differ['iterations'])} "
        f"signals_differ={len(differ['signals'])} "
        f"a_minflt_per_iter={_per_iteration(recorders['a'])} "
        f"b_minflt_per_iter={_per_iteration(recorders['b'])} "
        f"a_failed={failed['a']} b_failed={failed['b']}"
    )
    common = sorted(set(iter_ms["a"]) & set(iter_ms["b"]))
    if not common:
        return f"{head} cells=0 {tail}"
    med = {
        side: [statistics.median(iter_ms[side][idx]) for idx in common] for side in SIDES
    }
    p25 = {side: BENCH._lower_quartile(med[side]) for side in SIDES}
    cell_ratio = statistics.median(b / a for a, b in zip(med["a"], med["b"]))
    return (
        f"{head} cells={len(common)} a_iter_ms_p25={p25['a']:.4f} "
        f"b_iter_ms_p25={p25['b']:.4f} p25_ratio={p25['b'] / p25['a']:.4f} "
        f"cell_median_ratio={cell_ratio:.4f} {tail}"
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
        packages, cells, setup_failed = {}, {}, []
        for side, checkout in zip(SIDES, (args.checkout_a, args.checkout_b)):
            package, builders = load_version(checkout.resolve(), side, Path(tmp))
            if args.workload not in builders:
                parser.error(f"unknown workload {args.workload!r}; "
                             f"expected one of {sorted(builders)}")
            packages[side] = package
            try:
                workload = BENCH._set_up(
                    package, builders[args.workload], args.seed, args.smoke
                )
            except package.HmgnError as exc:
                setup_failed.append(f"{side}_setup_failed={type(exc).__name__}")
                continue
            cells[side] = workload.cells
        if setup_failed:
            print(f"ab_paired workload={args.workload} seed={args.seed} "
                  + " ".join(setup_failed))
            return 1
        iter_ms, differ, failed, recorders, passes = run(packages, cells, args.seconds)
    for line in cell_lines(iter_ms, cells):
        print(line)
    print(summary(iter_ms, differ, failed, recorders, passes, args.workload, args.seed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
