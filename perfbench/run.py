"""Fit benchmark for hmgn: one workload, one seed, one timed run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload trend-long --seed 1 --seconds 30 --trace 0

Set-up imports hmgn, generates every input from the seed, then runs short
warm-up fits.  With ``--trace 0`` the run calls ``hmgn.fit`` on the
workload's cells in a closed loop (one caller, one fit in flight), in whole
passes over the cells, for about ``--seconds``, and reports the end-to-end
metrics.  With ``--trace 1`` it alternates an untraced and a
traced fit of each cell over whole passes of the workload's trace cells and
reports the per-layer split (see ``tracing.py``).  Every fit is checked
against the workload's reference answer.

The second-to-last line of standard output is a JSON report (environment,
every metric with unit and sample count, failures by class, terminations,
one record per fit); the last line is the result object
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import statistics
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

# BLAS and OpenMP read these once, when numpy loads (in main)
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"

#: set-up is repeated this many times and its median reported
SETUP_REPEATS = 5
#: warm-up fits stop after this many iterations
WARMUP_ITERS = 2
#: seed of the inputs the warm-up fits use, whatever the run's seed
WARMUP_SEED = 0
#: a tail percentile is reported only with at least this many fits
P90_MIN_FITS = 100
#: fit statuses that mean a wrong answer.  A fit that raised ``HmgnError``
#: or settled in a local minimum beyond the reference bound ("over-bound")
#: counts as failed, but the program did what a local method may do.
WRONG_ANSWERS = ("non-finite", "objective-increase", "worse-than-zero")


def _import_program():
    """Import hmgn and the workloads afresh from the checkout's ``src``.

    Earlier imports of both are dropped first, so that each set-up pays the
    program's own import time.  Exits 2 when the sources are absent.
    """
    src = ROOT / "src"
    if not (src / "hmgn" / "__init__.py").is_file():
        print(f"perfbench: no hmgn sources under {src}", file=sys.stderr)
        sys.exit(2)
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m.split(".")[0] in ("hmgn", "workloads")]:
        del sys.modules[name]
    import hmgn
    from workloads import WORKLOADS

    if Path(hmgn.__file__).resolve().parent != (src / "hmgn").resolve():
        print(f"perfbench: imported hmgn from {hmgn.__file__}", file=sys.stderr)
        sys.exit(2)
    return hmgn, WORKLOADS


def _environment(numpy, scipy) -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
    }


@dataclass
class FitRecord:
    """Outcome of one fit: timing, iterations and the correctness verdict."""

    cell_id: str
    seconds: float
    status: str = "ok"
    iterations: int = 0
    accepted: int = 0
    termination: Optional[str] = None
    error: Optional[float] = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def row(self) -> list:
        return [self.cell_id, self.iterations, self.termination, self.seconds, self.error, self.status]


def run_cell(hmgn, numpy, cell, tracer=None, fit_id=-1) -> FitRecord:
    """Fit one cell and check the result against the cell's reference.

    The gate: a finite signal, final objective ≤ first objective, a signal
    closer to the data than the zero signal, and error against the reference
    within the cell's bound.  ``HmgnError`` is a failed fit, recorded by
    class name; failed fits are left out of every timing.
    """
    failure = None
    if tracer is not None:
        tracer.begin_fit(fit_id)
    start = time.perf_counter()
    try:
        result = hmgn.fit(cell.x, r=cell.r, w=cell.w, config=cell.config, a0=cell.a0)
    except hmgn.HmgnError as exc:
        failure = type(exc).__name__
    finally:
        seconds = time.perf_counter() - start
        if tracer is not None:
            tracer.end_fit()
    if failure is not None:
        return FitRecord(cell.cell_id, seconds, status=failure)
    record = FitRecord(cell.cell_id, seconds)
    record.iterations = result.iterations
    record.accepted = int(numpy.count_nonzero(result.trace.gammas > 0.0))
    record.termination = result.trace.termination
    if not numpy.all(numpy.isfinite(result.signal)):
        record.status = "non-finite"
        return record
    record.error = cell.error_of(result.signal)
    objectives = result.trace.objectives
    if not objectives[-1] <= objectives[0]:
        record.status = "objective-increase"
    elif not cell.fits_data(result.signal):
        record.status = "worse-than-zero"
    elif not record.error <= cell.bound:
        record.status = "over-bound"
    return record


def _set_up(hmgn, build, seed, smoke):
    """Build the seed's workload, after a warm-up fit of each (method, weight
    type) on a build from ``WARMUP_SEED``, so that set-up does not take
    longer or shorter with the instances a seed draws."""
    seen = set()
    for cell in build(WARMUP_SEED, smoke).cells:
        kind = (cell.config.method, type(cell.w).__name__)
        if kind in seen:
            continue
        seen.add(kind)
        hmgn.fit(
            cell.x, r=cell.r, w=cell.w, a0=cell.a0,
            config=replace(cell.config, max_iter=WARMUP_ITERS),
        )
    return build(seed, smoke)


def _per_cell(records, value) -> list:
    """Each cell's median of ``value`` over the run's passes."""
    by_cell = defaultdict(list)
    for rec in records:
        by_cell[rec.cell_id].append(value(rec))
    return [statistics.median(v) for v in by_cell.values()]


def _lower_quartile(values) -> float:
    return statistics.quantiles(values, n=4)[0] if len(values) > 1 else values[0]


def whole_passes(seconds, one_pass):
    """Repeat ``one_pass`` in whole passes for about ``seconds``.

    Every pass completes, so two runs of a seed time the same fits however
    fast the program is; another pass starts only if, taking as long as the
    last one, it should end within ``seconds``.  Returns the records of all
    passes and the seconds they took.
    """
    records = []
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        records += one_pass()
        now = time.perf_counter()
        if now - start + (now - pass_start) > seconds:
            return records, now - start


def measure(hmgn, numpy, workload, seconds):
    return whole_passes(seconds, lambda: [run_cell(hmgn, numpy, c) for c in workload.cells])


def end_to_end(records, elapsed, setup_s) -> dict:
    good = [r for r in records if r.ok]
    iter_ms = _per_cell(good, lambda r: 1e3 * r.seconds / r.iterations)
    fit_s = _per_cell(good, lambda r: r.seconds)
    metrics = {
        "iter_ms_p25": (_lower_quartile(iter_ms) if good else None, "ms", len(good)),
        "iter_ms_p50": (statistics.median(iter_ms) if good else None, "ms", len(good)),
        "fit_s_p50": (statistics.median(fit_s) if good else None, "s", len(good)),
        "fit_s_p90": (
            statistics.quantiles([r.seconds for r in good], n=10)[-1]
            if len(good) >= P90_MIN_FITS else None,
            "s", len(good)),
        "fits_per_s": (len(good) / elapsed, "1/s", len(good)),
        "fail_ratio": ((len(records) - len(good)) / len(records), "ratio", len(records)),
        "err_ref_max": (
            max(r.error for r in good) if good else None, "ratio", len(good)),
        "setup_s": (setup_s, "s", SETUP_REPEATS),
        "rss_peak_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
    }
    return {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in metrics.items()}


def measure_traced(hmgn, numpy, workload, seconds, tracer):
    """Whole passes over the trace cells, each cell fitted untraced, then
    traced.  Returns (untraced, traced) record pairs."""
    cells = workload.cells[: workload.trace_cells]
    fit_ids = itertools.count()

    def one_pass():
        return [
            (run_cell(hmgn, numpy, cell),
             run_cell(hmgn, numpy, cell, tracer, fit_id=next(fit_ids)))
            for cell in cells
        ]

    return whole_passes(seconds, one_pass)[0]


def per_layer(pairs, spans) -> dict:
    from tracing import retries_and_trials, span_totals

    calls, total, own, root_s, covered_s = span_totals(spans)
    traced = [t for _, t in pairs]
    fits = len(traced)
    iterations = sum(t.iterations for t in traced)
    retries, trials, searches = retries_and_trials(spans)
    accepted = sum(t.accepted for t in traced)
    projections = sum(calls[name] for name in ("nullspace.nullspace_basis", "projection.project_gamma"))

    def per_fit(table, name):
        return table.get(name, 0) / fits

    metrics = {
        "solvers.iterations": (iterations / fits, "count"),
        "solvers.projections_per_iter": (projections / max(iterations, 1), "count"),
        "solvers.line_search.trials": (trials / max(searches, 1), "count"),
        "solvers.line_search.accept_ratio": (accepted / max(trials, 1), "ratio"),
        "solvers.rotation_retries": (retries / fits, "count"),
        "trace.coverage": (covered_s / root_s, "ratio"),
        "trace.overhead": (
            statistics.median(_per_cell(traced, lambda r: r.seconds))
            / statistics.median(_per_cell([p for p, _ in pairs], lambda r: r.seconds)) - 1.0,
            "ratio"),
    }
    for name in ("solvers.mgn_step", "solvers.vpgn_step", "solvers.line_search",
                 "nullspace.nullspace_basis", "projection.weighted_pinv_apply",
                 "projection.vp_jacobian", "projection.project_gamma"):
        metrics[f"{name}.self_s"] = (per_fit(own, name), "s")
    for name in ("nullspace.find_rotation", "nullspace.eval_poly_grid",
                 "projection.GammaFactor.solve", "weights.whiten", "weights.weighted_norm"):
        metrics[f"{name}.calls"] = (per_fit(calls, name), "count")
        metrics[f"{name}.total_s"] = (per_fit(total, name), "s")
    for name in ("nullspace.fhat_matrix", "projection.GammaFactor", "series.glrr_residual"):
        metrics[f"{name}.total_s"] = (per_fit(total, name), "s")
    return {k: {"value": v, "unit": u, "samples": fits} for k, (v, u) in metrics.items()}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="reduced input sizes, for the self-test only",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    import numpy
    import scipy

    # untimed: loads the libraries hmgn imports, which are not the program
    hmgn, workloads = _import_program()
    if args.workload not in workloads:
        print(f"perfbench: unknown workload {args.workload!r}; expected one of "
              f"{sorted(workloads)}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    result_metrics = [m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]]

    setup_runs = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        hmgn, workloads = _import_program()
        workload = _set_up(hmgn, workloads[args.workload], args.seed, args.smoke)
        setup_runs.append(time.perf_counter() - t)
    setup_s = statistics.median(setup_runs)

    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        pairs = measure_traced(hmgn, numpy, workload, args.seconds, tracer)
        records = [rec for pair in pairs for rec in pair]
        metrics = per_layer(pairs, tracer.spans)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json")
    else:
        records, elapsed = measure(hmgn, numpy, workload, args.seconds)
        metrics = end_to_end(records, elapsed, setup_s)

    failures = Counter(r.status for r in records if not r.ok)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": _environment(numpy, scipy),
        "setup_runs_s": setup_runs,
        "metrics": metrics,
        "failures": dict(failures),
        "terminations": dict(Counter(r.termination for r in records if r.ok)),
        "fits": [r.row() for r in records],
    }
    wrong = sum(n for status, n in failures.items() if status in WRONG_ANSWERS)
    result = {
        "correct": wrong == 0,
        "attempted": len(records),
        "failed": sum(failures.values()),
        "metrics": {
            name: {"value": metrics[name]["value"], "unit": metrics[name]["unit"]}
            for name in result_metrics
        },
    }
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
