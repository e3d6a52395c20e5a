"""Benchmark experiment suites emitting CSV tables and plot scripts.

Each suite runs a grid of (series length, method) cells against the
known-minimum family or the gapped preset, records per-cell outcomes
(solver failures become a status value rather than aborting the run), and
writes one CSV per suite plus a small matplotlib script that renders it.
Cells run one after another, in (N, method) order.

A cell's status is "ok", or the class name of the ``HmgnError`` its fit
raised.  ``known_minimum_accuracy`` has one more: Y* minimizes ‖X − S‖_W
over the series of rank at most r, so a fit whose objective lies below
‖X − Y*‖_W by more than ``_BELOW_MINIMUM_RTOL`` of it has left that set,
and its row reads "below_minimum".  The plot scripts draw "ok" rows only.
"""

from __future__ import annotations

import csv
import functools
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import HmgnError
from .problems import build_known_minimum, gapped_preset
from .series import GlrrVector
from .solvers import METHODS, FitResult, SolverConfig, fit
from .weights import Identity, WeightSpec, ar_inverse_covariance, weighted_norm

__all__ = [
    "KINDS",
    "ExperimentSpec",
    "parse_weight_spec",
    "run_experiment",
]

KINDS = (
    "known_minimum_accuracy",
    "residual_vs_N",
    "iteration_timing",
    "gapped_fit",
)

#: default grid length ceiling; ``extend`` lifts it for large-scale runs
_DEFAULT_MAX_N = 10_000
_EXTENDED_MAX_N = 50_000

#: start the accuracy/residual runs next to the known solution
_START_OFFSET = 1e-6

#: objective gap, relative to ‖X − Y*‖_W, below which a known-minimum fit
#: counts as off the rank-r set.  At N ≤ 1000 (W = I) the fits on the set
#: read |gap| ≤ 4.9e-13, under 1e-11 of ‖X − Y*‖_W ≈ 0.06; the plain
#: Gram-route fit at N = 1000 reads −1.15e-5, about −1.8e-4 of it
_BELOW_MINIMUM_RTOL = 1e-8


def parse_weight_spec(spec: str, n: int) -> WeightSpec:
    """Build a weight matrix from its command-line syntax.

    ``identity`` or ``ar:phi1[,phi2,...][:sigma2]`` — the latter is the
    banded inverse autocovariance of a stationary AR process.
    """
    spec = spec.strip().lower()
    if spec in ("", "identity"):
        return Identity(n)
    if spec.startswith("ar:"):
        parts = spec[3:].split(":")
        if len(parts) > 2 or not parts[0]:
            raise ValueError(f"malformed weight spec {spec!r}")
        phi = [float(c) for c in parts[0].split(",")]
        sigma2 = float(parts[1]) if len(parts) == 2 else 1.0
        return ar_inverse_covariance(phi, sigma2, n)
    raise ValueError(
        f"unknown weight spec {spec!r}; expected 'identity' or 'ar:phi[,...][:sigma2]'"
    )


@dataclass(frozen=True)
class ExperimentSpec:
    """A reproducible experiment grid."""

    kind: str
    n_list: Tuple[int, ...] = ()
    methods: Tuple[str, ...] = ("mgn", "s-mgn")
    weights: str = "identity"
    seed: int = 0
    max_iter: int = 200
    extend: bool = False

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        methods = tuple(m.lower() for m in self.methods)
        for m in methods:
            if m not in METHODS:
                raise ValueError(f"unknown method {m!r}")
        if not methods:
            raise ValueError("at least one method is required")
        object.__setattr__(self, "methods", methods)
        n_list = tuple(int(n) for n in self.n_list)
        if any(b <= a for a, b in zip(n_list, n_list[1:])):
            raise ValueError("series lengths must be strictly increasing")
        ceiling = _EXTENDED_MAX_N if self.extend else _DEFAULT_MAX_N
        if n_list and n_list[-1] > ceiling:
            raise ValueError(
                f"series length {n_list[-1]} exceeds the ceiling {ceiling}; "
                "pass extend=True (--extend) for large runs"
            )
        if not n_list and self.kind != "gapped_fit":
            raise ValueError(f"experiment kind {self.kind!r} needs series lengths")
        object.__setattr__(self, "n_list", n_list)


def _write_csv(path: Path, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(
                [
                    ""
                    if cell is None or (isinstance(cell, float) and not np.isfinite(cell))
                    else (repr(cell) if isinstance(cell, float) else cell)
                    for cell in row
                ]
            )


def _fit_cell(x, config: SolverConfig, **kwargs) -> Tuple[Optional[FitResult], str]:
    """Fit one cell; a solver error gives (None, the error class name)."""
    try:
        return fit(x, config=config, **kwargs), "ok"
    except HmgnError as exc:
        return None, type(exc).__name__


def _grid_rows(spec: ExperimentSpec, row: Callable) -> List[list]:
    """One row per (N, method) cell of the known-minimum grid, in that order.

    The problem, the weight and the start are built once per N and shared
    by its methods.  ``row(problem, w, cell)`` gives the fields that follow
    n and method; ``cell()`` fits the cell and returns (result, status).
    """
    rows = []
    for n in spec.n_list:
        problem = build_known_minimum(n)
        w = parse_weight_spec(spec.weights, n)
        a0 = GlrrVector(problem.a_star.coeffs + _START_OFFSET)
        for method in spec.methods:
            config = SolverConfig(method=method, max_iter=spec.max_iter)
            cell = functools.partial(_fit_cell, problem.x, config, w=w, a0=a0)
            rows.append([n, method, *row(problem, w, cell)])
    return rows


def _accuracy_row(problem, w, cell) -> list:
    result, status = cell()
    if result is None:
        return [None, None, None, None, status]
    dist = float(np.linalg.norm(result.signal - problem.y_star.values))
    minimum = weighted_norm(w, problem.x.values - problem.y_star.values)
    obj_gap = float(weighted_norm(w, problem.x.values - result.signal) - minimum)
    if obj_gap < -_BELOW_MINIMUM_RTOL * minimum:
        status = "below_minimum"
    return [dist, float(result.glrr_rel_residual), obj_gap, result.iterations, status]


def _residual_row(problem, w, cell) -> list:
    result, status = cell()
    if result is None:
        return [None, None, None, status]
    return [
        float(result.glrr_rel_residual),
        result.iterations,
        result.trace.termination,
        status,
    ]


def _timing_row(problem, w, cell) -> list:
    # wall-clock per accepted iteration of the fit alone, after one warm-up
    # fit (FFT plans, caches)
    cell()
    begin = time.perf_counter()
    result, status = cell()
    elapsed = time.perf_counter() - begin
    return [elapsed / result.iterations if result is not None else None, status]


def _timing_rows(spec: ExperimentSpec) -> List[list]:
    rows = _grid_rows(replace(spec, max_iter=5), _timing_row)
    baseline_n = 100 if 100 in spec.n_list else spec.n_list[0]
    baseline = {method: t for n, method, t, _ in rows if n == baseline_n}
    for row in rows:
        per_iter, base = row[2], baseline[row[1]]
        row.insert(3, per_iter / base if per_iter is not None and base else None)
    return rows


def _gapped_tables(spec: ExperimentSpec) -> Tuple[List[list], List[list]]:
    observed, signal = gapped_preset(spec.seed)
    fits: Dict[str, Optional[FitResult]] = {}
    status_rows = []
    for method in spec.methods:
        config = SolverConfig(method=method, max_iter=spec.max_iter)
        result, status = _fit_cell(observed, config, r=4)
        fits[method] = result
        if result is None:
            status_rows.append([method, None, None, None, None, status])
            continue
        rel_error = float(
            np.linalg.norm(result.signal - signal) / np.linalg.norm(signal)
        )
        status_rows.append(
            [
                method,
                result.iterations,
                result.trace.termination,
                float(result.glrr_rel_residual),
                rel_error,
                "ok",
            ]
        )

    table_rows = []
    for i in range(observed.n):
        row = [
            i + 1,
            float(observed.values[i]) if observed.mask[i] else None,
            float(signal[i]),
        ]
        for method in spec.methods:
            result = fits[method]
            row.append(float(result.signal[i]) if result is not None else None)
        table_rows.append(row)
    return table_rows, status_rows


_PLOT_TEMPLATE = '''"""Render {csv_name} (auto-generated companion script)."""
import csv
from collections import defaultdict

import matplotlib.pyplot as plt

with open({csv_name!r}) as fh:
    rows = list(csv.DictReader(fh))

fig, ax = plt.subplots(figsize=(7, 5))
{body}
ax.set_xlabel({xlabel!r})
ax.set_ylabel({ylabel!r})
ax.legend()
fig.tight_layout()
fig.savefig({png_name!r}, dpi=150)
print("wrote", {png_name!r})
'''

_GRID_PLOT_BODY = """series = defaultdict(list)
for row in rows:
    if row["status"] != "ok" or not row[{column!r}]:
        continue
    series[row["method"]].append((int(row["n"]), float(row[{column!r}])))
for method in sorted(series):
    pts = sorted(series[method])
    ax.loglog([p[0] for p in pts], [p[1] for p in pts], "o-", label=method)
""".rstrip()

_GAPPED_PLOT_BODY = """index = [int(row["index"]) for row in rows]
fitted_cols = [c for c in rows[0] if c.startswith("fitted_")]
observed = [(i, float(r["observed"])) for i, r in zip(index, rows) if r["observed"]]
ax.plot([p[0] for p in observed], [p[1] for p in observed], "k.", label="observed")
ax.plot(index, [float(r["signal"]) for r in rows], "k--", label="signal")
for col in fitted_cols:
    if all(r[col] for r in rows):
        ax.plot(index, [float(r[col]) for r in rows], label=col[len("fitted_"):])
""".rstrip()


def _plot_script(kind: str, csv_name: str) -> str:
    if kind == "gapped_fit":
        body, xlabel, ylabel = _GAPPED_PLOT_BODY, "index", "value"
    elif kind == "known_minimum_accuracy":
        body = _GRID_PLOT_BODY.replace("{column!r}", repr("dist"))
        xlabel, ylabel = "N", "distance to known solution"
    elif kind == "residual_vs_N":
        body = _GRID_PLOT_BODY.replace("{column!r}", repr("rel_residual"))
        xlabel, ylabel = "N", "relative recurrence residual"
    else:
        body = _GRID_PLOT_BODY.replace("{column!r}", repr("normalized"))
        xlabel, ylabel = "N", "per-iteration time (normalized)"
    png_name = csv_name.rsplit(".", 1)[0] + ".png"
    return _PLOT_TEMPLATE.format(
        csv_name=csv_name, body=body, xlabel=xlabel, ylabel=ylabel, png_name=png_name
    )


def run_experiment(spec: ExperimentSpec, out_dir) -> List[Path]:
    """Run one suite; write its CSV table(s) and plot script into out_dir."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: List[Path] = []

    def emit(name: str, header: Sequence[str], rows: Sequence[Sequence]) -> None:
        path = out_dir / name
        _write_csv(path, header, rows)
        written.append(path)

    if spec.kind == "known_minimum_accuracy":
        emit(
            "known_minimum_accuracy.csv",
            ["n", "method", "dist", "rel_residual", "obj_gap", "iterations", "status"],
            _grid_rows(spec, _accuracy_row),
        )
    elif spec.kind == "residual_vs_N":
        emit(
            "residual_vs_N.csv",
            ["n", "method", "rel_residual", "iterations", "termination", "status"],
            _grid_rows(spec, _residual_row),
        )
    elif spec.kind == "iteration_timing":
        emit(
            "iteration_timing.csv",
            ["n", "method", "seconds_per_iteration", "normalized", "status"],
            _timing_rows(spec),
        )
    else:
        table_rows, status_rows = _gapped_tables(spec)
        emit(
            "gapped_fit.csv",
            ["index", "observed", "signal"]
            + [f"fitted_{m}" for m in spec.methods],
            table_rows,
        )
        emit(
            "gapped_fit_status.csv",
            ["method", "iterations", "termination", "rel_residual", "rel_error", "status"],
            status_rows,
        )

    csv_name = written[0].name
    script = out_dir / f"plot_{spec.kind}.py"
    script.write_text(_plot_script(spec.kind, csv_name))
    written.append(script)
    return written
