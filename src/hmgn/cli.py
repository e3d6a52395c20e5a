"""Command-line surface: fit series from CSV, generate test data, run suites.

Examples
--------
Generate the gapped rank-4 preset and fit it::

    hmgn generate --preset twotone50 --seed 3 --out data.csv
    hmgn fit --input data.csv --rank 4 --method s-mgn

Run the accuracy suite::

    hmgn experiment --kind known_minimum_accuracy --n-list 20,100,1000 \\
        --methods mgn,s-mgn --out-dir results/

Exit codes: 0 on success, 1 on read/solve failure, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence

import numpy as np

from .errors import HmgnError
from .experiments import ExperimentSpec, KINDS, parse_weight_spec, run_experiment
from .problems import PRESETS, add_relative_noise, apply_gaps, parse_gap_ranges
from .series import (
    GlrrVector,
    ModelComponent,
    TimeSeries,
    generate_model_signal,
    read_series_csv,
    write_series_csv,
)
from .solvers import METHODS, SolverConfig, fit

__all__ = ["main"]


def parse_components(spec: str) -> List[ModelComponent]:
    """Parse "POLY:BASE:OMEGA:PHI[+...]" into model components.

    POLY is a comma-separated polynomial in the index n, BASE the exponential
    base per step, OMEGA the frequency in cycles per step, PHI the phase:
    each component contributes P(n)·BASEⁿ·sin(2πΩn + φ).
    """
    components = []
    for part in spec.split("+"):
        fields = part.strip().split(":")
        if len(fields) != 4:
            raise ValueError(
                f"component {part!r} must have POLY:BASE:OMEGA:PHI fields"
            )
        poly = tuple(float(c) for c in fields[0].split(","))
        base = float(fields[1])
        if base <= 0:
            raise ValueError(f"exponential base must be positive, got {base}")
        components.append(
            ModelComponent(
                poly=poly,
                alpha=float(np.log(base)),
                omega=float(fields[2]),
                phi=float(fields[3]),
            )
        )
    return components


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hmgn",
        description="Weighted Hankel low-rank series approximation toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit a low-rank series to a CSV column")
    p_fit.add_argument("--input", required=True, help="input CSV (value column)")
    p_fit.add_argument("--rank", type=int, help="signal rank r")
    p_fit.add_argument("--method", default="s-mgn", choices=METHODS)
    p_fit.add_argument(
        "--weights",
        default="identity",
        help="identity | ar:phi1[,phi2,...][:sigma2]",
    )
    p_fit.add_argument("--max-iter", type=int, default=200)
    p_fit.add_argument("--a0", help="file with r+1 starting recurrence coefficients")
    p_fit.add_argument(
        "--out",
        help="output CSV path (default: <input>.fit.csv; metadata in .fit.json)",
    )

    p_gen = sub.add_parser("generate", help="write a synthetic series CSV")
    source = p_gen.add_mutually_exclusive_group(required=True)
    source.add_argument("--preset", choices=sorted(PRESETS))
    source.add_argument(
        "--components",
        help="POLY:BASE:OMEGA:PHI[+...] model components (see docs)",
    )
    p_gen.add_argument(
        "--n", type=int, help="series length of --components (default 50)"
    )
    p_gen.add_argument(
        "--gaps",
        help="1-based inclusive ranges to blank, e.g. 10-19,35-39; 'none' disables",
    )
    p_gen.add_argument(
        "--noise",
        type=float,
        help="relative noise level (default: preset recipe, or 0 for components)",
    )
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True)

    p_exp = sub.add_parser("experiment", help="run a benchmark suite")
    p_exp.add_argument("--kind", required=True, choices=KINDS)
    p_exp.add_argument("--n-list", help="comma-separated series lengths")
    p_exp.add_argument(
        "--methods", default="mgn,s-mgn", help="comma-separated method names"
    )
    p_exp.add_argument("--weights", default="identity", help="not for gapped_fit")
    p_exp.add_argument(
        "--seed", type=int, default=0, help="noise seed of gapped_fit (no other kind)"
    )
    p_exp.add_argument("--max-iter", type=int, default=200)
    p_exp.add_argument("--out-dir", required=True)
    return parser


def _cmd_fit(args: argparse.Namespace) -> int:
    series = read_series_csv(args.input)
    w = parse_weight_spec(args.weights, series.n)
    a0 = None
    if args.a0 is not None:
        a0 = GlrrVector(np.loadtxt(args.a0, ndmin=1))
    if args.rank is None and a0 is None:
        raise ValueError("either --rank or --a0 is required")
    config = SolverConfig(method=args.method, max_iter=args.max_iter)
    result = fit(series, r=args.rank, w=w, config=config, a0=a0)

    out_csv = Path(args.out) if args.out else Path(args.input).with_suffix(".fit.csv")
    out_json = out_csv.with_suffix(".json")
    with open(out_csv, "w", newline="") as fh:
        fh.write("index,observed,fitted\n")
        for i in range(series.n):
            observed = repr(float(series.values[i])) if series.mask[i] else ""
            fh.write(f"{i + 1},{observed},{repr(float(result.signal[i]))}\n")
    metadata = {
        "method": config.method,
        "iterations": result.iterations,
        "weighted_residual": result.trace.rows[-1].objective,
        "glrr_coefficients": [float(c) for c in result.glrr.coeffs],
        "glrr_rel_residual": result.glrr_rel_residual,
        "termination": result.trace.termination,
        "line_search_trials": sum(row.trials for row in result.trace.rows),
    }
    out_json.write_text(json.dumps(metadata, indent=2) + "\n")
    print(f"wrote {out_csv} and {out_json}")
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    gaps = None
    if args.gaps is not None:
        gaps = () if args.gaps == "none" else parse_gap_ranges(args.gaps)
    if args.preset is not None:
        if args.n is not None:
            raise ValueError("--n applies to --components only")
        overrides = {"noise_level": args.noise, "gaps": gaps}
        series, _signal = PRESETS[args.preset](
            args.seed, **{k: v for k, v in overrides.items() if v is not None}
        )
    else:
        n = 50 if args.n is None else args.n
        values = generate_model_signal(parse_components(args.components), n).values
        if args.noise:
            values = add_relative_noise(values, args.noise, args.seed)
        series = TimeSeries(apply_gaps(values, gaps or ()))
    write_series_csv(args.out, series)
    print(f"wrote {args.out} ({series.n} rows)")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    spec = ExperimentSpec(
        kind=args.kind,
        n_list=tuple(int(tok) for tok in args.n_list.split(",")) if args.n_list else (),
        methods=tuple(tok.strip() for tok in args.methods.split(",") if tok.strip()),
        weights=args.weights,
        seed=args.seed,
        max_iter=args.max_iter,
    )
    written = run_experiment(spec, args.out_dir)
    for path in written:
        print(f"wrote {path}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "fit":
            return _cmd_fit(args)
        if args.command == "generate":
            return _cmd_generate(args)
        return _cmd_experiment(args)
    except ValueError as exc:
        print(f"hmgn {args.command}: {exc}", file=sys.stderr)
        return 2
    except (HmgnError, OSError) as exc:
        print(f"hmgn {args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
