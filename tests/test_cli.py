"""End-to-end tests for the ``hmgn`` command-line interface."""

from __future__ import annotations

import ast
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from hmgn import experiments
from hmgn.cli import main, parse_components
from hmgn.problems import build_known_minimum, gapped_preset
from hmgn.series import ModelComponent, generate_model_signal, read_series_csv
from hmgn.weights import Identity, ar_inverse_covariance, mask_missing, weighted_norm

ROOT = Path(__file__).resolve().parent.parent
RANK2 = "1:0.98:0.12:0.3"


def run(*argv):
    return main([str(a) for a in argv])


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------


def test_generate_preset_round_trips(tmp_path):
    out = tmp_path / "data.csv"
    assert run("generate", "--preset", "twotone50", "--seed", 5, "--out", out) == 0
    series = read_series_csv(out)
    want, _ = gapped_preset(seed=5)
    assert series.n == 50
    assert_array_equal(series.mask, want.mask)
    assert_array_equal(series.values, want.values)  # repr round-trip is exact


def test_generate_preset_gap_and_noise_overrides(tmp_path):
    out = tmp_path / "clean.csv"
    assert (
        run(
            "generate", "--preset", "twotone50", "--gaps", "none",
            "--noise", "0.0", "--out", out,
        )
        == 0
    )
    series = read_series_csv(out)
    assert series.mask.all()
    clean, signal = gapped_preset(seed=0, noise_level=0.0, gaps=None)
    assert_array_equal(series.values, signal)

    out2 = tmp_path / "shifted.csv"
    assert (
        run("generate", "--preset", "twotone50", "--gaps", "3-4", "--out", out2) == 0
    )
    series2 = read_series_csv(out2)
    assert not series2.mask[2:4].any()
    assert series2.mask.sum() == 48

    # the preset fixes its own length: --n belongs to --components
    out3 = tmp_path / "long.csv"
    assert run("generate", "--preset", "twotone50", "--n", 200, "--out", out3) == 2
    assert not out3.exists()


def test_generate_components_matches_model(tmp_path):
    out = tmp_path / "model.csv"
    assert run("generate", "--components", RANK2, "--n", 40, "--out", out) == 0
    series = read_series_csv(out)
    want = generate_model_signal(
        [ModelComponent(poly=(1.0,), alpha=float(np.log(0.98)), omega=0.12, phi=0.3)],
        40,
    )
    assert_array_equal(series.values, want.values)


def test_generate_components_seeded_noise(tmp_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    for out in (out_a, out_b):
        assert (
            run(
                "generate", "--components", RANK2, "--n", 30,
                "--noise", "0.1", "--seed", 7, "--out", out,
            )
            == 0
        )
    assert out_a.read_bytes() == out_b.read_bytes()
    clean = generate_model_signal(
        [ModelComponent(poly=(1.0,), alpha=float(np.log(0.98)), omega=0.12, phi=0.3)],
        30,
    ).values
    noisy = read_series_csv(out_a).values
    rel = np.linalg.norm(noisy - clean) / np.linalg.norm(clean)
    assert abs(rel - 0.1) <= 1e-12


def test_generate_csv_write_is_idempotent(tmp_path):
    from hmgn.series import write_series_csv

    out = tmp_path / "data.csv"
    run("generate", "--preset", "twotone50", "--seed", 1, "--out", out)
    first = out.read_bytes()
    write_series_csv(out, read_series_csv(out))
    assert out.read_bytes() == first


def test_component_spec_errors():
    with pytest.raises(ValueError):
        parse_components("1:0.9:0.1")  # missing phase
    with pytest.raises(ValueError):
        parse_components("1:-2.0:0.1:0.0")  # nonpositive base
    two = parse_components("1:0.9:0.2:0.0+0.2,0.1:1.05:0.04:0.785")
    assert len(two) == 2 and two[1].poly == (0.2, 0.1)


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------


def test_fit_noiseless_rank2(tmp_path, capsys):
    data = tmp_path / "model.csv"
    run("generate", "--components", RANK2, "--n", 40, "--out", data)
    out = tmp_path / "fit.csv"
    assert run("fit", "--input", data, "--rank", 2, "--out", out) == 0
    capsys.readouterr()

    meta = json.loads((tmp_path / "fit.json").read_text())
    assert meta["method"] == "s-mgn"
    assert meta["weighted_residual"] <= 1e-8
    assert meta["glrr_rel_residual"] <= 1e-8
    assert meta["termination"] in ("StepZero", "SmallStepStop")
    assert len(meta["glrr_coefficients"]) == 3
    # every iteration's line search projects at least once
    assert meta["line_search_trials"] >= meta["iterations"] >= 1

    rows = read_rows(out)
    assert len(rows) == 40
    observed = np.array([float(r["observed"]) for r in rows])
    fitted = np.array([float(r["fitted"]) for r in rows])
    assert np.linalg.norm(observed - fitted) <= 1e-8 * np.linalg.norm(observed)


def test_fit_accepts_a0_without_rank(tmp_path):
    data = tmp_path / "model.csv"
    run("generate", "--components", RANK2, "--n", 40, "--out", data)
    a0_file = tmp_path / "a0.txt"
    series = read_series_csv(data)
    from hmgn.solvers import initial_glrr

    np.savetxt(a0_file, initial_glrr(series, 2).coeffs)
    out = tmp_path / "fit.csv"
    assert run("fit", "--input", data, "--a0", a0_file, "--out", out) == 0
    meta = json.loads((tmp_path / "fit.json").read_text())
    assert meta["weighted_residual"] <= 1e-8


def test_fit_gapped_preset(tmp_path):
    data = tmp_path / "gapped.csv"
    run("generate", "--preset", "twotone50", "--seed", 3, "--out", data)
    out = tmp_path / "fit.csv"
    assert run("fit", "--input", data, "--rank", 4, "--method", "s-mgn",
               "--out", out) == 0
    meta = json.loads((tmp_path / "fit.json").read_text())
    assert meta["termination"] != "MaxIter"
    assert meta["glrr_rel_residual"] <= 1e-8
    rows = read_rows(out)
    # gaps are blank in the observed column but always filled in the fit
    assert sum(1 for r in rows if r["observed"] == "") == 15
    fitted = np.array([float(r["fitted"]) for r in rows])
    assert np.isfinite(fitted).all()


def test_fit_weighted_residual_is_the_objective_over_observed_entries(tmp_path):
    # fit masks the gaps out of W itself; the JSON reports the objective it
    # reached, which must be ‖X − S‖_W over the observed entries exactly
    data = tmp_path / "gapped.csv"
    run("generate", "--preset", "twotone50", "--seed", 3, "--out", data)
    out = tmp_path / "fit.csv"
    assert run("fit", "--input", data, "--rank", 4, "--method", "mgn",
               "--weights", "ar:0.5", "--out", out) == 0
    meta = json.loads((tmp_path / "fit.json").read_text())
    series = read_series_csv(data)
    assert series.has_missing
    fitted = np.array([float(r["fitted"]) for r in read_rows(out)])
    w = mask_missing(ar_inverse_covariance([0.5], 1.0, series.n), series.mask)
    assert meta["weighted_residual"] == weighted_norm(w, series.values - fitted)


def test_fit_usage_and_io_errors(tmp_path, capsys):
    data = tmp_path / "model.csv"
    run("generate", "--components", RANK2, "--n", 20, "--out", data)
    capsys.readouterr()
    # neither --rank nor --a0
    assert run("fit", "--input", data) == 2
    assert "--rank or --a0" in capsys.readouterr().err
    # unknown weight scheme
    assert run("fit", "--input", data, "--rank", 2, "--weights", "toeplitz") == 2
    # missing input file
    assert run("fit", "--input", tmp_path / "nope.csv", "--rank", 2) == 1
    # a starting GLRR with a non-finite coefficient
    a0_file = tmp_path / "a0.txt"
    a0_file.write_text("1.0\nnan\n1.0\n")
    assert run("fit", "--input", data, "--a0", a0_file) == 2
    assert "finite" in capsys.readouterr().err
    # a 3×2 table of coefficients is not a coefficient vector
    a0_file.write_text("1.0 -2.0\n1.0 0.5\n0.5 1.0\n")
    assert run("fit", "--input", data, "--a0", a0_file) == 2
    assert "one-dimensional" in capsys.readouterr().err
    # unknown method is an argparse usage error
    with pytest.raises(SystemExit) as exc:
        run("fit", "--input", data, "--rank", 2, "--method", "newton")
    assert exc.value.code == 2


def test_fit_kernel_methods_reject_weights_without_banded_inverse(tmp_path, capsys):
    gapped = tmp_path / "gapped.csv"
    run("generate", "--preset", "twotone50", "--seed", 3, "--out", gapped)
    model = tmp_path / "model.csv"
    run("generate", "--components", RANK2, "--n", 40, "--out", model)
    capsys.readouterr()
    # a gapped series masks the weights
    assert run("fit", "--input", gapped, "--rank", 4, "--method", "vpgn",
               "--out", tmp_path / "a.csv") == 1
    assert "Masked does not provide one" in capsys.readouterr().err
    # ar: weights are a banded W, not a banded W⁻¹
    assert run("fit", "--input", model, "--rank", 2, "--method", "s-vpgn",
               "--weights", "ar:0.5", "--out", tmp_path / "b.csv") == 1
    assert "BandedW does not provide one" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# experiment
# ---------------------------------------------------------------------------


def experiment_files(tmp_path, name, *extra):
    out_dir = tmp_path / name
    code = run(
        "experiment", "--kind", "known_minimum_accuracy", "--n-list", "20,30",
        "--methods", "s-mgn", "--out-dir", out_dir, *extra,
    )
    assert code == 0
    return sorted(out_dir.iterdir())


def test_experiment_outputs_and_determinism(tmp_path, capsys):
    files_a = experiment_files(tmp_path, "a")
    files_b = experiment_files(tmp_path, "b")
    capsys.readouterr()
    assert [f.name for f in files_a] == [f.name for f in files_b]
    for fa, fb in zip(files_a, files_b):
        assert fa.read_bytes() == fb.read_bytes()

    csvs = [f for f in files_a if f.suffix == ".csv"]
    assert len(csvs) == 1
    rows = read_rows(csvs[0])
    assert [r["n"] for r in rows] == ["20", "30"]
    assert all(r["status"] == "ok" for r in rows)
    assert all(float(r["dist"]) <= 1e-6 for r in rows)

    scripts = [f for f in files_a if f.suffix == ".py"]
    assert len(scripts) == 1
    ast.parse(scripts[0].read_text())  # emitted plot helper must be valid python


def grid_csv(tmp_path, name, kind, *extra):
    out_dir = tmp_path / name
    assert run("experiment", "--kind", kind, "--out-dir", out_dir, *extra) == 0
    path = out_dir / f"{kind}.csv"
    with open(path, newline="") as fh:
        header = next(csv.reader(fh))
    return path, header, read_rows(path)


def test_accuracy_row_marks_an_objective_below_the_known_minimum():
    # Y* minimizes the objective over the rank-r set, so a signal that beats
    # it by more than the tolerance has left the set
    problem = build_known_minimum(40)
    w = Identity(40)

    def status_of(signal):
        result = SimpleNamespace(signal=signal, glrr_rel_residual=0.0, iterations=1)
        return experiments._accuracy_row(problem, w, lambda: (result, "ok"))[-1]

    assert status_of(problem.y_star.values) == "ok"
    assert status_of(problem.x.values) == "below_minimum"
    toward_x = problem.x.values - problem.y_star.values
    for scale, status in ((0.1, "ok"), (10.0, "below_minimum")):
        # the objective falls by about scale·RTOL·minimum
        step = scale * experiments._BELOW_MINIMUM_RTOL * toward_x
        assert status_of(problem.y_star.values + step) == status
    failed = experiments._accuracy_row(
        problem, w, lambda: (None, "GammaBreakdownError")
    )
    assert failed == [None, None, None, None, "GammaBreakdownError"]


def test_experiment_residual_vs_n_rows(tmp_path, capsys):
    argv = ("--n-list", "20,30", "--methods", "mgn,vpgn", "--weights", "ar:0.5")
    path_a, header, rows = grid_csv(tmp_path, "a", "residual_vs_N", *argv)
    path_b, _, _ = grid_csv(tmp_path, "b", "residual_vs_N", *argv)
    capsys.readouterr()
    assert header == [
        "n", "method", "rel_residual", "iterations", "termination", "status"
    ]
    assert [(r["n"], r["method"]) for r in rows] == [
        ("20", "mgn"), ("20", "vpgn"), ("30", "mgn"), ("30", "vpgn"),
    ]
    for row in rows:
        if row["method"] == "mgn":
            assert row["status"] == "ok"
            assert float(row["rel_residual"]) <= 1e-8
            assert int(row["iterations"]) >= 1 and row["termination"]
        else:
            # an AR weight is a banded W, which the kernel methods reject
            assert row["status"] == "WeightVariantError"
            assert row["rel_residual"] == row["iterations"] == row["termination"] == ""
    assert path_a.read_bytes() == path_b.read_bytes()


def test_experiment_iteration_timing_rows(tmp_path, capsys):
    _, header, rows = grid_csv(
        tmp_path, "timing", "iteration_timing",
        "--n-list", "20,100", "--methods", "mgn,s-mgn,vpgn", "--weights", "ar:0.5",
    )
    capsys.readouterr()
    assert header == ["n", "method", "seconds_per_iteration", "normalized", "status"]
    assert [(r["n"], r["method"]) for r in rows] == [
        (n, m) for n in ("20", "100") for m in ("mgn", "s-mgn", "vpgn")
    ]
    for row in rows:
        if row["method"] == "vpgn":
            assert row["status"] == "WeightVariantError"
            assert row["seconds_per_iteration"] == row["normalized"] == ""
            continue
        assert row["status"] == "ok"
        assert float(row["seconds_per_iteration"]) > 0.0
        if row["n"] == "100":  # the baseline length when the grid holds it
            assert float(row["normalized"]) == 1.0


def test_iteration_timing_times_only_the_fit(tmp_path, monkeypatch, capsys):
    # a problem that takes 0.2 s to build must not show in the time per
    # iteration of a 5-iteration fit at N = 20
    build = experiments.build_known_minimum

    def slow_build(n):
        time.sleep(0.2)
        return build(n)

    monkeypatch.setattr(experiments, "build_known_minimum", slow_build)
    _, _, rows = grid_csv(
        tmp_path, "timing", "iteration_timing", "--n-list", "20", "--methods", "mgn"
    )
    capsys.readouterr()
    assert rows[0]["status"] == "ok"
    assert float(rows[0]["seconds_per_iteration"]) < 0.02


def test_experiment_gapped_kind_records_solver_failures(tmp_path, capsys):
    out_dir = tmp_path / "gapped"
    code = run(
        "experiment", "--kind", "gapped_fit", "--methods", "s-mgn,vpgn",
        "--seed", 3, "--out-dir", out_dir,
    )
    capsys.readouterr()
    assert code == 0
    status_rows = read_rows(next(out_dir.glob("*status*.csv")))
    by_method = {r["method"]: r for r in status_rows}
    assert by_method["s-mgn"]["status"] == "ok"
    # kernel-space methods cannot run under masked weights; the failure is
    # recorded as a row rather than aborting the suite
    assert by_method["vpgn"]["status"] == "WeightVariantError"


def test_experiment_spec_takes_long_series_lengths():
    # the N = 100 000 known-minimum runs have no length ceiling to pass
    spec = experiments.ExperimentSpec(kind="known_minimum_accuracy", n_list=(100000,))
    assert spec.n_list == (100000,)


def test_experiment_gapped_kind_rejects_series_lengths(tmp_path, capsys):
    out_dir = tmp_path / "gapped"
    assert (
        run("experiment", "--kind", "gapped_fit", "--n-list", "20", "--out-dir", out_dir)
        == 2
    )
    assert "takes no series lengths" in capsys.readouterr().err
    assert not out_dir.exists()


def test_experiment_gapped_kind_rejects_weights(tmp_path, capsys):
    # the preset fit runs at W = I, so a weight spec would go unread
    out_dir = tmp_path / "gapped"
    assert (
        run(
            "experiment", "--kind", "gapped_fit", "--weights", "ar:0.5",
            "--out-dir", out_dir,
        )
        == 2
    )
    assert "takes no weights" in capsys.readouterr().err
    assert not out_dir.exists()
    for weights in ("identity", " Identity ", ""):
        experiments.ExperimentSpec(kind="gapped_fit", weights=weights)


@pytest.mark.parametrize("kind", ["known_minimum_accuracy", "residual_vs_N", "iteration_timing"])
def test_experiment_grid_kinds_reject_a_seed(tmp_path, capsys, kind):
    # only gapped_fit draws noise; a grid kind wrote the same CSVs at any seed
    out_dir = tmp_path / "grid"
    assert (
        run(
            "experiment", "--kind", kind, "--n-list", "20", "--methods", "mgn",
            "--seed", "5", "--out-dir", out_dir,
        )
        == 2
    )
    assert "takes no seed" in capsys.readouterr().err
    assert not out_dir.exists()
    with pytest.raises(ValueError, match="takes no seed"):
        experiments.ExperimentSpec(kind=kind, seed=-1)
    assert experiments.ExperimentSpec(kind=kind, seed=0).seed == 0
    experiments.ExperimentSpec(kind="gapped_fit", seed=5)


#: one small run of every experiment kind with every method
PINNED_RUNS = {
    "known_minimum_accuracy": ("--n-list", "20,30"),
    "residual_vs_N": ("--n-list", "20,30"),
    "iteration_timing": ("--n-list", "20,30"),
    "gapped_fit": ("--seed", "3"),
}
#: the wall-clock columns, left out of the digest
TIMING_COLUMNS = ("seconds_per_iteration", "normalized")
#: SHA-256 of every file the runs above emit, in name order, with the
#: timing columns of iteration_timing.csv dropped (see emitted_digest)
PINNED_DIGEST = "10763d69e42f345ca7b526a0ed6a9c0e06a11065b9fd918f110fab7a662d0eb1"


def emitted_digest(out_dir) -> str:
    """SHA-256 over each file's name and text, without the timing columns."""
    digest = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        text = path.read_text()
        if path.name == "iteration_timing.csv":
            rows = list(csv.reader(io.StringIO(text)))
            keep = [i for i, col in enumerate(rows[0]) if col not in TIMING_COLUMNS]
            text = "\n".join(",".join(row[i] for i in keep) for row in rows)
        digest.update(path.name.encode() + b"\0" + text.encode() + b"\0")
    return digest.hexdigest()


def test_experiment_outputs_are_pinned(tmp_path, capsys):
    # headers, plot labels, row order and every fitted value, byte for byte
    out_dir = tmp_path / "all"
    for kind, extra in PINNED_RUNS.items():
        assert run(
            "experiment", "--kind", kind, "--methods", "mgn,s-mgn,vpgn,s-vpgn",
            "--out-dir", out_dir, *extra,
        ) == 0
    capsys.readouterr()
    assert sorted(f.name for f in out_dir.iterdir()) == [
        "gapped_fit.csv", "gapped_fit_status.csv", "iteration_timing.csv",
        "known_minimum_accuracy.csv", "plot_gapped_fit.py",
        "plot_iteration_timing.py", "plot_known_minimum_accuracy.py",
        "plot_residual_vs_N.py", "residual_vs_N.csv",
    ]
    assert emitted_digest(out_dir) == PINNED_DIGEST


@pytest.mark.parametrize(
    "demo", sorted(p.name for p in (ROOT / "demos").glob("*.py"))
)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
