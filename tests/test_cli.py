"""End-to-end tests for the ``hmgn`` command-line interface."""

from __future__ import annotations

import ast
import csv
import json

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from hmgn.cli import main, parse_components
from hmgn.problems import gapped_preset
from hmgn.series import ModelComponent, generate_model_signal, read_series_csv

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


def test_experiment_thread_pool_is_deterministic(tmp_path, monkeypatch, capsys):
    serial = experiment_files(tmp_path, "serial")
    monkeypatch.setenv("HMGN_THREADS", "3")
    pooled = experiment_files(tmp_path, "pooled")
    capsys.readouterr()
    for fs, fp in zip(serial, pooled):
        assert fs.read_bytes() == fp.read_bytes()


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


def test_experiment_rejects_oversized_n(tmp_path, capsys):
    out_dir = tmp_path / "big"
    assert (
        run(
            "experiment", "--kind", "residual_vs_N", "--n-list", "20000",
            "--out-dir", out_dir,
        )
        == 2
    )
    err = capsys.readouterr().err
    assert "extend" in err
