"""The fit digest tool on the self-test size of ``gapped-short``."""

from __future__ import annotations

import re

import pytest

import fit_digest


def test_fit_digest_is_deterministic_and_sees_every_fit():
    digest, fits, raised = fit_digest.workload_digest("gapped-short", 100, smoke=True)
    assert re.fullmatch(r"[0-9a-f]{64}", digest)
    assert (fits, raised) == (4, 0)
    assert fit_digest.workload_digest("gapped-short", 100, smoke=True)[0] == digest
    # other inputs, other fits
    assert fit_digest.workload_digest("gapped-short", 101, smoke=True)[0] != digest


def test_fit_digest_prints_one_line_per_workload_and_seed(capsys):
    argv = ["--workload", "gapped-short", "--seed", "100", "--seed", "7919", "--smoke"]
    assert fit_digest.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[:2] for line in lines] == [
        ["gapped-short", "seed=100"],
        ["gapped-short", "seed=7919"],
    ]
    assert all(re.search(r"sha256=[0-9a-f]{64}$", line) for line in lines)


def test_fit_digest_cells_table_has_one_line_per_fit(capsys):
    argv = ["--workload", "gapped-short", "--seed", "100", "--smoke", "--cells"]
    assert fit_digest.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    fits = fit_digest.workload_fits("gapped-short", 100, smoke=True)
    assert len(lines) == len(fits) + 1
    assert lines[-1].startswith("gapped-short seed=100 fits=4 raised=0 sha256=")
    pattern = (
        r"gapped-short seed=100 (s-)?mgn/\d+ iterations=(\d+) "
        r"termination=(StepZero|SmallStepStop|MaxIter) trials=(\d+) "
        r"error=(\S+) within_bound=(True|False)"
    )
    for line, (cell, result) in zip(lines, fits):
        match = re.fullmatch(pattern, line)
        assert match and cell.cell_id in line
        assert int(match[2]) == result.iterations
        assert match[3] == result.trace.termination
        assert int(match[4]) == sum(row.trials for row in result.trace.rows)
        error = cell.error_of(result.signal)
        assert float(match[5]) == pytest.approx(error, rel=1e-3)
        assert match[6] == str(error <= cell.bound)
