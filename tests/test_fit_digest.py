"""The fit digest tool on the self-test size of ``gapped-short``, and the
same fits at one and two BLAS threads."""

from __future__ import annotations

import os
import re
import subprocess
import sys

import pytest

import fit_digest

_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def test_fit_digest_is_deterministic_and_sees_every_fit():
    digest, fits, raised = fit_digest.workload_digest("gapped-short", 100, smoke=True)
    assert re.fullmatch(r"[0-9a-f]{64}", digest)
    assert (fits, raised) == (4, 0)
    assert fit_digest.workload_digest("gapped-short", 100, smoke=True)[0] == digest
    # other inputs, other fits
    assert fit_digest.workload_digest("gapped-short", 101, smoke=True)[0] != digest


#: digests of the self-test sizes at seed 100; a change that moves any bit
#: of a fit changes them, and says so where it records its changes
SMOKE_DIGESTS = {
    "trend-long": "5a9a96069cdbdef1691e060ad98e9cfd3b3cb78c2285ff16ec198db67562c26e",
    "gapped-short": "6f0f69fb6a9846decc9070b8771c59108c9d38692bf332186b2148add4066d96",
    "kernel-banded": "929a9b3bcc66632abdbb7dd801479e0fa09d0833198af51727765e2796b8ca0c",
}


@pytest.mark.parametrize("name", sorted(SMOKE_DIGESTS))
def test_smoke_fits_are_bitwise_pinned(name):
    digest, _, raised = fit_digest.workload_digest(name, 100, smoke=True)
    assert raised == 0
    assert digest == SMOKE_DIGESTS[name]


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


def _digest_lines(threads):
    env = dict(os.environ, **{var: str(threads) for var in _THREAD_VARS})
    argv = ["--workload", "trend-long", "--workload", "kernel-banded", "--seed", "100"]
    done = subprocess.run(
        [sys.executable, fit_digest.__file__, *argv],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return done.stdout.splitlines()


def test_fits_are_bitwise_the_same_at_one_and_two_blas_threads():
    # trend-long (N = 5000) builds bases of Z(a); kernel-banded (N = 20000)
    # takes norms long enough for a threaded BLAS reduction to round
    # differently.  The thread variables are read when numpy loads, so each
    # count runs in its own process.
    one = _digest_lines(1)
    assert [line.split()[0] for line in one] == ["trend-long", "kernel-banded"]
    assert _digest_lines(2) == one
