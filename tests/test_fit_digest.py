"""The fit digest tool on the self-test size of ``gapped-short``."""

from __future__ import annotations

import re

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
