"""The paired A/B timing script, one pass of a checkout against itself."""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "tests" / "ab_paired.py"


def test_ab_paired_one_pass_against_itself():
    argv = [str(ROOT), str(ROOT), "--workload", "gapped-short",
            "--seconds", "0", "--seed", "100", "--smoke"]
    done = subprocess.run(
        [sys.executable, str(SCRIPT), *argv],
        capture_output=True, text=True, check=True, timeout=300,
    )
    lines = done.stdout.splitlines()
    assert len(lines) == 1
    number = r"(\d+\.\d{4})"
    match = re.fullmatch(
        r"ab_paired workload=gapped-short seed=100 passes=1 cells=4 "
        rf"a_iter_ms_p25={number} b_iter_ms_p25={number} p25_ratio={number} "
        rf"cell_median_ratio={number} iterations_differ=0",
        lines[0],
    )
    assert match, lines[0]
    a_ms, b_ms = float(match[1]), float(match[2])
    assert a_ms > 0.0 and b_ms > 0.0
    assert abs(float(match[3]) - b_ms / a_ms) <= 1e-3 * (1.0 + b_ms / a_ms)
