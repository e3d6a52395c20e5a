"""The paired A/B timing script: one pass of a checkout against itself, and
a checkout whose fits raise."""

from __future__ import annotations

import re
import shutil
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
    # one line per cell, then the summary
    assert len(lines) == 5
    number = r"(\d+\.\d{4})"
    cells = []
    for line in lines[:-1]:
        match = re.fullmatch(
            rf"ab_paired cell=(\S+) a_ms_per_iter={number} "
            rf"b_ms_per_iter={number} ratio={number}",
            line,
        )
        assert match, line
        cells.append(match[1])
        a_ms, b_ms = float(match[2]), float(match[3])
        assert abs(float(match[4]) - b_ms / a_ms) <= 1e-3 * (1.0 + b_ms / a_ms)
    assert sorted(cells) == ["mgn/0", "mgn/1", "s-mgn/0", "s-mgn/1"]
    faults = r"(\d+\.\d)"
    match = re.fullmatch(
        r"ab_paired workload=gapped-short seed=100 passes=1 cells=4 "
        rf"a_iter_ms_p25={number} b_iter_ms_p25={number} p25_ratio={number} "
        rf"cell_median_ratio={number} iterations_differ=0 signals_differ=0 "
        rf"a_minflt_per_iter={faults} b_minflt_per_iter={faults} a_failed=0 b_failed=0",
        lines[-1],
    )
    assert match, lines[-1]
    a_ms, b_ms = float(match[1]), float(match[2])
    assert a_ms > 0.0 and b_ms > 0.0
    assert abs(float(match[3]) - b_ms / a_ms) <= 1e-3 * (1.0 + b_ms / a_ms)


def test_ab_paired_reports_a_side_whose_warm_up_fit_raises(tmp_path):
    """A checkout whose every fit raises ``HmgnError`` fails in set-up: the
    script names the side and the error class, and exits 1, without a
    traceback."""
    broken = tmp_path / "broken"
    shutil.copytree(ROOT / "src" / "hmgn", broken / "src" / "hmgn",
                    ignore=shutil.ignore_patterns("__pycache__"))
    init = broken / "src" / "hmgn" / "__init__.py"
    init.write_text(
        init.read_text(encoding="utf-8")
        + "\n\ndef fit(*args, **kwargs):\n"
        + "    raise RankDeficiencyError('every fit of this checkout raises')\n",
        encoding="utf-8",
    )
    argv = [str(ROOT), str(broken), "--workload", "gapped-short",
            "--seconds", "0", "--seed", "100", "--smoke"]
    done = subprocess.run(
        [sys.executable, str(SCRIPT), *argv],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 1, done.stderr
    assert "Traceback" not in done.stderr
    assert done.stdout.splitlines() == [
        "ab_paired workload=gapped-short seed=100 b_setup_failed=RankDeficiencyError"
    ]
