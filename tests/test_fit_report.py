"""The fit report: a checkout against itself moves no fit, and a checkout
with a perturbed start moves fits and flips the ones that raise."""

from __future__ import annotations

import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "tests" / "fit_report.py"

SUMMARY = re.compile(
    r"fit_report workload=(\S+) seeds=100 fits=(\d+) a_failed=(\d+) b_failed=(\d+) "
    r"flipped=(\d+) moved=(\d+) rel_tol=(\S+)"
)
SIDE = re.compile(
    r"  ([ab]): failed=(\d+) iterations=(\d+) terminations=(\S+) median_error=(\S+)"
)


def _report(checkout_b, *workloads, rel_tol=None):
    argv = [str(ROOT), str(checkout_b), "--seed", "100", "--smoke"]
    if rel_tol is not None:
        argv += ["--rel-tol", rel_tol]
    for name in workloads:
        argv += ["--workload", name]
    done = subprocess.run(
        [sys.executable, str(SCRIPT), *argv],
        capture_output=True, text=True, check=True, timeout=300,
    )
    return done.stdout.splitlines()


def test_fit_report_of_a_checkout_against_itself_moves_no_fit():
    lines = _report(ROOT, "trend-long", "gapped-short", "kernel-banded")
    assert len(lines) == 9
    for block, (name, fits, rel_tol) in zip(
        range(0, 9, 3),
        [("trend-long", 4, "1e-09"), ("gapped-short", 4, "1e-09"), ("kernel-banded", 2, "5e-09")],
    ):
        summary = SUMMARY.fullmatch(lines[block])
        assert summary, lines[block]
        assert summary[1] == name and int(summary[2]) == fits
        # each workload's own tolerance
        assert summary[7] == rel_tol
        assert summary.group(3, 4, 5, 6) == ("0", "0", "0", "0")
        a, b = (SIDE.fullmatch(line) for line in lines[block + 1 : block + 3])
        assert a and b and a[1] == "a" and b[1] == "b"
        # the same fits on both sides: every count and the median agree
        assert a.group(2, 3, 4, 5) == b.group(2, 3, 4, 5)


def test_fit_report_rel_tol_applies_to_every_workload():
    lines = _report(ROOT, "gapped-short", "kernel-banded", rel_tol="2e-09")
    summaries = [SUMMARY.fullmatch(line) for line in (lines[0], lines[3])]
    assert all(summaries), lines
    assert [m[7] for m in summaries] == ["2e-09", "2e-09"]


def test_fit_report_lists_moved_and_flipped_fits(tmp_path):
    """A checkout whose ``s-mgn`` fits raise, and whose other fits start
    from a start scaled by (1 + 0.3·cos k), flips the two ``s-mgn`` cells and
    moves the ``mgn`` ones, worst first."""
    other = tmp_path / "other"
    shutil.copytree(ROOT / "src" / "hmgn", other / "src" / "hmgn",
                    ignore=shutil.ignore_patterns("__pycache__"))
    init = other / "src" / "hmgn" / "__init__.py"
    init.write_text(
        init.read_text(encoding="utf-8")
        + "\n\n_fit_from = fit\n\n\n"
        + "def fit(x, r=None, w=None, config=None, a0=None):\n"
        + "    import numpy as np\n"
        + "    if config.method == 's-mgn':\n"
        + "        raise RankDeficiencyError('this checkout fails s-mgn')\n"
        + "    start = initial_glrr(x, r).coeffs if a0 is None else np.asarray(a0)\n"
        + "    start = start * (1.0 + 0.3 * np.cos(np.arange(start.size)))\n"
        + "    return _fit_from(x, w=w, config=config, a0=start)\n",
        encoding="utf-8",
    )
    lines = _report(other, "gapped-short")
    summary = SUMMARY.fullmatch(lines[0])
    assert summary, lines[0]
    assert summary.group(1, 2, 3, 4, 5) == ("gapped-short", "4", "0", "2", "2")
    assert summary[7] == "1e-09"
    moved = int(summary[6])
    assert moved >= 1
    flipped = lines[1:3]
    assert [line.split()[:3] for line in flipped] == [
        ["flipped", "seed=100", "cell=s-mgn/0"],
        ["flipped", "seed=100", "cell=s-mgn/1"],
    ]
    assert all(line.endswith("a=ok b=RankDeficiencyError") for line in flipped)
    rels = []
    for line in lines[3 : 3 + moved]:
        match = re.match(r"  moved seed=100 cell=mgn/\d rel=(\S+) ", line)
        assert match, line
        rels.append(abs(float(match[1])))
    assert min(rels) > 1e-9 and rels == sorted(rels, reverse=True)
    a, b = (SIDE.fullmatch(line) for line in lines[3 + moved :])
    assert a and b and (a[2], b[2]) == ("0", "2")
    assert "RankDeficiencyError:2" in b[4]
