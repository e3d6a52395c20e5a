"""Reduced-size self-test of the fit benchmark.

    python3 perfbench/selftest.py

Checks that ``BENCHMARK.json`` has the declared shape, then runs every
workload at reduced size (``run.py --smoke``), untraced and traced, and
checks that each run passes its correctness gate and prints every declared
metric with its unit, plus the full report.  Last, it copies only
``BENCHMARK.json`` and the benchmark's files into an empty directory and
checks that the benchmark refuses to run there.  Exits 1 on any failure.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
#: every end-to-end figure the report line carries, bounded or not
REPORTED = ("iter_ms_p25", "iter_ms_p50", "fit_s_p50", "fit_s_p90", "fits_per_s",
            "fail_ratio", "err_ref_max", "setup_s", "rss_peak_mb")
ENVIRONMENT = ("threads", "python", "numpy", "scipy", "blas", "nproc")


def check_declaration(declared) -> list:
    problems = []
    expected = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(declared) != expected:
        problems.append(f"BENCHMARK.json keys {sorted(declared)}")
    for path in declared["paths"]:
        if not (ROOT / path).is_dir():
            problems.append(f"path {path} is not a directory")
    if not 1 <= declared["run_seconds"] <= 60:
        problems.append("run_seconds outside 1..60")
    names = []
    for w in declared["workloads"]:
        names.append(w["name"])
        if set(w) != {"name", "why"} or len(w["why"]) > 200 or "\n" in w["why"]:
            problems.append(f"workload entry {w['name']}")
    for m in declared["end_to_end"]:
        names.append(m["name"])
        if set(m) != {"name", "unit", "better", "bound"} or not 0 < m["bound"] <= 0.25:
            problems.append(f"end_to_end entry {m['name']}")
    for m in declared["per_layer"]:
        names.append(m["name"])
        if set(m) != {"name", "unit", "better"}:
            problems.append(f"per_layer entry {m['name']}")
    for m in declared["end_to_end"] + declared["per_layer"]:
        if not UNIT.match(m["unit"]) or m["better"] not in ("lower", "higher"):
            problems.append(f"unit or direction of {m['name']}")
    problems += [f"bad name {n!r}" for n in names if not NAME.match(n)]
    if len(set(names)) != len(names):
        problems.append("a name is used twice")
    setup = [m for m in declared["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        problems.append("setup_s missing or malformed")
    return problems


def check_run(declared, workload, trace) -> list:
    cmd = declared["command"] + [
        "--workload", workload, "--seed", "1", "--seconds", "1",
        "--trace", str(trace), "--smoke",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    where = f"{workload} trace={trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    report = json.loads(lines[-2])["report"]
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{where}: {result['correct']=} {result['failed']=} {report['failures']}")
    declared_metrics = declared["per_layer" if trace else "end_to_end"]
    if set(result["metrics"]) != {m["name"] for m in declared_metrics}:
        problems.append(f"{where}: metric names differ from BENCHMARK.json")
    for m in declared_metrics:
        got = result["metrics"].get(m["name"], {})
        value = got.get("value")
        if set(got) != {"value", "unit"} or got.get("unit") != m["unit"]:
            problems.append(f"{where}: {m['name']} entry {got}")
        elif isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{where}: {m['name']} value {value!r}")
    if not trace:
        for name in REPORTED:
            entry = report["metrics"].get(name, {})
            if set(entry) != {"value", "unit", "samples"}:
                problems.append(f"{where}: report lacks {name} with unit and samples")
    missing_env = [k for k in ENVIRONMENT if k not in report["environment"]]
    if missing_env:
        problems.append(f"{where}: environment lacks {missing_env}")
    return problems


def check_bare(declared) -> list:
    """Only BENCHMARK.json and the benchmark's files: the run must fail."""
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    for path in declared["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("out", "__pycache__"))
    cmd = declared["command"] + [
        "--workload", declared["workloads"][0]["name"], "--seed", "1",
        "--seconds", "1", "--trace", "0",
    ]
    try:
        proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_declaration(declared)
    for w in declared["workloads"]:
        for trace in (0, 1):
            found = check_run(declared, w["name"], trace)
            print(f"{w['name']} trace={trace}: {'ok' if not found else 'FAIL'}", flush=True)
            problems += found
    found = check_bare(declared)
    print(f"bare directory refused: {'ok' if not found else 'FAIL'}")
    problems += found
    for problem in problems:
        print("FAIL:", problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
