"""Steadiness, reproducibility and layer-split check of the fit benchmark.

    python3 perfbench/steady.py [--held-out]

For each workload in ``BENCHMARK.json``, runs the benchmark for
``run_seconds`` once per seed on ten seeds (from the development seed, or
from the held-out seed with ``--held-out``), then runs the same ten seeds a
second time.  Per end-to-end metric it prints each set's median and spread
(the distance between the first and third quartile of the ten values, as
``statistics.quantiles(values, n=4)`` gives them, as a share of the median)
and the second median's change against the first, next to the metric's
bound.  It requires:

- every run to be correct;
- every spread, ``setup_s`` included, to stay within the metric's bound;
- the second median to be no worse than the first by more than the bound;
- every fit of a seed to take the same iterations and end the same way in
  both sets;
- the traced run of the first seed to show the layer split the workload was
  chosen for.

Exits 1 if a check fails; the summary is also written to
``perfbench/out/steady.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"

#: runs per set, one seed each
RUNS = 10
#: first seed of the runs used while writing and tuning the benchmark
DEV_SEED = 100
#: first seed of the runs kept aside for checking a later performance claim
HELD_OUT_SEED = 7919

#: reported ``.total_s`` metric that must be the largest, per workload
SPLIT_LEADER = {
    "trend-long": "nullspace.find_rotation.total_s",
    "gapped-short": "nullspace.find_rotation.total_s",
    "kernel-banded": "projection.GammaFactor.total_s",
}


def run_once(declared, workload, seed, trace):
    cmd = declared["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(declared["run_seconds"]), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    report = json.loads(lines[-2])["report"]
    result = json.loads(lines[-1])
    return report, result


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_set(declared, workload, seeds, label):
    runs, problems = [], []
    for seed in seeds:
        report, result = run_once(declared, workload, seed, 0)
        if not result["correct"]:
            problems.append(f"{label} seed {seed}: wrong answers {report['failures']}")
        runs.append((report, result))
        print(f"  {label} seed {seed}: " + "  ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
            + f"  failed {result['failed']}/{result['attempted']} {report['failures'] or ''}",
            flush=True)
    return runs, problems


def check_workload(declared, workload, seeds):
    first, problems = run_set(declared, workload, seeds, "set 1")
    second, found = run_set(declared, workload, seeds, "set 2")
    problems += found

    summary = {}
    for metric in declared["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        sets = [[result["metrics"][name]["value"] for _, result in runs]
                for runs in (first, second)]
        medians = [statistics.median(v) for v in sets]
        spreads = [spread(v) for v in sets]
        sign = 1.0 if metric["better"] == "lower" else -1.0
        worse = sign * (medians[1] - medians[0]) / medians[0]
        summary[name] = {"bound": bound, "values": sets, "medians": medians,
                         "spreads": spreads, "second_worse_by": worse}
        for label, s in zip(("set 1", "set 2"), spreads):
            if s > bound:
                problems.append(f"{label} {name} spread {s:.3f} > bound {bound}")
        if worse > bound:
            problems.append(f"{name} set-2 median worse by {worse:.3f} > bound {bound}")
        verdict = ("steady" if max(spreads) < bound / 3
                   else "within bound" if max(spreads) <= bound else "OVER BOUND")
        print(f"  {name:14s} medians {medians[0]:.6g} / {medians[1]:.6g} ({worse:+.3f} worse)  "
              f"spreads {spreads[0]:.3f} / {spreads[1]:.3f}  bound {bound}  {verdict}")

    # figures the report carries without a bound, for comparison
    bounded = {m["name"] for m in declared["end_to_end"]}
    for name in first[0][0]["metrics"]:
        values = [report["metrics"][name]["value"] for report, _ in first]
        if name in bounded or None in values or statistics.median(values) == 0:
            continue
        summary[name] = {"median": statistics.median(values), "values": values,
                         "spread": spread(values)}
        print(f"  {name:14s} median {summary[name]['median']:.6g}  "
              f"spread {summary[name]['spread']:.3f}  (report only, set 1)")

    # same code, same seed: every shared fit must iterate and stop identically
    key = lambda fit: (fit[0], fit[1], fit[2])  # cell, iterations, termination
    shared = differ = 0
    for seed, (a, _), (b, _) in zip(seeds, first, second):
        pairs = list(zip(a["fits"], b["fits"]))
        bad = [(x, y) for x, y in pairs if key(x) != key(y)]
        shared += len(pairs)
        differ += len(bad)
        if bad:
            problems.append(f"seed {seed} fits differ between sets: {bad[:3]}")
    print(f"  repeat: {shared} shared fits, {differ} differ")
    summary["repeat"] = {"shared_fits": shared, "differ": differ}
    summary["environment"] = first[0][0]["environment"]
    return summary, problems


def check_split(declared, workload, seed):
    report, result = run_once(declared, workload, seed, 1)
    metrics = report["metrics"]
    totals = {k: v["value"] for k, v in metrics.items() if k.endswith(".total_s")}
    leader = max(totals, key=totals.get)
    problems = []
    if leader != SPLIT_LEADER[workload]:
        problems.append(f"{workload}: largest total is {leader}, expected {SPLIT_LEADER[workload]}")
    if workload == "kernel-banded" and metrics["nullspace.find_rotation.calls"]["value"] != 0:
        problems.append("kernel-banded called nullspace.find_rotation")
    if not result["correct"]:
        problems.append(f"{workload} traced run: wrong answers {report['failures']}")
    print(f"  traced: largest total {leader} ({totals[leader]:.4g} s/fit), "
          f"coverage {metrics['trace.coverage']['value']:.4f}, "
          f"overhead {metrics['trace.overhead']['value']:+.4f}")
    return {k: v["value"] for k, v in metrics.items()}, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--held-out", action="store_true",
                        help="use the held-out seeds instead of the development seeds")
    args = parser.parse_args(argv)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())

    first = HELD_OUT_SEED if args.held_out else DEV_SEED
    seeds = list(range(first, first + RUNS))
    summary, problems = {}, []
    for workload in (w["name"] for w in declared["workloads"]):
        print(f"{workload}:", flush=True)
        summary[workload], found = check_workload(declared, workload, seeds)
        problems += found
        summary[workload]["traced"], found = check_split(declared, workload, seeds[0])
        problems += found
    OUT.mkdir(exist_ok=True)
    (OUT / "steady.json").write_text(json.dumps(summary, indent=1))
    for problem in problems:
        print("FAIL:", problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
