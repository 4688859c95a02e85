#!/usr/bin/env python3
"""Compare two sets of presto_bench run records.

Usage:
    python3 presto_bench/compare_runs.py [--agree] A B

A and B are each one record (results/benchmark/*.json) or a directory of
records (presto_bench --record=DIR, one run per seed); A is the baseline.
For every (end-to-end metric, workload) pair this prints each side's value,
B's change against the bound BENCHMARK.json fixes for the metric, and each
side's spread. A side's value is the median of its records' values; its
spread is the quartile spread (Q3 - Q1) / median across its records, or
across the reps of its one record. A positive "worse" means B is worse.

Verdicts:
  same        |worse| <= bound
  REGRESSION  worse > bound
  improved    worse < -bound
  unresolved  a side's spread exceeds the bound, unless every value of one
              side beats every value of the other

Exits 1 on any regression, on a workload missing from B, or when a run in B
failed a check. With --agree (two sets of the same commit) it also exits 1
on "improved" and "unresolved": the sets must agree within the bounds.
"""

import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_bounds():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m for m in spec["end_to_end"]}


def load_set(path):
    files = sorted(glob.glob(os.path.join(path, "*.json"))) if os.path.isdir(path) else [path]
    records = []
    for name in files:
        with open(name) as f:
            records.append(json.load(f))
    if not records:
        sys.exit("compare_runs.py: no records in " + path)
    return records


def spread(values):
    """Quartile spread as a share of the median (0 for a single value)."""
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(med)


def side(records, wname, mname):
    """(value, spread, values to test dominance with) for one side, or None."""
    values, samples = [], []
    for rec in records:
        metric = rec["workloads"].get(wname, {}).get("end_to_end", {}).get(mname)
        if metric and metric["samples"]:
            values.append(metric["median"])
            samples = metric["samples"]
    if not values:
        return None
    spread_over = values if len(values) > 1 else samples
    return statistics.median(values), spread(spread_over), spread_over


def verdict(a, b, bound, lower_better):
    worse = (b[0] - a[0]) / a[0]
    if not lower_better:
        worse = -worse
    va, vb = a[2], b[2]
    b_beats_all = max(vb) < min(va) if lower_better else min(vb) > max(va)
    a_beats_all = min(vb) > max(va) if lower_better else max(vb) < min(va)
    if max(a[1], b[1]) > bound and not (b_beats_all or a_beats_all):
        return worse, "unresolved"
    if worse > bound:
        return worse, "REGRESSION"
    if worse < -bound:
        return worse, "improved"
    return worse, "same"


def describe(label, records):
    r = records[0]
    print("%s: %d record(s), %s%s, %s, %s, %s cpus" % (
        label, len(records), r["git_sha"][:12], " (dirty)" if r["git_dirty"] else "",
        r["build_type"], r["compiler"], r["host_cpus"]))


def main(argv):
    flags = {a for a in argv if a.startswith("--")}
    args = [a for a in argv if not a.startswith("--")]
    if len(args) != 2 or flags - {"--agree"}:
        sys.exit(__doc__)
    agree = "--agree" in flags
    set_a, set_b = load_set(args[0]), load_set(args[1])
    bounds = load_bounds()
    describe("A", set_a)
    describe("B", set_b)

    header = "%-15s %-15s %13s %13s %8s %6s %7s %7s  %s" % (
        "workload", "metric", "A", "B", "worse", "bound", "sprd A", "sprd B", "verdict")
    print(header)
    print("-" * len(header))
    bad = False
    workloads = sorted({w for rec in set_a for w in rec["workloads"]})
    for wname in workloads:
        in_b = [rec["workloads"][wname] for rec in set_b if wname in rec["workloads"]]
        if not in_b:
            print("%-15s missing from B" % wname)
            bad = True
            continue
        failed = sum(w["failed"] for w in in_b)
        if failed:
            print("%-15s %d checked run(s) failed in B" % (wname, failed))
            bad = True
        for mname, spec in bounds.items():
            a = side(set_a, wname, mname)
            b = side(set_b, wname, mname)
            if a is None or b is None:
                continue
            worse, v = verdict(a, b, spec["bound"], spec["better"] == "lower")
            print("%-15s %-15s %13.6g %13.6g %+7.1f%% %5.0f%% %6.1f%% %6.1f%%  %s" % (
                wname, mname, a[0], b[0], 100 * worse, 100 * spec["bound"],
                100 * a[1], 100 * b[1], v))
            if v == "REGRESSION" or (agree and v != "same"):
                bad = True
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
