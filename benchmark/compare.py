#!/usr/bin/env python3
"""Compare two sets of ptsto_bench runs against the bounds in BENCHMARK.json.

    python3 benchmark/compare.py PARENT.jsonl CHANGE.jsonl [--bench BENCHMARK.json]

Each file holds the output of any number of runs; the per-workload
`ptsto.benchmark/1` record lines are read and everything else is
skipped. The i-th parent run of a workload is paired with the i-th
change run of that workload, so run the two sides alternately.

One row per (workload, end-to-end metric), marked:

  improved    at least 10 pairs, the change wins at least 9 in 10 of them
              (ties count for neither) and the medians differ by more than
              the parent's interquartile spread;
  worse       the change's median is worse than the parent's by more than
              the metric's bound;
  unresolved  the run-to-run spread of either side is wider than the bound
              and not every change run reads better than every parent run;
  unchanged   otherwise.

A gain does not count when more operations failed in the change than in
the parent. The exit status is 1 when any row is worse, else 0.
"""

import argparse
import json
import statistics
import sys


def records(path):
    """Every per-workload record in a file, in order. A run of all
    workloads echoes its children's records before its summary line, so
    the summary is skipped."""
    out = []
    with open(path) as f:
        for line in f:
            try:
                j = json.loads(line)
            except ValueError:
                continue
            if isinstance(j, dict) and j.get("schema") == "ptsto.benchmark/1" and "workload" in j:
                out.append(j)
    return out


def by_workload(recs):
    groups = {}
    for r in recs:
        groups.setdefault(r["workload"], []).append(r)
    return groups


def spread(values):
    """Interquartile distance as a share of the median (0 for one run)."""
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q[2] - q[0]) / med if med else 0.0


def iqr(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return q[2] - q[0]


def verdict(parent, change, better, bound, gains_count):
    sign = 1.0 if better == "lower" else -1.0
    mp, mc = statistics.median(parent), statistics.median(change)
    worse_by = sign * (mc - mp) / mp if mp else 0.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (p - c) > 0)
    if (gains_count and len(pairs) >= 10 and wins >= 0.9 * len(pairs)
            and abs(mc - mp) > iqr(parent)):
        return "improved", worse_by
    if worse_by > bound:
        return "worse", worse_by
    all_better = all(sign * (p - c) > 0 for p in parent for c in change)
    if max(spread(parent), spread(change)) > bound and not all_better:
        return "unresolved", worse_by
    return "unchanged", worse_by


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--bench", default="BENCHMARK.json")
    args = ap.parse_args()
    with open(args.bench) as f:
        bench = json.load(f)
    parent, change = by_workload(records(args.parent)), by_workload(records(args.change))
    failed = {side: sum(r["failed"] for rs in runs.values() for r in rs)
              for side, runs in (("parent", parent), ("change", change))}
    gains_count = failed["change"] <= failed["parent"]
    print("failed operations: parent %d, change %d%s" % (
        failed["parent"], failed["change"], "" if gains_count else " (gains do not count)"))
    print("%-14s %-16s %5s %14s %14s %8s %7s %7s  %s" % (
        "workload", "metric", "pairs", "parent med", "change med", "worse", "spread", "bound", "verdict"))
    any_worse = False
    for w in [x["name"] for x in bench["workloads"]]:
        if w not in parent or w not in change:
            print("%-14s (missing from %s)" % (w, "parent" if w not in parent else "change"))
            continue
        for m in bench["end_to_end"]:
            name = m["name"]
            p = [r["metrics"][name]["value"] for r in parent[w]]
            c = [r["metrics"][name]["value"] for r in change[w]]
            v, worse_by = verdict(p, c, m["better"], m["bound"], gains_count)
            any_worse = any_worse or v == "worse"
            print("%-14s %-16s %5d %14.6g %14.6g %+7.1f%% %6.1f%% %6.0f%%  %s" % (
                w, name, min(len(p), len(c)), statistics.median(p), statistics.median(c),
                100 * worse_by, 100 * max(spread(p), spread(c)), 100 * m["bound"], v))
    sys.exit(1 if any_worse else 0)


if __name__ == "__main__":
    main()
