#!/usr/bin/env python3
"""Compare two sets of bench_suite results, or validate one.

    python3 benchsuite/compare.py --base DIR... --head DIR...
    python3 benchsuite/compare.py --validate DIR...

Each DIR holds results files written by bench_suite
(<workload>-s<seed>-t<trace>-<pid>.json). Untraced runs (trace 0) are
compared metric by metric against the end-to-end bounds in BENCHMARK.json;
runs are paired in seed order within a workload.

For each (workload, metric) the table gives both medians and quartiles, the
share of pairs the head side won (ties count for neither) and a verdict:

  improved    at least 10 pairs (equal run counts), head won at least 9/10
              of them, and the medians differ by more than the base runs'
              own interquartile distance; with fewer or unequal runs such
              a gain is unresolved
  regressed   head's median is worse than base's by more than the bound
  unresolved  otherwise, when either side's spread (IQR / median) exceeds
              the bound, unless every head run beat every base run
  no change   otherwise

Exits 1 when any metric regressed or any run answered wrong, else 0.
--validate checks that every results file is correct and reports exactly
the metrics and units BENCHMARK.json lists for its trace mode.
"""

import argparse
import glob
import json
import math
import os
import statistics
import sys


def load_runs(dirs):
    runs = []
    for d in dirs:
        for path in sorted(glob.glob(os.path.join(d, "*.json"))):
            if path.endswith(".trace.json"):
                continue
            with open(path) as f:
                doc = json.load(f)
            doc["_path"] = path
            runs.append(doc)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(base, head, better, bound):
    sign = 1.0 if better == "lower" else -1.0
    pairs = list(zip(base, head))
    won = sum(1 for b, h in pairs if sign * (b - h) > 0)
    won_share = won / len(pairs) if pairs else 0.0
    bm, hm = statistics.median(base), statistics.median(head)
    bq1, bq3 = quartiles(base)
    hq1, hq3 = quartiles(head)
    worse = sign * (hm - bm) / abs(bm) if bm else 0.0
    spread = max((bq3 - bq1) / abs(bm) if bm else 0.0,
                 (hq3 - hq1) / abs(hm) if hm else 0.0)
    all_better = all(sign * (b - h) > 0 for b in base for h in head)
    if won_share >= 0.9 and worse < 0 and abs(hm - bm) > bq3 - bq1:
        enough = len(pairs) >= 10 and len(base) == len(head)
        v = "improved" if enough else "unresolved"
    elif worse > bound:
        v = "regressed"
    elif spread > bound and not all_better:
        v = "unresolved"
    else:
        v = "no change"
    return {"base": (bm, bq1, bq3), "head": (hm, hq1, hq3), "won": won_share,
            "worse": worse, "spread": spread, "verdict": v}


def by_workload(runs, trace):
    out = {}
    for r in runs:
        if r.get("trace") == trace:
            out.setdefault(r["workload"], []).append(r)
    for rs in out.values():
        rs.sort(key=lambda r: (r["seed"], r["_path"]))
    return out


def metric_values(runs, name):
    vals = []
    for r in runs:
        for m in r["metrics"]:
            if m["name"] == name:
                vals.append(m["value"])
    return vals


def compare(bench, base_runs, head_runs):
    failed = False
    for r in base_runs + head_runs:
        if not r.get("correct"):
            print(f"incorrect answers: {r['_path']} ({r.get('golden')})")
            failed = True
    base, head = by_workload(base_runs, 0), by_workload(head_runs, 0)
    print(f"{'workload':11s} {'metric':18s} {'base median [q1, q3]':>34s} "
          f"{'head median [q1, q3]':>34s} {'won':>5s} {'worse':>7s} "
          f"{'bound':>6s}  verdict")
    for w in sorted(set(base) | set(head)):
        for m in bench["end_to_end"]:
            b = metric_values(base.get(w, []), m["name"])
            h = metric_values(head.get(w, []), m["name"])
            if not b or not h:
                print(f"{w:11s} {m['name']:18s} missing on one side")
                failed = True
                continue
            v = verdict(b, h, m["better"], m["bound"])
            fmt = lambda t: f"{t[0]:.5g} [{t[1]:.5g}, {t[2]:.5g}]"
            print(f"{w:11s} {m['name']:18s} {fmt(v['base']):>34s} "
                  f"{fmt(v['head']):>34s} {v['won']:5.2f} "
                  f"{100 * v['worse']:6.1f}% {100 * m['bound']:5.1f}%  "
                  f"{v['verdict']}")
            failed = failed or v["verdict"] == "regressed"
    return failed


def validate(bench, runs):
    expected = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    workloads = {w["name"] for w in bench["workloads"]}
    problems = []
    for r in runs:
        where = r["_path"]
        if r.get("workload") not in workloads:
            problems.append(f"{where}: unknown workload {r.get('workload')}")
        if not r.get("correct") or r.get("failed") != 0 or r.get("attempted", 0) < 1:
            problems.append(f"{where}: not correct ({r.get('golden')})")
        got = {m["name"]: m["unit"] for m in r.get("metrics", [])}
        if got != expected.get(r.get("trace")):
            problems.append(f"{where}: metrics differ from BENCHMARK.json")
        for m in r.get("metrics", []):
            if not isinstance(m.get("value"), (int, float)) or not math.isfinite(m["value"]):
                problems.append(f"{where}: {m.get('name')} is not a finite number")
    for p in problems:
        print(p)
    print(f"validated {len(runs)} results file(s): "
          f"{'ok' if not problems and runs else 'FAILED'}")
    return bool(problems) or not runs


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", nargs="+", default=[])
    p.add_argument("--head", nargs="+", default=[])
    p.add_argument("--validate", nargs="+", default=[])
    p.add_argument("--benchmark", default=os.path.join(os.path.dirname(here),
                                                       "BENCHMARK.json"))
    args = p.parse_args()
    with open(args.benchmark) as f:
        bench = json.load(f)
    if args.validate:
        return 1 if validate(bench, load_runs(args.validate)) else 0
    if not args.base or not args.head:
        p.error("give --base and --head, or --validate")
    return 1 if compare(bench, load_runs(args.base), load_runs(args.head)) else 0


if __name__ == "__main__":
    sys.exit(main())
