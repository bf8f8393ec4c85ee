#!/usr/bin/env python3
"""Compare two sets of perfbench results.

    python3 perfbench/compare.py BASE NEW

BASE and NEW are each a result file written by perfbench/run.py or a
directory of them (run.py writes to .bench_build/results/ by default; copy
that directory aside between the two commits). For every workload, and for
every end-to-end and per-layer metric, prints each side's sample count,
median and quartiles, and the change of the NEW median relative to the BASE
median, naming that base, and each side's failed/attempted ops. Self-test
results (--tiny, --inject) are skipped.
"""

import json
import os
import statistics
import sys


def load(path):
    files = [path] if os.path.isfile(path) else sorted(
        os.path.join(path, f) for f in os.listdir(path) if f.endswith(".json"))
    results = []
    for f in files:
        with open(f) as fh:
            r = json.load(fh)
        if r.get("tiny") or r.get("inject"):
            continue
        results.append(r)
    return results


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def values_of(results, workload, kind, metric):
    return [r[kind][metric]["value"] for r in results
            if r["workload"] == workload and metric in r.get(kind, {})]


def unit_of(results, workload, kind, metric):
    for r in results:
        if r["workload"] == workload and metric in r.get(kind, {}):
            return r[kind][metric]["unit"]
    return ""


def fmt(x):
    return "%.6g" % x


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    base, new = load(argv[1]), load(argv[2])
    if not base or not new:
        print("compare: no results in %s" % (argv[1] if not base else argv[2]),
              file=sys.stderr)
        return 2
    workloads = sorted({r["workload"] for r in base + new})
    for w in workloads:
        sides = []
        for results in (base, new):
            runs = [r for r in results if r["workload"] == w]
            sides.append("%d runs, %d/%d ops failed" % (
                len(runs), sum(r["failed"] for r in runs),
                sum(r["attempted"] for r in runs)))
        print("== %s  (base: %s; new: %s)" % (w, sides[0], sides[1]))
        for kind in ("end_to_end", "per_layer"):
            names = sorted({m for r in base + new if r["workload"] == w
                            for m in r.get(kind, {})})
            if not names:
                continue
            print("  %s" % kind.replace("_", "-"))
            print("    %-26s %-7s %28s %28s  %s" % (
                "metric", "unit", "base n: median [q1, q3]",
                "new n: median [q1, q3]", "delta vs base median"))
            for m in names:
                b = values_of(base, w, kind, m)
                n = values_of(new, w, kind, m)
                unit = unit_of(base + new, w, kind, m)
                cells = []
                for vals in (b, n):
                    if vals:
                        q1, med, q3 = quartiles(vals)
                        cells.append("%d: %s [%s, %s]" % (
                            len(vals), fmt(med), fmt(q1), fmt(q3)))
                    else:
                        cells.append("-")
                delta = "-"
                if b and n:
                    bm, nm = quartiles(b)[1], quartiles(n)[1]
                    if bm != 0:
                        delta = "%+.2f%% (new %s / base %s)" % (
                            100.0 * (nm - bm) / bm, fmt(nm), fmt(bm))
                    else:
                        delta = "base median is 0 (new %s)" % fmt(nm)
                print("    %-26s %-7s %28s %28s  %s" % (m, unit, cells[0],
                                                        cells[1], delta))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
