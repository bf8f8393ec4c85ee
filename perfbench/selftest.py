#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/selftest.py

Runs every workload at smoke-test size (run.py --tiny) and requires a clean
pass that reports exactly the metrics BENCHMARK.json lists for the
workloads it names, then forces each output check to fail (run.py
--inject) and requires the run to count the failure and exit 1:

  e1b_mid         checkpoint     expected checkpoint_json altered
  e1b_wide        checkpoint     expected checkpoint_json altered
  small_reps_par  checkpoint     expected checkpoint_json altered
  small_reps_par  trace-digest   expected 1-thread trace digest altered
  serve_mixed     tamper-entry   one stored cache entry's payload edited
  serve_mixed     bad-request    a valid request sent where the script
                                 expects a bad_request rejection

Finally it copies only BENCHMARK.json and perfbench/ into an empty
directory and requires run.py to exit non-zero there without a result line.
Exit code 0 when every case behaves as required.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(ROOT, ".bench_build", "selftest-results")

CLEAN = [(w, t) for t in (1, 0)
         for w in ("small_reps_par", "e1b_mid", "e1b_wide", "serve_mixed")]
INJECTED = [("e1b_mid", "checkpoint"), ("e1b_wide", "checkpoint"),
            ("small_reps_par", "checkpoint"),
            ("small_reps_par", "trace-digest"), ("serve_mixed", "tamper-entry"),
            ("serve_mixed", "bad-request")]


def run(workload, trace, inject=""):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "5", "--seconds", "1", "--trace", str(trace), "--tiny",
           "--results", RESULTS]
    if inject:
        cmd += ["--inject", inject]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    return proc, result


def listed_metrics():
    """{workload: {trace: metric names}} for the workloads BENCHMARK.json
    lists: a clean run of one must report exactly these."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = {t: {m["name"] for m in bench[key]}
             for t, key in ((0, "end_to_end"), (1, "per_layer"))}
    return {w["name"]: names for w in bench["workloads"]}


def main():
    failures = []
    listed = listed_metrics()
    for workload, trace in CLEAN:
        proc, result = run(workload, trace)
        ok = (proc.returncode == 0 and result is not None and result["correct"]
              and result["failed"] == 0 and result["attempted"] > 0
              and result["metrics"])
        if ok and workload in listed:
            ok = set(result["metrics"]) == listed[workload][trace]
        print("%-5s clean   %-15s trace=%d  exit=%d" % (
            "ok" if ok else "FAIL", workload, trace, proc.returncode))
        if not ok:
            failures.append("clean %s trace=%d" % (workload, trace))
            sys.stdout.write(proc.stdout[-3000:] + proc.stderr[-3000:])

    for workload, inject in INJECTED:
        proc, result = run(workload, 1, inject)
        ok = (proc.returncode == 1 and result is not None
              and not result["correct"] and result["failed"] > 0)
        print("%-5s inject  %-15s %-13s exit=%d failed=%s" % (
            "ok" if ok else "FAIL", workload, inject, proc.returncode,
            result["failed"] if result else "-"))
        if not ok:
            failures.append("inject %s %s" % (workload, inject))
            sys.stdout.write(proc.stdout[-3000:] + proc.stderr[-3000:])

    empty = os.path.join(ROOT, ".bench_build", "selftest-empty")
    shutil.rmtree(empty, ignore_errors=True)
    os.makedirs(empty)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), empty)
    shutil.copytree(HERE, os.path.join(empty, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "e1b_wide",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=empty, timeout=180)
    printed_result = any(l.startswith('{"correct"')
                         for l in proc.stdout.splitlines())
    ok = proc.returncode != 0 and not printed_result
    print("%-5s empty checkout refused  exit=%d" % ("ok" if ok else "FAIL",
                                                    proc.returncode))
    if not ok:
        failures.append("empty checkout")
    shutil.rmtree(empty, ignore_errors=True)

    print("selftest: %s" % ("all cases behaved" if not failures
                            else "FAILED: " + ", ".join(failures)))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
