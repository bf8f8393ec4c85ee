#!/usr/bin/env python3
"""Run one workload of the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run builds the repository with
its own CMake configure (default RelWithDebInfo) into .bench_build/synran,
then this package's measuring binary into .bench_build/perfbench; later runs
rebuild incrementally. The workload's report goes to stdout, its full
result (with the environment record) to .bench_build/results/, and the last
stdout line is one JSON object: {"correct", "attempted", "failed",
"metrics"} -- the end-to-end metrics with --trace 0, the per-layer metrics
of the traced run with --trace 1.

`--workload all` runs every workload in turn and ends with one summary
line whose metric names carry their workload as a prefix.

Exit codes: 0 all output checks passed, 1 an output check failed, 2 the
tree cannot be built or measured (no result line is printed).
"""

import argparse
import ctypes
import fcntl
import hashlib
import json
import os
import platform
import re
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("small_reps_par", "e1b_mid", "serve_mixed", "e1b_wide")


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def root_dir():
    """The checkout root: the directory holding this package."""
    return os.path.dirname(HERE)


def check_sources(root):
    for rel in ("CMakeLists.txt", "src/CMakeLists.txt", "tools/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(root, rel)):
            die("no repository sources here (missing %s)" % rel)


def build(root, build_root):
    """Configures and builds the repository, then the measuring binary."""
    synran_build = os.path.join(build_root, "synran")
    bench_build = os.path.join(build_root, "perfbench")
    log_path = os.path.join(build_root, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", root, "-B", synran_build, "-DBUILD_TESTING=OFF"],
        ["cmake", "--build", synran_build, "--target", "synran_cli", "-j", jobs],
        ["cmake", "-S", HERE, "-B", bench_build,
         "-DSYNRAN_ROOT=" + root, "-DSYNRAN_BUILD_DIR=" + synran_build],
        ["cmake", "--build", bench_build, "-j", jobs],
    ]
    with open(log_path, "w") as log:
        for cmd in steps:
            log.write("$ " + " ".join(cmd) + "\n")
            log.flush()
            rc = subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT,
                                 timeout=850)
            if rc != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                die("build step failed: " + " ".join(cmd))
    return (os.path.join(synran_build, "tools", "synran"),
            os.path.join(bench_build, "perfbench"), synran_build)


def fixed_layout():
    """Runs in the measuring child before exec: turns off address-space
    randomisation (personality ADDR_NO_RANDOMIZE, inherited by the daemon it
    spawns), so every run lays out stacks and heaps at the same addresses
    and cache-aliasing luck does not differ between runs. Where the kernel
    refuses, the run goes ahead with a randomised layout."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        current = libc.personality(0xffffffff)
        if current != -1:
            libc.personality(current | 0x0040000)
    except (OSError, AttributeError):
        pass


def read_text(path):
    try:
        with open(path) as f:
            return f.read()
    except OSError:
        return ""


def source_digest(root):
    """SHA-256 over the files the program is built from."""
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools"):
        path = os.path.join(root, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in sorted(files):
            h.update(os.path.relpath(f, root).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def git_rev(root):
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown (not a git checkout)"


def environment(root, synran_build, seed):
    """The environment record stored with every result."""
    flags = read_text(os.path.join(synran_build, "src", "sim", "CMakeFiles",
                                   "synran_sim.dir", "flags.make"))
    m = re.search(r"^CXX_FLAGS = (.*)$", flags, re.M)
    cxx_flags = m.group(1).strip() if m else ""
    cache = read_text(os.path.join(synran_build, "CMakeCache.txt"))
    m = re.search(r"^CMAKE_BUILD_TYPE:STRING=(.*)$", cache, re.M)
    build_type = (m.group(1).strip() if m else "") or "RelWithDebInfo (default)"
    m = re.search(r"^CMAKE_CXX_COMPILER:\w+=(.*)$", cache, re.M)
    compiler = m.group(1).strip() if m else "unknown"
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True, timeout=10).stdout.splitlines()[0]
    except (OSError, subprocess.SubprocessError, IndexError):
        version = "unknown"
    return {
        "git_rev": git_rev(root),
        "source_sha256": source_digest(root),
        "build_type": build_type,
        "cxx_flags": cxx_flags,
        "compiler": compiler + " (" + version + ")",
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "seed": seed,
    }


def refuse_unoptimised(env):
    flags = env["cxx_flags"].split()
    if not any(re.fullmatch(r"-O[123s]|-Ofast", f) for f in flags):
        die("refusing to report timings: build flags '%s' are unoptimised"
            % env["cxx_flags"])
    if any(f.startswith("-fsanitize") for f in flags):
        die("refusing to report timings from a sanitizer build")


def declared_metrics(root, workload, trace):
    """{name: unit} of the metrics BENCHMARK.json lists for this kind of
    run, or None when the workload is not one of its workloads."""
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as f:
            bench = json.load(f)
    except (OSError, ValueError):
        return None
    if workload not in {w["name"] for w in bench.get("workloads", [])}:
        return None
    return {m["name"]: m["unit"]
            for m in bench["per_layer" if trace else "end_to_end"]}


def run_workload(args, workload, root, build_root, synran, perfbench, env):
    """Runs one workload, prints its report, stores its result file, and
    returns (correct, attempted, failed, metrics for the result line)."""
    work = os.path.join(build_root, "work", workload)
    cmd = [perfbench, "run", "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--synran", synran, "--work", work]
    if args.tiny:
        cmd.append("--tiny")
    if args.inject:
        cmd += ["--inject", args.inject]
    # Its own process group, so a timeout or a signal to this script also
    # stops the daemon it spawned.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, cwd=root, start_new_session=True,
                            preexec_fn=fixed_layout)

    def stop(signum, _frame):
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        stdout, stderr = proc.communicate(timeout=175)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        die("workload %s did not finish in time" % workload)
    sys.stderr.write(stderr)
    lines = stdout.rstrip("\n").splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stdout.write(stdout)
        die("workload %s produced no result (exit %d)"
            % (workload, proc.returncode))
    for line in lines[:-1]:
        print(line)

    print("environment: " + json.dumps(env, sort_keys=True))
    results = args.results or os.path.join(build_root, "results")
    os.makedirs(results, exist_ok=True)
    record = dict(report, workload=workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, tiny=args.tiny,
                  inject=args.inject, environment=env,
                  finished_unix=time.time())
    name = "%s-seed%d-trace%d-%d.json" % (workload, args.seed, args.trace,
                                          time.time_ns())
    with open(os.path.join(results, name), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)

    chosen = report["per_layer"] if args.trace else report["end_to_end"]
    metrics = {k: {"value": v["value"], "unit": v["unit"]}
               for k, v in sorted(chosen.items())}
    # A workload listed in BENCHMARK.json reports exactly the metrics listed
    # there; the others it measured stay in the report and the result file.
    # A listed metric of a layer the workload does not exercise is reported
    # as 0, and the report says why.
    listed = declared_metrics(root, workload, args.trace)
    if listed is not None:
        missing = [k for k in listed
                   if k not in metrics and k not in report["absent"]]
        if missing:
            die("workload %s reported no %s" % (workload, ", ".join(missing)))
        metrics = {k: metrics.get(k, {"value": 0, "unit": unit})
                   for k, unit in sorted(listed.items())}
    correct = bool(report["correct"]) and proc.returncode == 0
    return correct, int(report["attempted"]), int(report["failed"]), metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smoke-test sizes (self-test only; not a benchmark)")
    ap.add_argument("--inject", default="",
                    help="force one output check to fail (self-test only)")
    ap.add_argument("--results", default=None,
                    help="directory for result files "
                         "(default .bench_build/results)")
    args = ap.parse_args()
    if args.seed < 0:
        die("--seed must be non-negative")

    root = root_dir()
    check_sources(root)
    build_root = os.path.join(root, ".bench_build")
    os.makedirs(build_root, exist_ok=True)
    # Runs in one checkout share the build and work directories: take turns.
    lock = open(os.path.join(build_root, "lock"), "w")
    fcntl.flock(lock, fcntl.LOCK_EX)
    synran, perfbench, synran_build = build(root, build_root)
    env = environment(root, synran_build, args.seed)
    refuse_unoptimised(env)

    if args.workload != "all":
        correct, attempted, failed, metrics = run_workload(
            args, args.workload, root, build_root, synran, perfbench, env)
    else:
        correct, attempted, failed, metrics = True, 0, 0, {}
        for workload in WORKLOADS:
            ok, att, fail, m = run_workload(args, workload, root, build_root,
                                            synran, perfbench, env)
            correct = correct and ok
            attempted += att
            failed += fail
            metrics.update({workload + "." + k: v for k, v in m.items()})
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.stdout.flush()
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
