#!/usr/bin/env python3
"""Builds and runs the repo benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload inproc_decide --seed 1 --seconds 30 --trace 0

Run from the repository root. The library, pbt-serve and the benchmark
runner are built from source into .bench_build/ (Release), then the runner
runs one workload. The last line of stdout is the result object:
{"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import ctypes
import hashlib
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("rpc_small", "inproc_decide", "train_suite", "live_update")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def check_source_tree():
    for rel in ("CMakeLists.txt", "src", "tools/PbtServe.cpp", "tests/golden"):
        if not os.path.exists(os.path.join(ROOT, rel)):
            die("no %s under %s: run from a full source checkout" % (rel, ROOT))


def source_id():
    """The commit when git knows it, else a hash of the built sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if out.returncode == 0:
            return out.stdout.strip()
    h = hashlib.sha1()
    for top in ("CMakeLists.txt", "src", "tools", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "tree-" + h.hexdigest()[:16]


def die_with_parent():
    """Child-side: SIGKILL the runner if this script dies first."""
    libc = ctypes.CDLL(None)
    libc.prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG


def build():
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "pbt-perfbench"])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as fh:
                    sys.stderr.write(fh.read()[-4000:])
                die("build failed (log: %s)" % log_path, 1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    check_source_tree()
    build()
    work = os.path.join(".bench_build", "work-%d" % os.getpid())
    traces = os.path.join(ROOT, ".bench_build", "traces")
    os.makedirs(os.path.join(ROOT, work), exist_ok=True)
    os.makedirs(traces, exist_ok=True)
    cmd = [os.path.join(BUILD, "pbt-perfbench"),
           "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%s" % args.seconds, "--trace=%d" % args.trace,
           "--root=.", "--work-dir=" + work,
           "--serve=" + os.path.join(BUILD, "pbtuner", "pbt-serve"),
           "--source=" + source_id()]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            preexec_fn=die_with_parent)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        die("workload timed out after %ds" % RUN_TIMEOUT_S, 1)
    finally:
        for name in os.listdir(os.path.join(ROOT, work)):
            if name.startswith("spans-"):
                shutil.move(os.path.join(ROOT, work, name),
                            os.path.join(traces, name))
        shutil.rmtree(os.path.join(ROOT, work), ignore_errors=True)
    sys.stdout.write(out)
    sys.stdout.flush()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        die("runner exited with code %d" % proc.returncode, 1)


if __name__ == "__main__":
    main()
