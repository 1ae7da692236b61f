#!/usr/bin/env python3
"""Run one workload of the topil benchmark.

    python3 perfbench/run.py --workload design|fleet|serve --seed N \\
        --seconds S --trace 0|1

Run it from the root of a source checkout. It builds the library and the
benchmark binary topil_perfbench (perfbench/CMakeLists.txt) into
.bench_build/, runs it, and watches from outside that its process never
runs more threads than the workloads are built for. Everything it writes
stays under .bench_build/.

Stdout ends with the binary's run record, the thread count, and the result
line {"correct", "attempted", "failed", "metrics"}. The exit code is 0 for
a correct run, 1 when a check fails (the result says correct: false) and
non-zero without a result when the build or the binary fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import threading

BUILD_DIR = ".bench_build"
# Every workload runs at most 4 threads: 3 workers and the caller for
# design and fleet; 2 shards, the IO thread and the client for serve.
MAX_THREADS = 4
RUN_TIMEOUT_S = 170


def build(root):
    """Configure once, then build incrementally; return the binary's path."""
    build_dir = os.path.join(root, BUILD_DIR, "cmake")
    tmp_dir = os.path.join(root, BUILD_DIR, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_dir)
    configured = any(os.path.exists(os.path.join(build_dir, name))
                     for name in ("build.ninja", "Makefile"))
    if not configured:
        configure = ["cmake", "-S", os.path.dirname(os.path.abspath(__file__)),
                     "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, env=env,
                       stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", "4"], check=True,
                   env=env, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "topil_perfbench")


def watch_threads(pid, peak, stop):
    """Record the highest thread count of `pid` until `stop` is set."""
    path = f"/proc/{pid}/status"
    while not stop.is_set():
        try:
            with open(path) as status:
                for line in status:
                    if line.startswith("Threads:"):
                        peak[0] = max(peak[0], int(line.split()[1]))
                        break
        except OSError:
            return
        stop.wait(0.02)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["design", "fleet", "serve"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    root = os.getcwd()
    try:
        binary = build(root)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"run.py: build failed: {err}", file=sys.stderr)
        return 1

    scratch = os.path.join(root, BUILD_DIR, "run")
    os.makedirs(scratch, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", scratch]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    peak = [0]
    stop = threading.Event()
    watcher = threading.Thread(target=watch_threads,
                               args=(proc.pid, peak, stop))
    watcher.start()
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("run.py: topil_perfbench timed out", file=sys.stderr)
        return 1
    finally:
        stop.set()
        watcher.join()

    lines = out.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        print(f"run.py: topil_perfbench failed with exit code "
              f"{proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
    print(json.dumps({"threads_peak": peak[0], "threads_limit": MAX_THREADS}))
    if peak[0] > MAX_THREADS:
        print(f"run.py: topil_perfbench ran {peak[0]} threads, more than "
              f"{MAX_THREADS}", file=sys.stderr)
        result["correct"] = False
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
