#!/usr/bin/env python3
"""Collector benchmark: builds gill-collectord and the perfbench program from
this checkout's sources, runs one workload, and prints its metrics.

    python3 perfbench/run.py --workload ingest_firehose --seed 1 \
        --seconds 10 --trace 0

Run from the root of a checkout. Everything it builds or writes stays under
.bench_build/ in that checkout: the CMake tree (.bench_build/perfbench), a
private scratch directory per run (removed when the run ends) and the span
files of traced runs (.bench_build/traces). The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics. The exit status is non-zero when the build fails, the run cannot
finish, or an output check fails.
"""

import argparse
import fcntl
import hashlib
import os
import shutil
import signal
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
OUT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(OUT, "perfbench")
WORKLOADS = ("ingest_firehose", "ingest_paced", "archive_query",
             "filter_refresh")
# A run must finish inside 180 seconds; the perfbench program has its own
# watchdog a little earlier.
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 880


def log(message):
    print("run.py: " + message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the perfbench target; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no gill sources next to perfbench/ (expected src/ and tools/)")
        return None
    os.makedirs(OUT, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Concurrent runs in one checkout share the build tree: build under a
    # lock so they never race in it.
    with open(os.path.join(OUT, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                      "-j", jobs])
        for step in steps:
            try:
                done = subprocess.run(step, stdout=subprocess.PIPE,
                                      stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S)
            except (OSError, subprocess.TimeoutExpired) as error:
                log("build step failed: %s" % error)
                return None
            if done.returncode != 0:
                sys.stderr.write(done.stdout.decode(errors="replace")[-4000:])
                log("build failed: " + " ".join(step))
                return None
    binary = os.path.join(BUILD, "perfbench")
    return binary if os.access(binary, os.X_OK) else None


def source_id():
    """The git commit when this is a git checkout, else a digest of the
    sources the benchmark builds."""
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, timeout=10)
        if done.returncode == 0:
            return done.stdout.decode().strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for directory, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return "tree-" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be >= 1 and --seed >= 0")

    binary = build()
    if binary is None:
        return 2
    collector = os.path.join(BUILD, "tools", "gill-collectord")
    if not os.access(collector, os.X_OK):
        log("gill-collectord was not built")
        return 2

    os.makedirs(os.path.join(OUT, "tmp"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=args.workload + "-",
                               dir=os.path.join(OUT, "tmp"))
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--collector", collector, "--workdir", workdir,
               "--trace-dir", os.path.join(OUT, "traces"),
               "--sha", source_id()]
    child = subprocess.Popen(command, stdout=subprocess.PIPE)

    def stop(signum, _frame):
        child.kill()
        child.wait()
        shutil.rmtree(workdir, ignore_errors=True)
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        output, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        log("run exceeded %d s" % RUN_TIMEOUT_S)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    text = output.decode(errors="replace")
    lines = text.rstrip("\n").split("\n")
    if not lines or not lines[-1].startswith('{"correct"'):
        sys.stdout.write(text)
        log("perfbench exited %d without a result" % child.returncode)
        return child.returncode or 4
    sys.stdout.write(text)
    sys.stdout.flush()
    return child.returncode


if __name__ == "__main__":
    sys.exit(main())
