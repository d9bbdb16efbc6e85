#!/usr/bin/env python3
"""Builds and runs the repo benchmark (onebench).

Usage, from the repository root:

    python3 onebench/run.py --workload read_zipf --seed 1 --seconds 25 --trace 0
    python3 onebench/run.py --workload all --seed 1   # the three in turn
    python3 onebench/run.py --self-test

The first call configures and builds onebench/ (which compiles ../src) into
$CARGO_TARGET_DIR/onebench, or .bench_build/onebench when that variable is
unset; later calls rebuild incrementally. Build output goes to stderr, so the
last line of stdout is the benchmark's JSON result. The exit code is the
benchmark's: 0 on success, non-zero on a failed check or a bad argument
(with --workload all: the first non-zero one).
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Seed the baseline figures were taken with, and the held-out seed later
# performance claims are re-checked on (README.md).
BASELINE_SEED = 1
HELDOUT_SEED = 7919

WORKLOADS = ["read_zipf", "edit_stream", "bulk_memit"]


def build(target):
    """Configures (once) and builds `target`; returns the build directory."""
    build_root = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    build_dir = os.path.join(build_root, "onebench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", target,
                    "-j", jobs], check=True, stdout=sys.stderr)
    return build_dir


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=BASELINE_SEED)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's unit tests")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("onebench: no oneedit sources at %s/src; run from a full "
              "checkout" % ROOT, file=sys.stderr)
        return 2
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    try:
        build_dir = build("onebench_test" if args.self_test else "onebench")
    except (OSError, subprocess.CalledProcessError) as error:
        print("onebench: build failed: %s" % error, file=sys.stderr)
        return 2

    if args.self_test:
        return subprocess.run([os.path.join(build_dir, "onebench_test")]).returncode

    workdir = os.path.join(build_dir, "work-%d" % os.getpid())
    sha = git_sha()
    status = 0
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        command = [os.path.join(build_dir, "onebench"),
                   "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace),
                   "--workdir", workdir, "--git-sha", sha]
        try:
            sys.stdout.flush()
            code = subprocess.run(command).returncode
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        status = status or code
    return status


if __name__ == "__main__":
    sys.exit(main())
