#!/usr/bin/env python3
"""Builds the perfbench runner from this checkout and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload serve-tranad --seed 1 --seconds 12 --trace 0

The runner and the repository's libraries are compiled from source into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); later runs
reuse the build. Everything the runner prints goes to standard output, the
result line last. Exit status is non-zero, with no result line, when the
sources are missing, the build fails or the runner does not finish.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
WORKLOADS = ("serve-tranad", "wire-gdn", "train-tranad")
RUNNER_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(root):
        root = os.path.join(REPO, root)
    return os.path.join(root, "perfbench")


def build():
    if not os.path.isfile(os.path.join(REPO, "src", "CMakeLists.txt")):
        fail("the repository sources (src/) are missing; nothing to build")
    if shutil.which("cmake") is None:
        fail("cmake is not installed")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.call(configure, stdout=sys.stderr, stderr=sys.stderr) != 0:
            fail("cmake configure failed")
    if subprocess.call(["cmake", "--build", out, "-j", jobs],
                       stdout=sys.stderr, stderr=sys.stderr) != 0:
        fail("build failed")
    runner = os.path.join(out, "perfbench_runner")
    if not os.path.isfile(runner):
        fail("runner binary missing after build")
    return runner


def git_sha():
    if not os.path.isdir(os.path.join(REPO, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", REPO, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="toy sizes (smoke test)")
    parser.add_argument("--perturb-replay", action="store_true",
                        help="corrupt one replayed score (smoke test)")
    args = parser.parse_args()

    runner = build()
    env = dict(os.environ)
    # The runner sizes the compute pool itself; the context line reports it.
    env["PERFBENCH_GIT_SHA"] = git_sha()
    trace_dir = os.path.join(build_dir(), "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [runner, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out-dir", trace_dir]
    if args.toy:
        cmd.append("--toy")
    if args.perturb_replay:
        cmd.append("--perturb-replay")
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              timeout=RUNNER_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("runner did not finish within %d s" % RUNNER_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        for line in lines:
            print(line, file=sys.stderr)
        fail("runner exited with status %d" % proc.returncode)
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, AssertionError):
        fail("runner printed no result line")
    for line in lines:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
