#!/usr/bin/env python3
"""Builds the serving benchmark from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The build lands in .bench_build (or
$CARGO_TARGET_DIR when set); the stats self-test runs before every
workload. The last stdout line is the result object printed by
nai_perfbench; build output goes to stderr. Exits non-zero when the build,
the self-test or the workload fails, including any prediction mismatch.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def source_rev():
    """The git revision when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", jobs],
    ]
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "serve",
                                       "serving_engine.h")):
        print("perfbench: no NAI source tree next to perfbench/",
              file=sys.stderr)
        return 2
    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT,
                                                           ".bench_build"))
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 2

    selftest = subprocess.run([os.path.join(build_dir,
                                            "perfbench_stats_test")],
                              stdout=sys.stderr, stderr=sys.stderr)
    if selftest.returncode != 0:
        print("perfbench: stats self-test failed", file=sys.stderr)
        return 3

    workdir = os.path.join(build_dir, "run")
    os.makedirs(workdir, exist_ok=True)
    # Store files are unlinked as soon as they are mapped; one left behind
    # by a killed run would only take disk space.
    for name in os.listdir(workdir):
        if name.startswith("store_"):
            os.remove(os.path.join(workdir, name))
    # The deployment is pinned inside the benchmark; keep the caller's
    # scale, store and thread overrides away from it.
    env = {k: v for k, v in os.environ.items()
           if k not in ("NAI_SCALE", "NAI_STORE", "NAI_THREADS")}
    cmd = [os.path.join(build_dir, "nai_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir, "--rev", source_rev()]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        sys.stdout.write(exc.stdout or "")
        print("perfbench: workload timed out", file=sys.stderr)
        return 4
    lines = proc.stdout.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n" if len(lines) > 1 else "")
    if proc.returncode != 0:
        sys.stdout.flush()
        # Keep the failing result visible, but never as the last line.
        if lines and lines[-1]:
            print(lines[-1], file=sys.stderr)
        return proc.returncode
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
